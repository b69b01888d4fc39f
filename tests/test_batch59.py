"""Batch-59: per-supplier p90 ship-delay tail over the fact join."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_slowest_suppliers_p90_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        slowest_suppliers_p90,
        slowest_suppliers_p90_sql,
    )

    mine = slowest_suppliers_p90(SF)
    compare_twin(mine, con, slowest_suppliers_p90_sql())
    # ranked slowest-first; delays are plausible TPC-H ship windows
    d = mine["p90_delay_days"].to_numpy()
    assert (np.diff(d) <= 0).all()
    assert (mine["p90_delay_days"] >= 0).all()


def test_p90_brute_force_one_supplier(ray_session, con):
    from pdfrust_ray.pipelines.relational import slowest_suppliers_p90

    mine = slowest_suppliers_p90(SF, k=3)
    sk = int(mine["s_suppkey"].iloc[0])
    delays = con.execute(
        f"""SELECT date_diff('day', CAST(o_orderdate AS DATE),
                             CAST(l_shipdate AS DATE)) d
            FROM lineitem JOIN orders ON o_orderkey = l_orderkey
            WHERE l_suppkey = {sk} ORDER BY d"""
    ).fetchdf()["d"].to_numpy()
    rank = int(np.ceil(0.9 * len(delays)))
    assert int(mine["p90_delay_days"].iloc[0]) == int(delays[rank - 1])
    assert int(mine["n_lineitems"].iloc[0]) == len(delays)
