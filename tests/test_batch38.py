"""Batch-38 ops: RFM cube, dyadic-exact EWMA, adapted TPC-H Q16/Q2,
deterministic k-fold audit."""

import numpy as np
import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_rfm_segments_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import rfm_segments, rfm_segments_sql

    mine = rfm_segments(SF)
    # codes are three digits of 1..4 each
    d = mine["rfm_code"].to_numpy()
    assert ((d // 100 >= 1) & (d // 100 <= 4)).all()
    assert ((d // 10 % 10 >= 1) & (d // 10 % 10 <= 4)).all()
    assert ((d % 10 >= 1) & (d % 10 <= 4)).all()
    # population per segment == customers with >= 1 order in that segment
    per_seg = mine.groupby("c_mktsegment")["n_customers"].sum()
    exp = con.execute(
        """SELECT c_mktsegment, COUNT(DISTINCT o_custkey) FROM orders
           JOIN customer ON c_custkey = o_custkey GROUP BY 1 ORDER BY 1"""
    ).fetchall()
    assert dict(per_seg) == {k: v for k, v in exp}
    compare_twin(mine, con, rfm_segments_sql())


def test_daily_ewma_oracle_and_recurrence(ray_session, con):
    from pdfrust_ray.pipelines.relational import daily_ewma, daily_ewma_sql

    mine = daily_ewma(SF)
    # the closed form must satisfy the defining recurrence exactly
    x = mine["n_events"].to_numpy().astype(float)
    s = mine["ewma"].to_numpy()
    assert s[0] == x[0]
    np.testing.assert_array_equal(s[1:], (x[1:] + s[:-1]) / 2.0)
    compare_twin(mine, con, daily_ewma_sql())


def test_supplier_cnt_by_part_attrs_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        supplier_cnt_by_part_attrs,
        supplier_cnt_by_part_attrs_sql,
    )

    mine = supplier_cnt_by_part_attrs(SF)
    assert (mine["supplier_cnt"] >= 1).all()
    assert not (mine["p_brand"] == "Brand#1").any()
    compare_twin(mine, con, supplier_cnt_by_part_attrs_sql())


def test_best_supplier_per_part_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        best_supplier_per_part,
        best_supplier_per_part_sql,
    )

    mine = best_supplier_per_part(SF)
    # one row per part; every chosen supplier is in EUROPE
    assert mine["p_partkey"].is_unique
    eu = {
        r[0]
        for r in con.execute(
            """SELECT s_suppkey FROM supplier JOIN nation ON s_nationkey=n_nationkey
               JOIN region ON n_regionkey=r_regionkey WHERE r_name='EUROPE'"""
        ).fetchall()
    }
    assert set(mine["s_suppkey"]) <= eu
    compare_twin(mine, con, best_supplier_per_part_sql())


def test_best_supplier_tie_break(ray_session, con):
    """Max-balance ties must resolve to the LOWEST suppkey (packed-key
    order == the SQL window order)."""
    from pdfrust_ray.pipelines.relational import best_supplier_per_part

    mine = best_supplier_per_part(SF)
    joined = con.execute(
        """WITH eu AS (
               SELECT s_suppkey, CAST(ROUND(s_acctbal*100) AS BIGINT) AS bal
               FROM supplier JOIN nation ON s_nationkey=n_nationkey
               JOIN region ON n_regionkey=r_regionkey WHERE r_name='EUROPE')
           SELECT l_partkey, s_suppkey, bal
           FROM (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem) p
           JOIN eu ON l_suppkey = s_suppkey"""
    ).fetchdf()
    exp = (
        joined.sort_values(["bal", "s_suppkey"], ascending=[False, True], kind="mergesort")
        .groupby("l_partkey", as_index=True)
        .first()
    )
    m = mine.set_index("p_partkey")
    for pk, r in exp.iterrows():
        assert m.loc[pk, "bal_cents"] == r["bal"]
        assert m.loc[pk, "s_suppkey"] == r["s_suppkey"]


def test_kfold_assignment_oracle(ray_session, con):
    from pdfrust_ray.pipelines.llmdata import kfold_assignment, kfold_assignment_sql

    mine = kfold_assignment(SF)
    assert set(mine["fold"]) <= set(range(5))
    n_docs = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert mine["n_docs"].sum() == n_docs
    # determinism: re-run is identical
    again = kfold_assignment(SF)
    pd.testing.assert_frame_equal(mine, again)
    compare_twin(mine, con, kfold_assignment_sql())
