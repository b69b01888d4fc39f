"""Batch-30 ops: TPC-H Q8/Q15/Q17/Q21/Q22 shapes and the LOO
target-encoding audit."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_tpch_q8_market_share_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        tpch_q8_market_share,
        tpch_q8_market_share_sql,
    )

    mine = tpch_q8_market_share(SF)
    assert len(mine) >= 5  # one row per order year with AMERICA/ECONOMY revenue
    assert (mine["mkt_share_ppm"] <= 1_000_000).all()
    assert (mine["nation_cents"] <= mine["total_cents"]).all()
    compare_twin(mine, con, tpch_q8_market_share_sql())


def test_tpch_q15_top_supplier_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        tpch_q15_top_supplier,
        tpch_q15_top_supplier_sql,
    )

    mine = tpch_q15_top_supplier(SF)
    assert len(mine) >= 1  # at least one supplier at the max (ties kept)
    compare_twin(mine, con, tpch_q15_top_supplier_sql())


def test_tpch_q17_small_quantity_revenue_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        tpch_q17_small_quantity_revenue,
        tpch_q17_small_quantity_revenue_sql,
    )

    mine = tpch_q17_small_quantity_revenue(SF)
    assert mine.iloc[0]["n_items"] > 0
    assert mine.iloc[0]["avg_yearly_cents"] == mine.iloc[0]["total_cents"] // 7
    compare_twin(mine, con, tpch_q17_small_quantity_revenue_sql())


def test_tpch_q21_waiting_suppliers_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        tpch_q21_waiting_suppliers,
        tpch_q21_waiting_suppliers_sql,
    )

    mine = tpch_q21_waiting_suppliers(SF)
    assert len(mine) > 0
    assert (mine["numwait"].diff().dropna() <= 0).all()  # sorted desc
    compare_twin(mine, con, tpch_q21_waiting_suppliers_sql())


def test_tpch_q22_idle_balance_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        tpch_q22_idle_balance,
        tpch_q22_idle_balance_sql,
    )

    mine = tpch_q22_idle_balance(SF)
    assert mine["n_custs"].sum() > 0
    compare_twin(mine, con, tpch_q22_idle_balance_sql())


def test_loo_target_encode_audit_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        loo_target_encode_audit,
        loo_target_encode_audit_sql,
    )

    mine = loo_target_encode_audit(SF)
    assert len(mine) == 5  # the five event types
    # above-LOO-mean counts are a strict subset of each type's rows
    assert (mine["n_above_loo_mean"] < mine["n_rows"]).all()
    assert (mine["n_above_loo_mean"] > 0).all()
    compare_twin(mine, con, loo_target_encode_audit_sql())


def test_loo_predicate_matches_serial_recompute(ray_session):
    """The distributed two-pass count equals a direct single-process
    recompute of the exact LOO predicate."""
    import numpy as np
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.relational import loo_target_encode_audit

    mine = loo_target_encode_audit(SF).set_index("event_type")
    t = pq.read_table(f"{SF}/events.parquet", columns=["event_type", "value"])
    df = t.to_pandas()
    df["cents"] = np.round(df["value"] * 100).astype("int64")
    for ty, g in df.groupby("event_type"):
        s, n = int(g["cents"].sum()), len(g)
        above = int((g["cents"] * (n - 1) > s - g["cents"]).sum())
        assert mine.loc[ty, "n_above_loo_mean"] == above
        assert mine.loc[ty, "n_rows"] == n
