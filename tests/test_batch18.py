"""Batch-18 ops: EXISTS semi-join (Q4 shape), promo share (Q14 shape),
PSI drift, tool latency percentiles."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_returned_order_priority_counts_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        returned_order_priority_counts,
        returned_order_priority_counts_sql,
    )

    mine = returned_order_priority_counts(SF)
    assert len(mine) == 5 and (mine["n_orders"] > 0).all()
    # a semi-join counts each order at most once
    n_orders = con.execute("SELECT COUNT(*) FROM orders").fetchone()[0]
    assert int(mine["n_orders"].sum()) <= n_orders
    compare_twin(mine, con, returned_order_priority_counts_sql())


def test_promo_revenue_share_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        promo_revenue_share,
        promo_revenue_share_sql,
    )

    mine = promo_revenue_share(SF)
    assert (mine["promo_cents"] <= mine["total_cents"]).all()
    assert (mine["promo_ppm"] < 1_000_000).all()
    assert (mine["promo_ppm"] > 0).any()
    compare_twin(mine, con, promo_revenue_share_sql())


def test_value_drift_psi_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import value_drift_psi, value_drift_psi_sql

    mine = value_drift_psi(SF)
    assert (mine["n_ref"] + mine["n_cur"] > 0).all()
    assert int((mine["n_ref"] + mine["n_cur"]).sum()) == 1000
    compare_twin(mine, con, value_drift_psi_sql())


def test_value_drift_psi_identical_windows_is_zero(ray_session, tmp_path):
    # identical value distributions in both windows -> every PSI term 0
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.relational import value_drift_psi

    vals = [10.0, 60.0, 110.0, 160.0] * 25
    ts_ref = [np.datetime64("2024-01-02T00:00:00", "us")] * 100
    ts_cur = [np.datetime64("2024-01-20T00:00:00", "us")] * 100
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(200), pa.int64()),
                "ts": pa.array(ts_ref + ts_cur, pa.timestamp("us")),
                "value": pa.array(vals + vals, pa.float64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    out = value_drift_psi(str(tmp_path))
    assert (out["psi_term_micro"] == 0).all()
    assert (out["n_ref"] == out["n_cur"]).all()


def test_tool_latency_quantiles_oracle(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        tool_latency_quantiles,
        tool_latency_quantiles_sql,
    )

    d = ensure_corpus("t1")
    mine = tool_latency_quantiles(d)
    assert len(mine) > 0
    assert (mine["p50_s"] <= mine["p95_s"]).all()
    c = duckdb.connect()
    compare_twin(mine, c, tool_latency_quantiles_sql(f"{d}/shards/*.parquet"))
