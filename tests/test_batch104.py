"""Batch-104: keyspace fragmentation, near-miss dups, range-shard plan."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_fragmentation_oracle_and_identity(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        orderkey_fragmentation_audit,
        orderkey_fragmentation_audit_sql,
    )

    mine = orderkey_fragmentation_audit(SF)
    compare_twin(mine, con, orderkey_fragmentation_audit_sql())
    r = mine.iloc[0]
    # deleting ~1/3 of a dense keyspace must tear holes
    assert int(r["n_gap_runs"]) > 0
    assert int(r["max_gap_run"]) >= 1
    # live + missing + leading segment == span identity
    live = con.execute(
        "SELECT COUNT(*), MIN(o_orderkey), MAX(o_orderkey) FROM orders WHERE o_orderstatus <> 'F'"
    ).fetchone()
    assert int(r["n_live_keys"]) == live[0]
    assert int(r["n_missing_keys"]) == (live[2] - live[1] + 1) - live[0]


def test_fragmentation_boundary_stitch(ray_session, tmp_path):
    """Holes spanning bucket boundaries (width 64) count exactly once."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.datasetops import orderkey_fragmentation_audit

    # keys 0..63 live, 64..200 missing, 201..210 live: one 137-hole
    keys = list(range(0, 64)) + list(range(201, 211))
    t = pa.table(
        {
            "o_orderkey": pa.array(keys, pa.int64()),
            "o_orderstatus": pa.array(["O"] * len(keys), pa.string()),
        }
    )
    pq.write_table(t, str(tmp_path / "orders.parquet"))
    out = orderkey_fragmentation_audit(str(tmp_path)).iloc[0]
    assert int(out["n_live_keys"]) == 74
    assert int(out["n_gap_runs"]) == 1
    assert int(out["n_missing_keys"]) == 137
    assert int(out["max_gap_run"]) == 137


def test_nearmiss_oracle_and_signal(ray_session, con):
    from pdfrust_ray.pipelines.relational import event_nearmiss_dups, event_nearmiss_dups_sql

    mine = event_nearmiss_dups(SF)
    compare_twin(mine, con, event_nearmiss_dups_sql())
    assert int(mine["n_nearmiss"].sum()) > 0
    assert (mine["n_nearmiss"] < mine["n_events"]).all()


def test_range_shard_plan_optimality(ray_session, con):
    from pdfrust_ray.pipelines.relational import daily_range_shard_plan

    mine = daily_range_shard_plan(SF, n_shards=8)
    cap = int(mine["opt_cap_cents"].iloc[0])
    # every shard respects the cap; loads sum to the total
    assert (mine["load_cents"] <= cap).all()
    total = con.execute(
        "SELECT CAST(SUM(ROUND(o_totalprice*100)) AS BIGINT) FROM orders"
    ).fetchone()[0]
    assert int(mine["load_cents"].sum()) == total
    assert len(mine) <= 8
    # brute-force DP minimax over the daily series equals the cap
    daily = con.execute(
        """SELECT epoch_us(o_orderdate)//86400000000 d,
                  CAST(SUM(ROUND(o_totalprice*100)) AS BIGINT) r
           FROM orders GROUP BY 1 ORDER BY 1"""
    ).fetchall()
    rev = [int(r) for _, r in daily]
    n, B = len(rev), 8
    pre = np.concatenate(([0], np.cumsum(rev)))
    INF = float("inf")
    dp = [INF] * (n + 1)
    dp[0] = 0
    for _ in range(B):
        nxt = [INF] * (n + 1)
        for i in range(1, n + 1):
            best = min(
                (max(dp[j], pre[i] - pre[j]) for j in range(i) if dp[j] < INF),
                default=INF,
            )
            nxt[i] = best
        dp = nxt
        dp[0] = 0  # allow unused shards
    assert cap == int(dp[n])
