"""Batch-12 ops: TPC-H Q13/Q7 shapes, log compaction, SCD2
point-in-time join, transcript retry detection."""

import duckdb
import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_customer_order_distribution_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        customer_order_distribution,
        customer_order_distribution_sql,
    )

    mine = customer_order_distribution(SF)
    compare_twin(mine, con, customer_order_distribution_sql())
    # the distribution accounts for EVERY customer, with the zero
    # bucket present exactly when zero-order customers exist
    n_cust = con.execute("SELECT COUNT(*) FROM customer").fetchone()[0]
    n_zero = con.execute(
        """SELECT COUNT(*) FROM customer c
           WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)"""
    ).fetchone()[0]
    assert int(mine["n_customers"].sum()) == n_cust
    zero_rows = mine[mine["n_orders"] == 0]
    assert (int(zero_rows["n_customers"].iloc[0]) if len(zero_rows) else 0) == n_zero


def test_customer_order_distribution_zero_bucket(ray_session, tmp_path):
    # a fixture WITH orderless customers produces the zero bucket
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.relational import customer_order_distribution

    pq.write_table(
        pa.table({"c_custkey": pa.array([1, 2, 3, 4], pa.int64())}),
        tmp_path / "customer.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([10, 11, 12], pa.int64()),
                "o_custkey": pa.array([1, 1, 2], pa.int64()),
            }
        ),
        tmp_path / "orders.parquet",
    )
    out = customer_order_distribution(str(tmp_path))
    assert out.to_dict("list") == {"n_orders": [0, 1, 2], "n_customers": [2, 1, 1]}


def test_nation_pair_trade_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        nation_pair_trade,
        nation_pair_trade_sql,
    )

    mine = nation_pair_trade(SF)
    assert len(mine) > 0
    # no self-trade pairs survive the != predicate
    assert (mine["supp_nation"] != mine["cust_nation"]).all()
    compare_twin(mine, con, nation_pair_trade_sql())


def test_latest_event_per_user_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        latest_event_per_user,
        latest_event_per_user_sql,
    )

    mine = latest_event_per_user(SF)
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert len(mine) == n_users
    compare_twin(mine, con, latest_event_per_user_sql())


def test_latest_event_per_user_tie_break(ray_session, tmp_path):
    # equal timestamps resolve to the larger event_id (deterministic)
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.relational import latest_event_per_user

    ts = np.datetime64("2024-01-05T10:00:00", "us")
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3], pa.int64()),
            "ts": pa.array([ts, ts, ts - np.timedelta64(1, "h")], pa.timestamp("us")),
            "user_id": pa.array([7, 7, 7], pa.int64()),
            "event_type": ["a", "b", "c"],
            "value": pa.array([1.0, 2.0, 3.0], pa.float64()),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    out = latest_event_per_user(str(tmp_path))
    assert len(out) == 1
    assert out.iloc[0]["event_id"] == 2
    assert out.iloc[0]["event_type"] == "b"


def test_scd2_pit_join_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import scd2_pit_join, scd2_pit_join_sql

    mine = scd2_pit_join(SF)
    assert len(mine) > 0
    compare_twin(mine, con, scd2_pit_join_sql())


def test_scd2_pit_join_version_semantics(ray_session):
    # facts never match a version interval they precede: every matched
    # valid_from is one of the two snapshot dates, and a changed doc
    # (doc_id % 10 == 5, present in both snapshots) shows BOTH its
    # closed D0 version (mid-window facts) and its D1 version (post
    # facts) when facts of both stamps exist for it
    from pdfrust_ray.pipelines.datasetops import scd2_pit_join

    mine = scd2_pit_join(SF)
    vf = pd.to_datetime(mine["valid_from"]).dt.strftime("%Y-%m-%d")
    assert set(vf.unique()) <= {"2024-01-01", "2024-01-02"}
    changed = mine[mine["doc_id"] % 10 == 5]
    two_version_docs = changed.groupby("doc_id").size()
    assert (two_version_docs == 2).any()


def test_user_retry_rate_oracle(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        user_retry_rate,
        user_retry_rate_sql,
    )

    d = ensure_corpus("t1")
    mine = user_retry_rate(d)
    assert (mine["n_retries"] > 0).any()  # non-vacuous on the fixture
    assert (mine["n_retries"] < mine["n_user_turns"]).all()
    c = duckdb.connect()
    compare_twin(mine, c, user_retry_rate_sql(f"{d}/shards/*.parquet"))
