"""Batch-25 ops: join-fanout histogram, Q19 DNF filter, activity
streaks."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_order_fanout_histogram_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        order_fanout_histogram,
        order_fanout_histogram_sql,
    )

    mine = order_fanout_histogram(SF)
    assert len(mine) > 5  # real fanout spread on the fixture
    n_orders_with_lines = con.execute(
        "SELECT COUNT(DISTINCT l_orderkey) FROM lineitem"
    ).fetchone()[0]
    assert int(mine["n_orders"].sum()) == n_orders_with_lines
    compare_twin(mine, con, order_fanout_histogram_sql())


def test_dnf_filter_revenue_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import dnf_filter_revenue, dnf_filter_revenue_sql

    mine = dnf_filter_revenue(SF)
    assert len(mine) == 1 and mine.iloc[0]["n_items"] > 0
    compare_twin(mine, con, dnf_filter_revenue_sql())


def test_user_longest_streak_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import user_longest_streak, user_longest_streak_sql

    mine = user_longest_streak(SF)
    assert (mine["longest_streak"] <= mine["n_active_days"]).all()
    assert mine["longest_streak"].nunique() > 1  # non-degenerate
    compare_twin(mine, con, user_longest_streak_sql())


def test_user_longest_streak_planted(ray_session, tmp_path):
    # days 1,2,3, then 5,6 -> n_active_days 5, longest streak 3
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.relational import user_longest_streak

    days = ["2024-01-01", "2024-01-02", "2024-01-03", "2024-01-05", "2024-01-06"]
    ts = [np.datetime64(f"{d}T09:00:00", "us") for d in days]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(5), pa.int64()),
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": pa.array([3] * 5, pa.int64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    out = user_longest_streak(str(tmp_path))
    assert out.to_dict("list") == {
        "user_id": [3],
        "n_active_days": [5],
        "longest_streak": [3],
    }
