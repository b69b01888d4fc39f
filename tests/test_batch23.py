"""Batch-23 ops: RANK-with-ties top-k, near-dup cluster histogram,
hour-of-day profile."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_top_value_events_with_ties_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        top_value_events_with_ties,
        top_value_events_with_ties_sql,
    )

    mine = top_value_events_with_ties(SF)
    assert (mine["rank"] <= 3).all()
    compare_twin(mine, con, top_value_events_with_ties_sql())


def test_top_value_events_with_ties_keeps_peers(ray_session, tmp_path):
    # a tie AT the k-th rank keeps all peers (RANK, not ROW_NUMBER)
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.relational import top_value_events_with_ties

    ts = np.datetime64("2024-01-05T10:00:00", "us")
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "ts": pa.array([ts] * 5, pa.timestamp("us")),
                "event_type": ["click"] * 5,
                "value": pa.array([9.0, 5.0, 5.0, 5.0, 1.0], pa.float64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    out = top_value_events_with_ties(str(tmp_path), k=2)
    # rank 2 is shared by the three 5.00 events -> 4 rows total
    assert len(out) == 4
    assert out["rank"].tolist() == [1, 2, 2, 2]


def test_dedup_cluster_size_histogram_oracle(ray_session, con):
    from pdfrust_ray.stages.dedup import (
        dedup_cluster_size_histogram,
        dedup_cluster_size_histogram_sql,
    )

    mine = dedup_cluster_size_histogram(SF)
    assert (mine["cluster_size"] >= 2).all()  # singletons are not clusters
    assert (mine["n_clusters"] > 0).all()
    compare_twin(mine, con, dedup_cluster_size_histogram_sql())


def test_hourly_profile_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import hourly_profile, hourly_profile_sql

    mine = hourly_profile(SF)
    assert len(mine) == 24
    assert int(mine["n_events"].sum()) == 1000
    compare_twin(mine, con, hourly_profile_sql())
