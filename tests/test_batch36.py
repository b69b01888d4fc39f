"""Batch-36 ops: hot-key detector, range-partitioned sink."""

import os

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_hot_key_detector_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import hot_key_detector, hot_key_detector_sql

    mine = hot_key_detector(SF)
    assert len(mine) >= 1  # the fixture has at least one flagged key
    assert (mine["est_count"] == mine["n_sampled"] * 10).all()
    assert (mine["exact_count"] > 0).all()
    compare_twin(mine, con, hot_key_detector_sql())


def test_hot_key_detector_empty_threshold(ray_session):
    """An impossible threshold yields a typed empty frame, not a crash."""
    from pdfrust_ray.pipelines.datasetops import hot_key_detector

    mine = hot_key_detector(SF, min_sampled=10**6)
    assert len(mine) == 0
    assert list(mine.columns) == ["user_id", "n_sampled", "est_count", "exact_count"]


def test_range_partitioned_write_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        range_partitioned_write,
        range_partitioned_write_sql,
    )

    mine = range_partitioned_write(SF)
    n = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    assert mine["n_rows"].sum() == n  # nothing lost in the sink
    compare_twin(mine, con, range_partitioned_write_sql())


def test_range_partitions_are_disjoint_ordered(ray_session):
    """Key ranges must be non-overlapping and ordered — the property a
    sorted-merge reader depends on."""
    from pdfrust_ray.pipelines.datasetops import range_partitioned_write

    mine = range_partitioned_write(SF).sort_values("part")
    prev_hi = None
    for _, r in mine.iterrows():
        assert r["min_user"] <= r["max_user"]
        if prev_hi is not None:
            assert r["min_user"] > prev_hi or r["min_user"] >= prev_hi
            # strict disjointness: a user lives in exactly one partition
            assert r["min_user"] > prev_hi
        prev_hi = r["max_user"]


def test_range_partition_dirs_on_disk(ray_session):
    from pdfrust_ray.pipelines.datasetops import range_partitioned_write

    mine = range_partitioned_write(SF)
    out_dir = "/tmp/pdfrust_ray_rangepart_sf0.001"
    parts = sorted(p for p in os.listdir(out_dir) if p.startswith("range_part="))
    assert len(parts) == len(mine)
