"""Batch-171: bytes-based sort partitioning for the flagship ordering
shuffle, and the gated unique-mask cap of charset_best_match."""

import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def test_bytes_based_sort_partitions(ray_session):
    from ray.data.context import DataContext

    from pdfrust_ray.pipelines.extract_pipeline import (
        MAX_SORT_PARTITIONS,
        _bytes_based_sort_partitions,
        _default_sort_partitions,
    )

    cpu_based = _default_sort_partitions()
    tgt = DataContext.get_current().target_max_block_size or (128 << 20)
    # unknown / empty size falls back to the CPU heuristic
    assert _bytes_based_sort_partitions(None) == cpu_based
    assert _bytes_based_sort_partitions(0) == cpu_based
    # small inputs still use every core
    assert _bytes_based_sort_partitions(1) == cpu_based
    # large inputs scale with bytes / target block size (ceil)
    assert _bytes_based_sort_partitions(100 * tgt) == max(100, cpu_based)
    assert _bytes_based_sort_partitions(100 * tgt + 1) == max(101, cpu_based)
    # and the partitions^2 metadata bound caps the count
    assert _bytes_based_sort_partitions(10**18) == MAX_SORT_PARTITIONS


def test_flagship_output_identical_across_partitionings(ray_session, monkeypatch):
    """Same output rows whether the sort partition count comes from the
    bytes-based default or is forced to 3 (the sort is a total order,
    so partitioning must not leak into results)."""
    import glob
    import os

    from pdfrust_ray.fixtures.corpus import ensure_modes_fixture
    from pdfrust_ray.pipelines import extract_pipeline
    from pdfrust_ray.sources.transcripts import read_transcripts

    d = ensure_modes_fixture()
    shards = sorted(glob.glob(os.path.join(d, "shards", "*.parquet")))
    a = extract_pipeline.build_extraction(read_transcripts(shards), concurrency=2).to_pandas()
    monkeypatch.setattr(extract_pipeline, "_bytes_based_sort_partitions", lambda _: 3)
    b = extract_pipeline.build_extraction(read_transcripts(shards), concurrency=2).to_pandas()
    pd.testing.assert_frame_equal(a, b)


def test_charset_cap_falls_back_to_lsh(ray_session):
    from pdfrust_ray.pipelines.textops import (
        charset_best_match,
        charset_best_match_lsh,
    )

    lsh = charset_best_match_lsh(SF)
    fallen = charset_best_match(SF, max_unique_masks=1, on_overflow="lsh")
    pd.testing.assert_frame_equal(fallen, lsh)


def test_charset_cap_raise_mode(ray_session):
    from pdfrust_ray.pipelines.textops import charset_best_match

    with pytest.raises(ValueError, match="unique masks exceed"):
        charset_best_match(SF, max_unique_masks=1, on_overflow="raise")


def test_charset_exact_unchanged_below_cap(ray_session):
    from pdfrust_ray.pipelines.textops import charset_best_match

    default = charset_best_match(SF)
    explicit = charset_best_match(SF, max_unique_masks=10**9)
    pd.testing.assert_frame_equal(default, explicit)
