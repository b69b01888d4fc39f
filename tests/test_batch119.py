"""Batch-119: prefix-discrepancy scan, Walker alias sampling table."""

import collections

import duckdb
import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_source_prefix_discrepancy_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        source_prefix_discrepancy,
        source_prefix_discrepancy_sql,
    )

    mine = source_prefix_discrepancy(SF)
    compare_twin(mine, con, source_prefix_discrepancy_sql())
    # deviation at the full prefix is 0, so max is attained strictly inside
    n = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert (mine["at_prefix"] < n).all()
    assert (mine["max_dev"] > 0).all()


def test_source_prefix_discrepancy_bucket_invariance(ray_session):
    # stitched scan must not depend on the bucket width
    from pdfrust_ray.pipelines.relational import source_prefix_discrepancy

    a = source_prefix_discrepancy(SF, n_buckets=4)
    b = source_prefix_discrepancy(SF, n_buckets=64)
    pd.testing.assert_frame_equal(a, b)


def test_alias_table_mass_certificate(ray_session):
    from pdfrust_ray.pipelines.relational import type_alias_sampling_table

    out = type_alias_sampling_table(SF)
    K = len(out)
    N = int(out["cut_den"].iloc[0])
    con = duckdb.connect()
    rows = con.execute(
        f"SELECT COUNT(*) FROM read_parquet('{SF}/events.parquet')"
    ).fetchone()[0]
    assert N == rows
    # every slot's threshold is within [0, N]
    assert out["cut_num"].between(0, N).all()
    # EXACT mass reconstruction: primary below the cut + alias above it
    mass = collections.Counter()
    for _, r in out.iterrows():
        mass[r["event_type"]] += int(r["cut_num"])
        mass[r["alias_type"]] += N - int(r["cut_num"])
    for _, r in out.iterrows():
        assert mass[r["event_type"]] == int(r["n"]) * K
    # counts reconcile with the table
    assert int(out["n"].sum()) == rows


def test_alias_table_is_deterministic(ray_session):
    from pdfrust_ray.pipelines.relational import type_alias_sampling_table

    a = type_alias_sampling_table(SF)
    b = type_alias_sampling_table(SF)
    pd.testing.assert_frame_equal(a, b)
