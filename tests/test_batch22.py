"""Batch-22 ops: extraction error taxonomy, shuffle integrity,
cross-format union."""

import duckdb
import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_shuffle_integrity_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import shuffle_integrity, shuffle_integrity_sql

    mine = shuffle_integrity(SF)
    assert int(mine["n_events"].sum()) == 1000
    compare_twin(mine, con, shuffle_integrity_sql())


def test_shuffle_integrity_seed_invariant(ray_session):
    # content invariant holds for any seed (the output ignores order)
    from pdfrust_ray.pipelines.relational import shuffle_integrity

    a = shuffle_integrity(SF, seed=1)
    b = shuffle_integrity(SF, seed=999)
    pd.testing.assert_frame_equal(a, b)


def test_multisource_events_union_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        multisource_events_union,
        multisource_events_union_sql,
    )

    mine = multisource_events_union(SF)
    assert int(mine["n_events"].sum()) == 1000  # nothing lost at the seam
    compare_twin(mine, con, multisource_events_union_sql())


def test_payload_error_taxonomy_oracle(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        payload_error_taxonomy,
        payload_error_taxonomy_sql,
    )
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from pdfrust_ray.sources.transcripts import read_transcripts

    d = ensure_corpus("t2")
    ds = build_extraction(read_transcripts(d), mode="text", batch_size=64, concurrency=4)
    mine = payload_error_taxonomy(ds)
    # both formats and both status classes appear on the fixture
    assert set(mine["payload_kind"].unique()) >= {"pdf", "html"}
    assert (mine["parse_status"] == "ok").any()
    assert (mine["parse_status"] != "ok").any()
    c = duckdb.connect()
    compare_twin(mine, c, payload_error_taxonomy_sql(f"{d}/golden.parquet"))
