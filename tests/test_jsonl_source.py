"""JSONL ingest source: same logical table, same extraction output as
the Parquet path."""

import json

import pandas as pd
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def jsonl_dir(tmp_path_factory):
    # convert the t1 fixture's parquet shards to JSONL (text payloads
    # are latin-1-safe strings; json round-trips them)
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.sources.transcripts import list_shards

    fix = ensure_corpus("t1")
    out = tmp_path_factory.mktemp("jsonl")
    for i, shard in enumerate(list_shards(fix)):
        t = pq.read_table(shard)
        with open(out / f"shard-{i:03d}.jsonl", "w") as f:
            for row in t.to_pylist():
                row["ts"] = row["ts"].strftime("%Y-%m-%dT%H:%M:%S.%f")
                f.write(json.dumps(row) + "\n")
    return str(out)


def test_jsonl_schema_matches_parquet(ray_session, jsonl_dir):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.sources.transcripts import (
        read_transcripts,
        read_transcripts_jsonl,
    )

    cols = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    pj = read_transcripts_jsonl(jsonl_dir, columns=cols).to_pandas()
    pp = read_transcripts(ensure_corpus("t1"), columns=cols).to_pandas()
    pj = pj.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    pp = pp.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(pj, pp)


def test_jsonl_drives_extraction_identically(ray_session, jsonl_dir, tmp_path):
    # the flagship extraction over the JSONL source must produce the
    # same per-turn text as the parquet source
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.sources.transcripts import (
        read_transcripts,
        read_transcripts_jsonl,
    )
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction

    def run(ds):
        out = build_extraction(ds, batch_size=64, order=False).to_pandas()
        return out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)

    a = run(read_transcripts_jsonl(jsonl_dir))
    b = run(read_transcripts(ensure_corpus("t1")))
    pd.testing.assert_frame_equal(a, b)
