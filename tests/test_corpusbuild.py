"""The grand capstone: extraction -> quality -> dedup -> pack, with
its chained golden-anchored twin and pipeline invariants."""

import duckdb
import pandas as pd
import pytest
from tools.contract_check import compare_twin


@pytest.fixture(scope="module")
def built(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.corpusbuild import corpus_build_from_extracted
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from pdfrust_ray.sources.transcripts import read_transcripts

    d = ensure_corpus("t2")
    return d, corpus_build_from_extracted(
        build_extraction(read_transcripts(d), order=False)
    )


def test_chained_twin_exact(built):
    from pdfrust_ray.pipelines.corpusbuild import corpus_build_from_extracted_sql

    d, mine = built
    con = duckdb.connect()
    compare_twin(mine, con, corpus_build_from_extracted_sql(f"{d}/golden.parquet"))
    assert len(mine) > 0


def test_pack_invariants(built):
    _, mine = built
    # within every (bucket, pack): positions are 0..k-1 in
    # (conv_id, turn_idx) order, and token sums respect the budget
    # unless the pack is a single oversized turn
    for (_, _), g in mine.groupby(["bucket", "pack_id"]):
        g = g.sort_values(["conv_id", "turn_idx"])
        assert list(g["pack_pos"]) == list(range(len(g)))
        if len(g) > 1:
            assert int(g["n_tokens"].sum()) <= 256


def test_dedup_and_filter_semantics(built, ray_session):
    """Survivors are exactly: ok, non-empty, quality >= 0.30, first
    occurrence of their text by (conv_id, turn_idx)."""
    import pyarrow.parquet as pq

    from pdfrust_ray.functions.textstats import quality_score

    d, mine = built
    g = pq.read_table(f"{d}/golden.parquet").to_pandas()
    g = g[(g["parse_status"] == "ok") & (g["extracted_text"] != "")].copy()
    g["q"] = g["extracted_text"].map(quality_score)
    g = g[g["q"] >= 0.30]
    g = g.sort_values(["conv_id", "turn_idx"]).drop_duplicates(
        "extracted_text", keep="first"
    )
    want = set(zip(g["conv_id"], g["turn_idx"].astype(int)))
    got = set(zip(mine["conv_id"], mine["turn_idx"].astype(int)))
    assert got == want


def test_run_corpus_build_resumable(built, ray_session, tmp_path):
    """The deployable three-stage build: output matches the query op,
    a clean re-run resumes everything, and a crashed pack bucket
    (data without manifest) is redone idempotently."""
    import glob
    import os
    import shutil

    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.corpusbuild import run_corpus_build
    from pdfrust_ray.state import manifest

    d, want = built
    out = str(tmp_path / "build")
    m1 = run_corpus_build(d, out, concurrency=2)
    assert m1["rows_kept"] == len(want)
    assert m1["buckets_rebuilt"] == list(range(16))

    got = (
        pq.ParquetDataset(
            sorted(glob.glob(os.path.join(out, "stage_pack", "group=*", "*.parquet")))
        )
        .read()
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)[list(want.columns)]
    )
    import pandas as pd

    pd.testing.assert_frame_equal(
        got, want.reset_index(drop=True), check_dtype=False
    )

    # clean re-run: everything resumes, nothing rebuilt
    m2 = run_corpus_build(d, out, concurrency=2)
    assert m2["dedup_resumed"] and m2["buckets_rebuilt"] == []
    assert m2["packs_total"] == m1["packs_total"]

    # crash simulation: bucket 3's data present but manifest missing
    os.remove(manifest.manifest_path(os.path.join(out, "stage_pack"), 3))
    m3 = run_corpus_build(d, out, concurrency=2)
    assert m3["buckets_rebuilt"] == [3]
    got3 = (
        pq.ParquetDataset(
            sorted(glob.glob(os.path.join(out, "stage_pack", "group=*", "*.parquet")))
        )
        .read()
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)[list(want.columns)]
    )
    pd.testing.assert_frame_equal(
        got3, want.reset_index(drop=True), check_dtype=False
    )

    # a resumed run with another budget refuses the committed packs
    with pytest.raises(ValueError, match="budget=256, not 128; resume=False"):
        run_corpus_build(d, out, budget=128, concurrency=2)
    m5 = run_corpus_build(d, out, budget=128, concurrency=2, resume=False)
    assert m5["buckets_rebuilt"] == list(range(16))
    assert m5["packs_total"] > m1["packs_total"]
    got5 = _packed(out)
    keys = ["conv_id", "turn_idx", "bucket"]
    assert got5[keys].equals(got[keys])
    for _, g in got5.groupby(["bucket", "pack_id"]):
        assert len(g) == 1 or int(g["n_tokens"].sum()) <= 128

    # resume=False rebuilds every stage from scratch
    shutil.rmtree(out)
    m4 = run_corpus_build(d, out, concurrency=2, resume=False)
    assert m4["buckets_rebuilt"] == list(range(16))


_INTS = {c: "int64" for c in ["turn_idx", "n_tokens", "bucket", "pack_id", "pack_pos"]}


def _packed(out):
    """Every committed pack row, in (conv_id, turn_idx) order."""
    import glob
    import os

    import pyarrow.parquet as pq

    files = sorted(glob.glob(os.path.join(out, "stage_pack", "group=*", "*.parquet")))
    df = pq.ParquetDataset(files).read().to_pandas()
    df = df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    return df[["conv_id", *_INTS]].astype(_INTS)


def _twin(d, **params):
    """The query form over the corpus's golden extraction (fast on t1)."""
    from pdfrust_ray.pipelines.corpusbuild import corpus_build_from_extracted_sql

    sql = corpus_build_from_extracted_sql(f"{d}/golden.parquet", **params)
    return duckdb.connect().execute(sql).fetchdf().astype(_INTS)


def test_empty_buckets_are_committed(ray_session, tmp_path):
    """More buckets than kept turns, or no kept turn at all: every
    bucket is committed, empty ones as empty groups, and the summary
    counts what the files hold."""
    import os

    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.corpusbuild import run_corpus_build
    from pdfrust_ray.state import manifest

    d = ensure_corpus("t1")
    out = str(tmp_path / "build")
    m = run_corpus_build(d, out, n_buckets=128, concurrency=2)
    got = _packed(out)
    assert got.equals(_twin(d, n_buckets=128))
    assert m["buckets_rebuilt"] == list(range(128))
    assert m["rows_kept"] == len(got)
    assert m["packs_total"] == len(got.groupby(["bucket", "pack_id"]))
    pack_dir = os.path.join(out, "stage_pack")
    assert manifest.completed_groups(pack_dir) == set(range(128))
    empty = set(range(128)) - set(got["bucket"])
    assert empty
    for b in empty:
        assert os.listdir(manifest.group_dir(pack_dir, b)) == []
    # a resumed run with another bucket count refuses the committed stages
    with pytest.raises(ValueError, match="n_buckets=128, not 16"):
        run_corpus_build(d, out, concurrency=2)

    none_kept = str(tmp_path / "none_kept")
    m = run_corpus_build(d, none_kept, quality_cut_centi=101, concurrency=2)
    assert (m["rows_kept"], m["packs_total"]) == (0, 0)
    assert m["buckets_rebuilt"] == list(range(16))
    assert manifest.completed_groups(os.path.join(none_kept, "stage_pack")) == set(range(16))


def test_stale_pack_tmp_is_not_committed(ray_session, tmp_path):
    """Leftovers of a crashed run in _tmp_pack_<b>/ are cleared before
    the pack execution, for buckets with rows and for empty ones."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.corpusbuild import run_corpus_build
    from pdfrust_ray.state import manifest

    d = ensure_corpus("t1")
    out = str(tmp_path / "build")
    run_corpus_build(d, out, n_buckets=128, concurrency=2)
    want = _packed(out)
    pack_dir = os.path.join(out, "stage_pack")
    full = int(want["bucket"].iloc[0])
    empty = min(set(range(128)) - set(want["bucket"]))
    junk = pa.table({"conv_id": ["junk"], **{c: [full if c == "bucket" else 0] for c in _INTS}})
    for b in (full, empty):
        os.remove(manifest.manifest_path(pack_dir, b))
        os.makedirs(os.path.join(out, f"_tmp_pack_{b}"), exist_ok=True)
        pq.write_table(junk, os.path.join(out, f"_tmp_pack_{b}", "junk.parquet"))
    m = run_corpus_build(d, out, n_buckets=128, concurrency=2)
    assert m["buckets_rebuilt"] == sorted((full, empty))
    assert not glob.glob(os.path.join(pack_dir, "group=*", "junk.parquet"))
    assert _packed(out).equals(want)


def test_conv_context_pack(ray_session):
    """Conversation-granularity packing: twin exact, conversations
    never split, budget respected for multi-conv packs."""
    import duckdb
    import pandas as pd

    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        conv_context_pack,
        conv_context_pack_sql,
    )

    d = ensure_corpus("t2")
    mine = conv_context_pack(d)
    con = duckdb.connect()
    compare_twin(mine, con, conv_context_pack_sql(f"{d}/shards/*.parquet"))
    # one row per conversation (never split)
    assert mine["conv_id"].is_unique
    for (_, _), g in mine.groupby(["bucket", "pack_id"]):
        assert list(g.sort_values("conv_id")["pack_pos"]) == list(range(len(g)))
        if len(g) > 1:
            assert int(g["n_tokens"].sum()) <= 2048
