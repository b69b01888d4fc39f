"""End-to-end Ray pipeline tests: per-turn golden equality, ordering,
resume, and the ops pipelines. One shared Ray session (conftest)."""

import glob
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from pdfrust_ray.fixtures.corpus import ensure_corpus


@pytest.fixture(scope="session")
def t1_dir():
    return ensure_corpus("t1")


def _read_group_output(out_dir):
    parts = sorted(glob.glob(os.path.join(out_dir, "group=*", "*.parquet")))
    return pa.concat_tables([pq.read_table(p) for p in parts])


def test_pipeline_matches_golden(ray_session, t1_dir, tmp_path):
    from pdfrust_ray.pipelines.extract_pipeline import run_extraction

    out = str(tmp_path / "out")
    metrics = run_extraction(t1_dir, out, group_size=1, concurrency=2, batch_size=16)
    golden = pq.read_table(os.path.join(t1_dir, "golden.parquet"))
    got = _read_group_output(out).select(golden.column_names)
    got = got.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert got.num_rows == golden.num_rows == metrics["rows"]
    for col in golden.column_names:
        assert got[col].to_pylist() == golden[col].to_pylist(), f"column {col} differs"


def _assert_matches_golden(out, t1_dir):
    golden = pq.read_table(os.path.join(t1_dir, "golden.parquet"))
    got = _read_group_output(out).select(golden.column_names)
    got = got.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert got.num_rows == golden.num_rows
    for col in golden.column_names:
        assert got[col].to_pylist() == golden[col].to_pylist(), f"column {col} differs"


def test_default_pool_matches_golden(ray_session, t1_dir, tmp_path):
    # concurrency=None sizes the ExtractTurns pool from the cluster
    from pdfrust_ray.pipelines.extract_pipeline import run_extraction

    out = str(tmp_path / "out")
    run_extraction(t1_dir, out)
    _assert_matches_golden(out, t1_dir)


def test_plan_is_read_extract_sort(ray_session, t1_dir):
    # one ExtractTurns pool straight off the pruned read, then the sort
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from pdfrust_ray.sources.transcripts import read_transcripts

    op = build_extraction(read_transcripts(t1_dir))._logical_plan.dag
    names = []
    while op is not None:
        names.append(op.name)
        deps = op.input_dependencies
        assert len(deps) <= 1, f"{op.name} joins {len(deps)} inputs"
        op = deps[0] if deps else None
    assert names == ["Sort", "Repartition", "MapBatches(ExtractTurns)", "ReadParquet"]


def test_cli_defaults_finish_and_match_golden(t1_dir, tmp_path):
    """`python -m pdfrust_ray.run` with its default plan, in its own Ray
    session at 2 CPUs and under a PYTHONPATH that lacks the repo, ends
    within 60 s and writes the golden rows. Its whole process group is
    killed afterwards, so a hung run leaves no Ray processes behind."""
    import signal
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = str(tmp_path / "out")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pdfrust_ray.run", "--input", t1_dir, "--output", out, "--num-cpus", "2"],
        cwd=repo,
        env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        err = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if err is None:
        proc.communicate()
        pytest.fail("pdfrust_ray.run did not finish within 60 s")
    assert proc.returncode == 0, err[-2000:]
    _assert_matches_golden(out, t1_dir)


def test_pipeline_output_sorted_within_group(ray_session, t1_dir, tmp_path):
    from pdfrust_ray.pipelines.extract_pipeline import run_extraction

    out = str(tmp_path / "out")
    run_extraction(t1_dir, out, group_size=1, concurrency=2)
    got = _read_group_output(out)
    keys = list(zip(got["conv_id"].to_pylist(), got["turn_idx"].to_pylist()))
    assert keys == sorted(keys)


def test_resume_skips_completed_groups(ray_session, t1_dir, tmp_path):
    from pdfrust_ray.pipelines.extract_pipeline import run_extraction

    out = str(tmp_path / "out")
    m1 = run_extraction(t1_dir, out, group_size=1, concurrency=2)
    assert m1["groups_skipped_resume"] == 0
    m2 = run_extraction(t1_dir, out, group_size=1, concurrency=2)
    assert m2["groups_skipped_resume"] == m1["groups"]
    assert m2["rows"] == m1["rows"]  # manifests still account for all rows


def test_manifest_lineage(ray_session, t1_dir, tmp_path):
    from pdfrust_ray.pipelines.extract_pipeline import run_extraction
    from pdfrust_ray.state import manifest

    out = str(tmp_path / "out")
    run_extraction(t1_dir, out, group_size=1, concurrency=2)
    ms = manifest.read_all(out)
    assert ms, "manifests written"
    for m in ms:
        assert m["inputs"] and all(os.path.exists(p) for p in m["inputs"])
        assert m["rows"] == m["rows_ok"] + m["rows_error"]
        assert "engine_version" in m and "duration_sec" in m


def test_modes_pipeline(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_modes_fixture
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from pdfrust_ray.sources.transcripts import read_transcripts

    d = ensure_modes_fixture()
    golden = pq.read_table(os.path.join(d, "golden_modes.parquet"))
    for mode in ("chars", "font", "raw-content"):
        ds = read_transcripts(d)
        out = build_extraction(ds, mode=mode, batch_size=4, concurrency=2)
        got = out.select_columns(["conv_id", "turn_idx", "extracted_text", "parse_status"]).to_pandas()
        exp = golden.filter(pa.compute.equal(golden["mode"], mode)).to_pandas()
        exp = exp[["conv_id", "turn_idx", "extracted_text", "parse_status"]].reset_index(drop=True)
        assert got.reset_index(drop=True).equals(exp), f"mode {mode} differs"


def test_info_pipeline(ray_session):
    import pandas as pd

    from pdfrust_ray.fixtures.corpus import ensure_modes_fixture
    from pdfrust_ray.sources.transcripts import read_transcripts
    from pdfrust_ray.stages.extractors import InfoTurns

    d = ensure_modes_fixture()
    ds = read_transcripts(d)
    got = (
        ds.map_batches(InfoTurns, batch_format="pyarrow", batch_size=8, concurrency=(1, 2))
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    exp = pd.read_parquet(os.path.join(d, "golden_info.parquet"))
    exp = exp.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert got.equals(exp)


def test_reference_corpus_through_pipeline(ray_session, tmp_path):
    """The reference's own PDFs, carried as transcript payloads through
    the full Ray pipeline, must extract exactly like direct library
    calls (which are pinned byte-identical to the reference binary)."""
    import glob

    import pyarrow as pa

    from pdfrust_ray.functions.payload import encode_pdf_payload, extract_row
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from tests.conftest import REFERENCE_DATA

    pdfs = sorted(glob.glob(os.path.join(REFERENCE_DATA, "*.pdf")))
    if not pdfs:
        import pytest as _pytest

        _pytest.skip("reference corpus not available")
    rows = []
    for i, path in enumerate(pdfs):
        with open(path, "rb") as f:
            carrier = encode_pdf_payload(f.read())
        rows.append(
            {
                "conv_id": f"conv-{i:06d}",
                "turn_idx": 0,
                "role": "tool",
                "text": carrier,
                "tool": "pdf_render",
                "ts": 1735689600_000000,
            }
        )
    import pyarrow.parquet as _pq

    from pdfrust_ray.fixtures.corpus import TRANSCRIPTS_SCHEMA

    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    _pq.write_table(
        pa.Table.from_pylist(rows, schema=TRANSCRIPTS_SCHEMA), str(shard_dir / "part-0000.parquet")
    )
    import ray.data as rd

    ds = rd.read_parquet(str(shard_dir / "part-0000.parquet"), columns=["conv_id", "turn_idx", "text"])
    got = (
        build_extraction(ds, batch_size=2, concurrency=2)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    for i, row in got.iterrows():
        expected = extract_row(rows[i]["text"])
        assert row["extracted_text"] == expected["extracted_text"], pdfs[i]
        assert row["parse_status"] == expected["parse_status"], pdfs[i]
    # tracemonkey (1 MB, 14 pages) must be among the ok rows
    assert (got["parse_status"] == "ok").sum() >= 5


def test_output_deterministic_across_parallelism(ray_session, t1_dir, tmp_path):
    """Identical rows AND identical order regardless of concurrency —
    the 'stable turn ordering under arbitrary parallelism' guarantee."""
    from pdfrust_ray.pipelines.extract_pipeline import run_extraction

    outs = []
    for conc, bs in ((1, 7), (4, 64)):
        out = str(tmp_path / f"o{conc}")
        run_extraction(t1_dir, out, group_size=1, concurrency=conc, batch_size=bs)
        t = _read_group_output(out)
        outs.append(t.to_pydict())
    assert outs[0] == outs[1]


def test_spec15_pipeline_matches_golden(ray_session):
    """PDF 1.5 spec-mode pipeline (spec_mode=True actor pools) equals
    the serially-computed spec golden per (conv_id, turn_idx)."""
    from pdfrust_ray.fixtures.corpus import ensure_spec15_fixture
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from pdfrust_ray.sources.transcripts import read_transcripts

    d = ensure_spec15_fixture()
    ds = read_transcripts(d)
    out = build_extraction(ds, mode="text", batch_size=16, concurrency=2, spec_mode=True)
    golden = pq.read_table(os.path.join(d, "golden.parquet"))
    got = out.to_pandas()
    got = got[golden.column_names].reset_index(drop=True)
    assert len(got) == golden.num_rows
    # spec payloads must actually extract (not be error rows)
    assert (got["parse_status"] == "ok").sum() >= 60
    for col in golden.column_names:
        assert got[col].tolist() == golden[col].to_pylist(), f"column {col} differs"


def test_resume_redoes_crashed_partial_group(ray_session, t1_dir, tmp_path):
    """Manifest-last protocol: a group directory whose data was written
    but whose manifest never landed (simulated crash between the two
    writes) must be reprocessed on resume, and the redo must be
    idempotent — final output identical to an uninterrupted run."""
    import json

    from pdfrust_ray.pipelines.extract_pipeline import run_extraction

    out = str(tmp_path / "out")
    m1 = run_extraction(t1_dir, out, group_size=1, concurrency=2)
    # simulate a crash on group 0: manifest gone, data (possibly partial) left
    manifests = sorted(glob.glob(os.path.join(out, "_manifests", "*.json")))
    victim = manifests[0]
    gid = json.load(open(victim))["group_id"]
    os.unlink(victim)
    # also corrupt the group's data dir to prove it gets rewritten
    parts = glob.glob(os.path.join(out, f"group={gid:04d}", "*.parquet"))
    assert parts
    os.unlink(parts[0])
    m2 = run_extraction(t1_dir, out, group_size=1, concurrency=2)
    assert m2["groups_skipped_resume"] == m1["groups"] - 1
    got = _read_group_output(out)
    golden = pq.read_table(os.path.join(t1_dir, "golden.parquet"))
    got = got.select(golden.column_names).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    assert got.num_rows == golden.num_rows
    for col in golden.column_names:
        assert got[col].to_pylist() == golden[col].to_pylist(), f"column {col} differs"
