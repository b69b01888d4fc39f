"""The benchmark's own test: every workload at a tiny scale, then the
checker fed tampered outputs, each of which it must catch.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import glob
import os
import shutil
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import run

run.prepare_env()  # the checkout on sys.path and on the workers' PYTHONPATH

import check  # noqa: E402
import gen  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def outputs():
    """Runs the three workloads once; yields workload -> (inputs, out dir)."""
    # Ray's socket paths must stay short: a fresh directory right under the temp root
    base = tempfile.mkdtemp(prefix="pb")
    session = run.Session(os.path.join(base, "r"))
    session.start()
    try:
        done = {}
        for w in gen.WORKLOADS:
            inputs = gen.generate(w, SEED, os.path.join(base, w, "in"), scale="tiny")
            out = os.path.join(base, w, "out")
            summary = run.call_workload(w, inputs.shard_dir, out)
            done[w] = (inputs, out, summary)
        yield done
    finally:
        session.stop()
        shutil.rmtree(base, ignore_errors=True)


def _check(workload, inputs, out, summary) -> check.Report:
    rep = check.Report()
    if workload == "build_with_dupes":
        check.check_build(inputs.turns, out, summary, rep)
    else:
        check.check_extraction(inputs.turns, out, rep)
    return rep


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_workload_passes_checks(outputs, workload):
    rep = _check(workload, *outputs[workload])
    assert rep.ok, rep.messages


def test_inputs_follow_the_seed():
    a = gen.make_turns("mixed_turns", 1, "tiny")
    assert gen.inputs_digest(a) == gen.inputs_digest(gen.make_turns("mixed_turns", 1, "tiny"))
    assert gen.inputs_digest(a) != gen.inputs_digest(gen.make_turns("mixed_turns", 2, "tiny"))
    kinds = [t.kind for t in a]
    assert (kinds.count("plain"), kinds.count("html"), kinds.count("pdf")) == (96, 72, 72)
    assert {t.status for t in a} == {"ok", *gen.ERROR_STATUS.values()}


def _tampered(outputs, workload, tmp_path, edit) -> tuple[check.Report, object]:
    """Copy a workload's output, apply `edit(files) -> key`, re-check."""
    inputs, out, summary = outputs[workload]
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    stage = os.path.join(copy, "stage_extract") if workload == "build_with_dupes" else copy
    files = sorted(glob.glob(os.path.join(stage, "group=*", "*.parquet")))
    key = edit(files, inputs)
    return _check(workload, inputs, copy, summary), key


def _rewrite(path, fn):
    t = pq.read_table(path)
    rows = t.to_pylist()
    out = fn(rows)
    pq.write_table(pa.Table.from_pylist(rows if out is None else out, schema=t.schema), path)


def _key(row):
    return (row["conv_id"], row["turn_idx"])


def test_catches_dropped_row(outputs, tmp_path):
    def edit(files, inputs):
        dropped = []
        _rewrite(files[0], lambda rows: dropped.append(_key(rows[3])) or rows[:3] + rows[4:])
        return dropped[0]

    rep, key = _tampered(outputs, "mixed_turns", tmp_path, edit)
    assert key in rep.failed


def test_catches_row_moved_across_files(outputs, tmp_path):
    def edit(files, inputs):
        assert len(files) >= 2
        moved = []
        _rewrite(files[0], lambda rows: moved.append(rows[0]) or rows[1:])
        _rewrite(files[-1], lambda rows: rows + moved)
        return _key(moved[0])

    rep, key = _tampered(outputs, "mixed_turns", tmp_path, edit)
    assert key in rep.failed


@pytest.mark.parametrize("kind", ["plain", "html", "pdf"])
def test_catches_altered_text(outputs, tmp_path, kind):
    def edit(files, inputs):
        by_key = {t.key: t for t in inputs.turns}
        hit = []

        def alter(rows):
            for r in rows:
                t = by_key[_key(r)]
                if not hit and t.kind == kind and t.status == "ok" and t.uid in r["extracted_text"]:
                    r["extracted_text"] = r["extracted_text"].replace(t.uid, "tampered")
                    hit.append(_key(r))

        for f in files:
            _rewrite(f, alter)
        return hit[0]

    rep, key = _tampered(outputs, "mixed_turns", tmp_path, edit)
    assert key in rep.failed


def test_catches_altered_resend(outputs, tmp_path):
    def edit(files, inputs):
        # an HTML re-send with text appended still passes every per-row
        # check; only the comparison with its source can catch it
        resent = {t.key for t in inputs.turns if t.copy_of >= 0 and t.kind == "html"}
        hit = []

        def alter(rows):
            for r in rows:
                if not hit and _key(r) in resent:
                    r["extracted_text"] += " appended"
                    hit.append(_key(r))

        for f in files:
            _rewrite(f, alter)
        return hit[0]

    rep, key = _tampered(outputs, "build_with_dupes", tmp_path, edit)
    assert key in rep.failed
    assert any("re-send differs" in m for m in rep.messages)
