"""Output checks made apart from the program.

Each check compares what the program wrote against what the generator
put in (gen.Turn expectations). A turn fails when its output row is
missing, doubled, or fails a check; checks on whole runs (manifest sums,
build summary) that do not point at one turn are reported as errors.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
from collections import Counter
from dataclasses import dataclass, field

import pyarrow.parquet as pq

from gen import HTML_SCRIPT_MARKERS, NO_UID_CONSTRUCTS, STRESS_LINES, STRESS_PAGES, Turn, totals

ROW_COLS = ["conv_id", "turn_idx", "payload_kind", "extracted_text", "parse_status", "n_pages", "bytes_decoded", "error"]
PACK_BUDGET = 256
N_BUCKETS = 16


@dataclass
class Report:
    failed: set = field(default_factory=set)  # keys of failed turns
    errors: list = field(default_factory=list)  # failed checks on a whole run
    messages: list = field(default_factory=list)  # the first few, for the log

    def fail(self, key, why: str) -> None:
        self.failed.add(key)
        self._note(f"{key}: {why}")

    def error(self, why: str) -> None:
        self.errors.append(why)
        self._note(why)

    def _note(self, msg: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(msg)

    @property
    def ok(self) -> bool:
        return not self.failed and not self.errors


def read_groups(out_dir: str) -> dict[str, list[list[dict]]]:
    """group dir name -> its files' rows, in file-name order."""
    groups = {}
    for gdir in sorted(glob.glob(os.path.join(out_dir, "group=*"))):
        files = sorted(glob.glob(os.path.join(gdir, "*.parquet")))
        groups[os.path.basename(gdir)] = [pq.read_table(f, columns=ROW_COLS).to_pylist() for f in files]
    return groups


def check_extraction(turns: list[Turn], out_dir: str, rep: Report) -> dict:
    """Row set, order, every row, and the manifests. Returns key -> row."""
    rows: dict = {}
    seen = Counter()
    for gname, files in read_groups(out_dir).items():
        spans = []
        for fi, frows in enumerate(files):
            keys = [(r["conv_id"], r["turn_idx"]) for r in frows]
            for i in range(1, len(keys)):
                if keys[i] <= keys[i - 1]:
                    rep.fail(keys[i], f"out of order in {gname} file {fi}")
            if keys:
                spans.append((min(keys), max(keys), fi, keys))
            for k, r in zip(keys, frows):
                seen[k] += 1
                rows[k] = r
        spans.sort()
        for (lo_a, hi_a, fa, _), (lo_b, hi_b, fb, keys_b) in zip(spans, spans[1:]):
            if lo_b <= hi_a:
                for k in keys_b:
                    if k <= hi_a:
                        rep.fail(k, f"key range of {gname} file {fb} overlaps file {fa}")
    expected = {t.key for t in turns}
    for k, n in seen.items():
        if k not in expected:
            rep.fail(k, "row for a turn that was never sent")
        elif n > 1:
            rep.fail(k, f"row written {n} times")
    for t in turns:
        r = rows.get(t.key)
        if r is None:
            rep.fail(t.key, "row missing")
            continue
        why = _row_problem(t, r)
        if why:
            rep.fail(t.key, why)
    _check_manifests(turns, out_dir, rep)
    return rows


def _row_problem(t: Turn, r: dict) -> str | None:
    if r["payload_kind"] != t.kind:
        return f"payload_kind {r['payload_kind']!r} != {t.kind!r}"
    if r["parse_status"] != t.status:
        return f"parse_status {r['parse_status']!r} != {t.status!r} ({t.construct})"
    if r["bytes_decoded"] != t.raw_len:
        return f"bytes_decoded {r['bytes_decoded']} != {t.raw_len}"
    text = r["extracted_text"]
    if t.status != "ok":
        return "error row carries text" if text else None
    if t.kind == "plain":
        return None if text == t.text else "plain text not returned byte for byte"
    if t.construct == "pdf-stress":
        marks = Counter(re.findall(rf"stress {t.uid} page(\d+) line(\d+) ", text))
        want = {(str(p), str(ln)) for p in range(STRESS_PAGES) for ln in range(STRESS_LINES)}
        if set(marks) != want or any(n != 1 for n in marks.values()):
            return f"stress markers: {len(marks)} distinct of {len(want)}"
        return None
    if t.construct not in NO_UID_CONSTRUCTS and t.uid not in text:
        return f"uid missing from {t.construct} text"
    if not text:
        return "empty text on an ok row"
    if t.kind == "html" and any(m in text for m in HTML_SCRIPT_MARKERS):
        return "script text leaked into html extraction"
    return None


def _read_manifests(stage_dir: str) -> list[dict]:
    out = []
    for path in sorted(glob.glob(os.path.join(stage_dir, "_manifests", "group-*.json"))):
        with open(path) as f:
            out.append(json.load(f))
    return out


def _check_manifests(turns: list[Turn], out_dir: str, rep: Report) -> None:
    ms = _read_manifests(out_dir)
    for name, value in totals(turns).items():
        got = sum(m.get(name, 0) for m in ms)
        if got != value:
            rep.error(f"manifest {name} sum {got} != generated {value}")


def check_build(turns: list[Turn], out_dir: str, summary: dict, rep: Report) -> None:
    """run_corpus_build: its extraction stage plus dedup and packing."""
    rows = check_extraction(turns, os.path.join(out_dir, "stage_extract"), rep)
    by_key = {t.key: t for t in turns}
    for t in turns:
        if t.copy_of < 0:
            continue
        src = turns[t.copy_of]
        a, b = rows.get(t.key), rows.get(src.key)
        if a is None or b is None:
            continue  # already failed as missing
        if any(a[c] != b[c] for c in ROW_COLS[2:]):
            rep.fail(t.key, f"re-send differs from its source {src.key}")

    # first (lowest-key) ok row of every distinct text: dedup keeps it
    first_of_text = {}
    for k in sorted(rows):
        r = rows[k]
        if r["parse_status"] == "ok" and r["extracted_text"]:
            first_of_text.setdefault(r["extracted_text"], k)

    packed_texts = {}
    n_rows = n_packs = 0
    for gdir in sorted(glob.glob(os.path.join(out_dir, "stage_pack", "group=*"))):
        bucket = int(os.path.basename(gdir).split("=")[1])
        prows = []
        for f in sorted(glob.glob(os.path.join(gdir, "*.parquet"))):
            prows.extend(pq.read_table(f).to_pylist())
        prows.sort(key=lambda p: (p["pack_id"], p["pack_pos"]))
        n_rows += len(prows)
        n_packs += len({p["pack_id"] for p in prows})
        _check_bucket(bucket, prows, rows, by_key, first_of_text, packed_texts, rep)
    if summary.get("rows_kept") != n_rows:
        rep.error(f"rows_kept {summary.get('rows_kept')} != {n_rows} packed rows")
    if summary.get("packs_total") != n_packs:
        rep.error(f"packs_total {summary.get('packs_total')} != {n_packs} packs in files")


def _check_bucket(bucket, prows, rows, by_key, first_of_text, packed_texts, rep: Report) -> None:
    prev_key, pack_id, acc, pos = None, 0, 0, 0
    for p in prows:
        key = (p["conv_id"], int(p["turn_idx"]))
        r = rows.get(key)
        t = by_key.get(key)
        if r is None or t is None:
            rep.error(f"packed row {key} has no extraction row")
            continue
        text = r["extracted_text"]
        if r["parse_status"] != "ok" or not text:
            rep.fail(key, "packed row is not an ok, non-empty extraction")
        if t.copy_of >= 0:
            rep.fail(key, "re-sent turn was packed")
        if text in packed_texts:
            rep.fail(key, f"text already packed for {packed_texts[text]}")
        packed_texts[text] = key
        if first_of_text.get(text) != key:
            rep.fail(key, f"dedup kept {key}, not the first turn {first_of_text.get(text)}")
        h = int(hashlib.md5(f"{key[0]}:{key[1]}".encode()).hexdigest()[:8], 16)
        if p["bucket"] != bucket or h % N_BUCKETS != bucket:
            rep.fail(key, f"packed into bucket {p['bucket']} under group {bucket}")
        if prev_key is not None and key <= prev_key:
            rep.fail(key, "packs do not follow (conv_id, turn_idx) order")
        prev_key = key
        n = int(p["n_tokens"])
        # greedy packing: a new pack starts exactly when the budget would overflow
        if acc > 0 and acc + n > PACK_BUDGET:
            pack_id, acc, pos = pack_id + 1, 0, 0
        acc += n
        if (p["pack_id"], p["pack_pos"]) != (pack_id, pos):
            rep.fail(key, f"pack {p['pack_id']}/{p['pack_pos']} != greedy {pack_id}/{pos}")
            pack_id, pos = p["pack_id"], p["pack_pos"]
        if acc > PACK_BUDGET and pos > 0:
            rep.fail(key, f"pack {pack_id} holds {acc} tokens > {PACK_BUDGET}")
        pos += 1
