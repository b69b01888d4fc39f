"""Seeded workload inputs and their per-turn expectations.

Every input is a pure function of (workload, seed, scale): payloads are
built from the fixture construct matrices (`fixtures.pdfgen`,
`fixtures.htmlgen`) with seeded uids, turns are scattered across shards
by a seeded permutation, and the expectations are derived from what the
generator wrote, never from the program's output.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

from pdfrust_ray.fixtures.htmlgen import HTML_CONSTRUCTS
from pdfrust_ray.fixtures.pdfgen import PDF_CONSTRUCTS, pdf_stress
from pdfrust_ray.functions.payload import encode_pdf_payload

WORKLOADS = ("mixed_turns", "large_pdfs", "build_with_dupes")

# error constructs and the parse_status each one must produce
ERROR_STATUS = {
    "pdf-badcmap": "error:CMapMiss",  # TJ code missing from the CMap
    "pdf-nofont": "error:Content",  # Tj before any Tf
    "pdf-corrupt": "error:Eof",  # truncated, no %%EOF
}
# ok constructs whose text does not carry the uid verbatim
NO_UID_CONSTRUCTS = frozenset({"pdf-hexodd", "pdf-lig"})
# script text every HTML construct carries and the strip must drop
HTML_SCRIPT_MARKERS = ("window.x", "document.write", "should never appear")
STRESS_PAGES = 14
STRESS_LINES = 48

PLAIN_TEMPLATES = (
    "plain note {uid}: the quick brown fox jumps over the lazy dog.",
    "user query {uid} about throughput and scaling of the pipeline.",
    "assistant answer {uid} with numbers 1, 2.5, -3e4 and a URL http://example.com/x.",
    "tool output {uid}\n  row1\trow2\n  done.",
    "{uid} short",
)

# scale -> workload -> sizes. "bench" is what run.py times; "tiny" is
# for the benchmark's own test.
SIZES = {
    "bench": {
        "mixed_turns": {"turns": 8000, "shards": 16},
        "large_pdfs": {"turns": 400, "stress": 8, "shards": 8},
        "build_with_dupes": {"turns": 4000, "shards": 16, "resend_pct": 20},
    },
    "tiny": {
        "mixed_turns": {"turns": 240, "shards": 6},
        "large_pdfs": {"turns": 40, "stress": 2, "shards": 2},
        "build_with_dupes": {"turns": 240, "shards": 6, "resend_pct": 20},
    },
}
# the warm-up input that set-up time ends with: fixed, not seeded
WARMUP = {"turns": 200, "shards": 2}
TURNS_PER_CONV = 10


@dataclass
class Turn:
    conv_id: str
    turn_idx: int
    kind: str  # plain | html | pdf
    construct: str  # plain | html-* | pdf-* | pdf-stress
    uid: str
    text: str  # the payload as written to the `text` column
    raw_len: int  # PDF bytes before the base85 bridge, else UTF-8 length
    status: str  # expected parse_status
    copy_of: int = -1  # index of the turn a re-send copies

    @property
    def key(self) -> tuple[str, int]:
        return (self.conv_id, self.turn_idx)


@dataclass
class Inputs:
    shard_dir: str
    turns: list[Turn]
    digest: str
    totals: dict


def _kind_plan(n: int, rng: random.Random) -> list[str]:
    """Exactly 4 : 3 : 3 plain / html / pdf, in seeded order."""
    n_plain = n * 4 // 10
    n_html = n * 3 // 10
    kinds = ["plain"] * n_plain + ["html"] * n_html + ["pdf"] * (n - n_plain - n_html)
    rng.shuffle(kinds)
    return kinds


def _ordinary(kind: str, ordinal: int, uid: str) -> tuple[str, str, int, str]:
    """(construct, payload, raw_len, expected status) of one ordinary turn;
    `ordinal` cycles the construct matrix of its kind."""
    if kind == "plain":
        text = PLAIN_TEMPLATES[ordinal % len(PLAIN_TEMPLATES)].format(uid=uid)
        return "plain", text, len(text.encode("utf-8")), "ok"
    if kind == "html":
        cid = HTML_IDS[ordinal % len(HTML_IDS)]
        text = HTML_CONSTRUCTS[cid](uid)
        return cid, text, len(text.encode("utf-8")), "ok"
    cid = PDF_IDS[ordinal % len(PDF_IDS)]
    raw = PDF_CONSTRUCTS[cid](uid)
    return cid, encode_pdf_payload(raw), len(raw), ERROR_STATUS.get(cid, "ok")


HTML_IDS = sorted(HTML_CONSTRUCTS)
PDF_IDS = sorted(PDF_CONSTRUCTS)


def _uid(rng: random.Random, seed: int, i: int) -> str:
    # [a-z0-9] only, so every construct's alphabet can render it
    return f"s{seed}n{i:06d}x{rng.getrandbits(32):08x}"


def make_turns(workload: str, seed: int, scale: str = "bench") -> list[Turn]:
    """The workload's turns in key order, with their expectations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES[scale][workload]
    rng = random.Random(f"{workload}:{seed}")
    n = size["turns"]
    kinds = _kind_plan(n, rng)
    stress_at = set()
    if workload == "large_pdfs":
        # oversized PDFs spread evenly, one per stride, at seeded offsets
        stride = n // size["stress"]
        stress_at = {k * stride + rng.randrange(stride) for k in range(size["stress"])}
    turns: list[Turn] = []
    seen = {"plain": 0, "html": 0, "pdf": 0}
    for i in range(n):
        conv_id = f"conv-{seed % 1000:03d}-{i // TURNS_PER_CONV:05d}"
        uid = _uid(rng, seed, i)
        if i in stress_at:
            raw = pdf_stress(uid, pages=STRESS_PAGES)
            text = encode_pdf_payload(raw)
            turns.append(Turn(conv_id, i % TURNS_PER_CONV, "pdf", "pdf-stress", uid, text, len(raw), "ok"))
            continue
        kind = kinds[i]
        cid, text, raw_len, status = _ordinary(kind, seen[kind], uid)
        seen[kind] += 1
        turns.append(Turn(conv_id, i % TURNS_PER_CONV, kind, cid, uid, text, raw_len, status))
    if workload == "build_with_dupes":
        # a fixed share of turns re-send an earlier turn's payload
        n_resend = n * size["resend_pct"] // 100
        for i in sorted(rng.sample(range(1, n), n_resend)):
            src = rng.randrange(i)
            while turns[src].copy_of >= 0:
                src = turns[src].copy_of
            s = turns[src]
            t = turns[i]
            turns[i] = Turn(t.conv_id, t.turn_idx, s.kind, s.construct, s.uid, s.text, s.raw_len, s.status, src)
    return turns


SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)


def write_shards(turns: list[Turn], shard_dir: str, n_shards: int, seed: int) -> None:
    """Scatter the turns across shards in a seeded order (not by conv)."""
    os.makedirs(shard_dir, exist_ok=True)
    order = list(range(len(turns)))
    random.Random(f"shards:{seed}").shuffle(order)
    for s in range(n_shards):
        rows = [turns[i] for i in order[s::n_shards]]
        table = pa.table(
            {
                "conv_id": [t.conv_id for t in rows],
                "turn_idx": [t.turn_idx for t in rows],
                "role": ["tool" if t.kind != "plain" else "user" for t in rows],
                "text": [t.text for t in rows],
                "tool": ["pdf_render" if t.kind == "pdf" else "" for t in rows],
                "ts": [1735689600_000000 + j for j in range(len(rows))],
            },
            schema=SCHEMA,
        )
        pq.write_table(table, os.path.join(shard_dir, f"part-{s:04d}.parquet"))


def inputs_digest(turns: list[Turn]) -> str:
    h = hashlib.sha256()
    for t in turns:
        h.update(f"{t.conv_id}\0{t.turn_idx}\0{t.status}\0{t.copy_of}\0".encode())
        h.update(t.text.encode("utf-8"))
    return h.hexdigest()[:16]


def totals(turns: list[Turn]) -> dict:
    return {
        "rows": len(turns),
        "rows_error": sum(t.status != "ok" for t in turns),
        "bytes_decoded": sum(t.raw_len for t in turns),
    }


def generate(workload: str, seed: int, base_dir: str, scale: str = "bench") -> Inputs:
    turns = make_turns(workload, seed, scale)
    shard_dir = os.path.join(base_dir, "shards")
    write_shards(turns, shard_dir, SIZES[scale][workload]["shards"], seed)
    return Inputs(shard_dir, turns, inputs_digest(turns), totals(turns))


def generate_warmup(base_dir: str) -> str:
    """The fixed set-up input: mixed turns, the same on every run."""
    rng = random.Random("warmup")
    kinds = _kind_plan(WARMUP["turns"], rng)
    seen = {"plain": 0, "html": 0, "pdf": 0}
    turns = []
    for i, kind in enumerate(kinds):
        uid = f"warm{i:05d}"
        cid, text, raw_len, status = _ordinary(kind, seen[kind], uid)
        seen[kind] += 1
        turns.append(Turn(f"warm-{i // TURNS_PER_CONV:04d}", i % TURNS_PER_CONV, kind, cid, uid, text, raw_len, status))
    shard_dir = os.path.join(base_dir, "shards")
    write_shards(turns, shard_dir, WARMUP["shards"], 0)
    return shard_dir

