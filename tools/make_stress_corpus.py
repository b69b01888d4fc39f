#!/usr/bin/env python
"""Generate the 8M-row flagship stress corpus (10x bench) for the scale
probe: 200k convs x 40 turns of the same deterministic construct mix as
the bench fixture (incl. 1-in-1250 oversized payloads), written as 256
parquet shards under `shards/` of `fixtures.corpus.default_dir("stress")`
by parallel Ray tasks (one task per conv range; no golden — the probe
measures throughput, correctness is pinned at t1/t2 scales).

Usage: python tools/make_stress_corpus.py [n_convs] [out_base]
"""

from __future__ import annotations

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
os.environ["PYTHONPATH"] = REPO + os.pathsep + os.environ.get("PYTHONPATH", "")

from pdfrust_ray.fixtures.corpus import default_dir  # noqa: E402

N_TURNS = 40
STRESS_EVERY = 1250
SHARDS_PER_TASK = 8
CONVS_PER_TASK = 6250


def _task_rows(conv_lo: int, conv_hi: int):
    from pdfrust_ray.fixtures.corpus import _row, encode_pdf_payload
    from pdfrust_ray.fixtures.pdfgen import pdf_stress

    i = 0
    for conv in range(conv_lo, conv_hi):
        for turn in range(N_TURNS):
            i += 1
            if i % STRESS_EVERY == 0:
                conv_id = f"conv-{conv:06d}"
                uid = f"{conv_id}/{turn}"
                row = _row(conv, turn)
                row["text"] = encode_pdf_payload(pdf_stress(uid))
                row["tool"] = "pdf_render"
                yield row
            else:
                yield _row(conv, turn)


def main(n_convs: int = 200_000, base: str = default_dir("stress")):
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.fixtures.corpus import TRANSCRIPTS_SCHEMA

    shard_dir = os.path.join(base, "shards")
    os.makedirs(shard_dir, exist_ok=True)

    @ray.remote
    def gen(task_id: int, conv_lo: int, conv_hi: int) -> int:
        rows = list(_task_rows(conv_lo, conv_hi))
        n = 0
        per = (len(rows) + SHARDS_PER_TASK - 1) // SHARDS_PER_TASK
        for s in range(SHARDS_PER_TASK):
            chunk = rows[s * per : (s + 1) * per]
            if not chunk:
                continue
            t = pa.Table.from_pylist(chunk, schema=TRANSCRIPTS_SCHEMA)
            pq.write_table(
                t,
                os.path.join(
                    shard_dir, f"part-{task_id * SHARDS_PER_TASK + s:04d}.parquet"
                ),
            )
            n += len(chunk)
        return n

    futs = [
        gen.remote(tid, lo, min(lo + CONVS_PER_TASK, n_convs))
        for tid, lo in enumerate(range(0, n_convs, CONVS_PER_TASK))
    ]
    total = sum(ray.get(futs))
    print({"rows": total, "shards": len(futs) * SHARDS_PER_TASK, "dir": shard_dir})
    ray.shutdown()


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 200_000,
        sys.argv[2] if len(sys.argv) > 2 else default_dir("stress"),
    )
