"""Job entry point for the end-to-end corpus build:
`python -m pdfrust_ray.run_build --input ... --output ...`

The `ray job submit` form of pipelines/corpusbuild.run_corpus_build —
three manifest-gated resumable stages (extract / dedup / pack); a
resume with other build parameters raises ValueError. Owns its Ray
session (guarded init, same contract as pdfrust_ray.run).
"""

from __future__ import annotations

import argparse
import json


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="pdfrust_ray.run_build", description=__doc__)
    ap.add_argument("--input", required=True, help="transcript corpus dir (shards/)")
    ap.add_argument("--output", required=True, help="build output dir (3 stages)")
    ap.add_argument("--quality-cut-centi", type=int, default=30)
    ap.add_argument("--budget", type=int, default=256, help="tokens per pack")
    ap.add_argument("--n-buckets", type=int, default=16, help="pack partitions")
    ap.add_argument("--group-size", type=int, default=16, help="extraction shards/group")
    ap.add_argument("--concurrency", type=int, default=None)
    ap.add_argument("--no-resume", action="store_true")
    ap.add_argument("--num-cpus", type=int, default=None)
    args = ap.parse_args(argv)

    from .session import start_session

    start_session(args.num_cpus)
    import ray

    from .pipelines.corpusbuild import run_corpus_build

    summary = run_corpus_build(
        args.input,
        args.output,
        quality_cut_centi=args.quality_cut_centi,
        budget=args.budget,
        n_buckets=args.n_buckets,
        concurrency=args.concurrency,
        resume=not args.no_resume,
        group_size=args.group_size,
    )
    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
