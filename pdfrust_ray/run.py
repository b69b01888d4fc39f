"""Job entry point: `python -m pdfrust_ray.run --input ... --output ...`

The engine equivalent of the reference CLI (S2, main.rs:10-31): mode
selection --text/--chars/--font/--raw-content plus the pipeline knobs.
Designed as the `ray job submit` entrypoint; owns its Ray session
(guarded init, as the driver contract requires library code not to).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="pdfrust_ray.run", description=__doc__)
    ap.add_argument("--input", required=True, help="transcript parquet file/dir/glob")
    ap.add_argument("--output", required=True, help="output directory (partitioned)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--text", dest="mode", action="store_const", const="text")
    mode.add_argument("--chars", dest="mode", action="store_const", const="chars")
    mode.add_argument("--font", dest="mode", action="store_const", const="font")
    mode.add_argument("--raw-content", dest="mode", action="store_const", const="raw-content")
    ap.set_defaults(mode="text")
    ap.add_argument("--group-size", type=int, default=16, help="input shards per resumable group")
    ap.add_argument("--batch-size", type=int, default=512)
    ap.add_argument("--concurrency", type=int, default=None, help="max extraction actors")
    ap.add_argument("--no-resume", action="store_true", help="reprocess completed groups")
    ap.add_argument(
        "--spec-mode",
        action="store_true",
        help="ISO 32000-1 xref resolution for PDF 1.5+ payloads "
        "(xref streams / ObjStm / predictors) instead of reference bug-parity",
    )
    ap.add_argument("--num-cpus", type=int, default=None, help="ray.init num_cpus (local mode)")
    args = ap.parse_args(argv)

    from .session import start_session

    start_session(args.num_cpus)
    import ray

    from .pipelines.extract_pipeline import run_extraction

    metrics = run_extraction(
        args.input,
        args.output,
        mode=args.mode,
        group_size=args.group_size,
        batch_size=args.batch_size,
        concurrency=args.concurrency,
        resume=not args.no_resume,
        spec_mode=args.spec_mode,
    )
    print(json.dumps(metrics))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
