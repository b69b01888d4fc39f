#!/usr/bin/env python
"""sf1 scale probe (VERDICT r3 item #5): run the flagship extraction
over the 8M-row stress corpus plus the top-10 most expensive bench
cells over the 10x-tiled /tmp/sf1 tables, once, and print wall-times —
surfacing any super-linear tail the sf0.1 bench hides.

Usage: python tools/sf1_probe.py [--flagship-only | --ops-only]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from pdfrust_ray.fixtures.corpus import default_dir  # noqa: E402

SF1 = "/tmp/sf1"
STRESS = default_dir("stress")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count()))
# queries() names of the ten most expensive bench cells
SF1_CELLS = (
    "facility_location_selection",
    "clean_pack_pipeline",
    "order_priority_revenue",
    "supplier_butterflies",
    "order_price_reconciliation",
    "containment_dedup",
    "semantic_dedup",
    "events_value_rank_normalize",
    "events_band_join",
    "minhash_dedup",
)


def main(argv: list[str] | None = None) -> dict:
    ap = argparse.ArgumentParser(description="Time the flagship and the top bench cells at sf1.")
    only = ap.add_mutually_exclusive_group()
    only.add_argument("--flagship-only", action="store_true", help="skip the op cells")
    only.add_argument("--ops-only", action="store_true", help="skip the flagship extraction")
    args = ap.parse_args(argv)

    import ray

    from pdfrust_ray.session import start_session

    start_session(NUM_CPUS)

    out: dict = {"num_cpus": NUM_CPUS, "sf1_dir": SF1}

    if not args.ops_only:
        import shutil

        from pdfrust_ray.pipelines.extract_pipeline import run_extraction

        outdir = "/tmp/sf1_probe_out"
        shutil.rmtree(outdir, ignore_errors=True)
        t0 = time.perf_counter()
        m = run_extraction(
            os.path.join(STRESS, "shards"),
            outdir,
            mode="text",
            group_size=64,
        )
        out["flagship"] = {
            "rows": m["rows"],
            "wall_sec": round(time.perf_counter() - t0, 2),
            "turns_per_sec": m["turns_per_sec"],
            "rows_error": m["rows_error"],
        }
        print(json.dumps(out["flagship"]), flush=True)

    if not args.flagship_only:
        import __ray_entry__ as entry

        queries = entry.queries()
        ops = {}
        for name in SF1_CELLS:
            t0 = time.perf_counter()
            try:
                r = queries[name](SF1)
                ops[name] = {
                    "sec": round(time.perf_counter() - t0, 2),
                    "rows": int(len(r)),
                }
            except Exception as exc:  # record, keep probing
                ops[name] = {
                    "sec": round(time.perf_counter() - t0, 2),
                    "err": f"{type(exc).__name__}: {exc}"[:200],
                }
            print(name, ops[name], flush=True)
        out["ops"] = ops

    ray.shutdown()
    print(json.dumps(out))
    return out


if __name__ == "__main__":
    main()
