#!/usr/bin/env python
"""sf1 scale probe (VERDICT r3 item #5): run the flagship extraction
over the 8M-row stress corpus plus the top-10 most expensive bench
cells over the 10x-tiled /tmp/sf1 tables, once, and print wall-times —
surfacing any super-linear tail the sf0.1 bench hides.

Usage: python tools/sf1_probe.py [--flagship-only | --ops-only]
"""

from __future__ import annotations

import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

SF1 = "/tmp/sf1"
STRESS = "/tmp/pdfrust_ray_fixtures/stress"
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def main() -> dict:
    import ray

    from pdfrust_ray.session import start_session

    start_session(NUM_CPUS)

    out: dict = {"num_cpus": NUM_CPUS, "sf1_dir": SF1}
    args = sys.argv[1:]

    if "--ops-only" not in args:
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

    if "--flagship-only" not in args:
        from pdfrust_ray.pipelines import graph
        from pdfrust_ray.pipelines import llmdata as llm
        from pdfrust_ray.pipelines import relational as rel
        from pdfrust_ray.pipelines import textops
        from pdfrust_ray.stages import dedup, similarity

        cells = {
            "facility_location_selection": lambda: similarity.facility_location_selection(SF1),
            "clean_pack_pipeline": lambda: llm.clean_pack_pipeline(SF1),
            "order_priority_revenue": lambda: rel.order_priority_revenue(SF1),
            "supplier_butterflies": lambda: graph.supplier_butterflies(SF1),
            "order_price_reconciliation": lambda: rel.order_price_reconciliation(SF1),
            "containment_dedup": lambda: dedup.containment_dedup(SF1),
            "semantic_dedup": lambda: dedup.semantic_dedup(SF1),
            "rank_normalize": lambda: rel.events_value_rank_normalize(SF1),
            "events_band_join": lambda: rel.events_band_join(SF1),
            "minhash_dedup": lambda: dedup.minhash_lsh_dedup(SF1),
        }
        ops = {}
        for name, fn in cells.items():
            t0 = time.perf_counter()
            try:
                r = fn()
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
