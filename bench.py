#!/usr/bin/env python
"""Benchmark harness.

Plain run: executes the headline transcript-extraction pipeline over the
synthetic corpus scaled to $GRAFT_SF_DIR (default /root/testdata/sf0.1
-> the 100k-row "bench" fixture corpus; the graft input table is
synthesized deterministically per FIXTURES.md), plus the BENCH_QUERIES
tier of __ray_entry__.queries() (best-of-2 seconds each), and prints ONE
JSON line:

  {"metric": "extract_pipeline_wall", "value": <sec>, "unit": "sec",
   "queries": {...per-query seconds...}, "sf": ..., "num_cpus": N,
   "turns_per_sec": ..., "rows": ...}

--scaling: re-runs this script in two fresh processes with
RAY_GRAFT_CPUS=8 and =32 on the same input and reports both throughputs
plus the scaling efficiency (sandbox stand-in for N vs 4N nodes).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count()))


# The secondary tier: names from __ray_entry__.queries(), timed in this
# order at $GRAFT_SF_DIR. conv_stats, turn_latency, turn_normalize and
# conv_context_pack run on the transcript corpus of the same scale (800k
# turns at sf0.1).
# jaccard_threshold_sweep is deliberately left out: its candidate-complete
# base pair set hits the dense-vocab adversarial regime at sf0.1 (fixed
# 2k-shingle vocabulary -> AllPairs posting lists ~ corpus-sized; minutes
# at 5k docs); it stays an oracled query at sf0.01.
BENCH_QUERIES = (
    "exact_dedup",
    "token_counts",
    "ann_topk",
    "minhash_dedup",
    "simhash_dedup",
    "embedding_dedup",
    "charset_best_match",
    "charset_best_match_lsh",
    "dedup_clusters",
    "winnowing_dedup",
    "lexicon_match_census",
    "dbscan_embeddings",
    "kcenter_coreset",
    "facility_location_selection",
    "lineitem_agg",
    "order_priority_revenue",
    "top_bigrams",
    "kmeans_embeddings",
    "events_hourly",
    "heavy_tokens",
    "hll_distinct_users",
    "conv_stats",
    "turn_latency",
    "turn_normalize",
    "ann_pq_rerank_topk",
    "gopher_repetition",
    "bm25_topk",
    "bigram_lm_scores",
    "semantic_dedup",
    "running_global_total",
    "clean_pack_pipeline",
    "doc_chunks",
    "inverted_index_topk",
    "pmi_collocations",
    "incremental_dedup",
    "weighted_sample",
    "events_band_join",
    "windowed_event_dedup",
    "token_entropy",
    "bipartite_pagerank",
    "supplier_butterflies",
    "funnel_within_hour",
    "cohort_retention",
    "snapshot_diff",
    "contrastive_pairs",
    "events_value_rank_normalize",
    "image_phash_dedup",
    "containment_dedup",
    "user_event_trigrams",
    "user_active_time",
    "orders_fk_profile",
    "user_type_itemsets",
    "local_supplier_revenue",
    "events_rolling_peak",
    "concurrent_sessions_daily_peak",
    "user_triangles",
    "zorder_layout",
    "events_type_daily_uniques",
    "events_value_equidepth",
    "nation_pair_trade",
    "merge_upsert",
    "negative_samples",
    "feature_hashing",
    "latest_event_per_user",
    "streaming_windowed_dedup",
    "part_copurchase_pairs",
    "cdc_apply",
    "salted_repartition_join",
    "user_p95_distribution",
    "hard_negative_mining",
    "bloom_dedup_audit",
    "mutual_knn_degree",
    "user_lifecycle_daily",
    "chunk_dedup_stats",
    "supplier_runnerup_gap",
    "customer_decile_transition",
    "part_bfs_levels",
    "order_price_reconciliation",
    "quality_budget_selection",
    "mutual_knn_degree_ivf",
    "dbscan_embeddings_ivf",
    "facility_location_selection_ivf",
    "embedding_pair_distance_histogram_ivf",
    "triplet_margin_violations_ivf",
    "quantile_sketch_det",
    "containment_dedup_dfcap",
    "dsir_select",
    "unimax_allocation",
    "perplexity_buckets",
    "soft_dedup_reweight",
    "kmeans_fixedpoint",
    "pca_power_fixedpoint",
    "semantic_dedup_fixedpoint",
    "heavy_hitters_det",
    "simhash_hamming_histogram_banded",
    "simhash_band_skew_census",
    "doremi_fixedpoint",
    "doremi_mix_plan",
    "quality_threshold_sweep",
    "length_bucketed_batch_plan",
    "pad_efficiency_report",
    "conv_context_pack",
)

# timed once instead of best-of-2: each run is long
BENCH_ONE_SHOT = frozenset({"clean_pack_pipeline", "streaming_windowed_dedup"})


def _scale_for(sf_dir: str) -> str:
    base = os.path.basename(os.path.normpath(sf_dir))
    return {"sf0.001": "t1", "sf0.01": "t2", "sf0.1": "bench"}.get(base, "bench")


def _materialize(res):
    """A query may return a lazy Dataset; time its execution too."""
    import ray.data as rd

    return res.to_pandas() if isinstance(res, rd.Dataset) else res


def _best_of(name: str, fn, repeats: int) -> float:
    """Best-of-N seconds of fn(), or -1.0 if it raises. Single-shot
    secondary timings showed ±2x run-to-run variance from cold worker
    spawn / object-store contention (r1->r2 exact_dedup 1.12->1.99s
    drift was exactly this); the min is the steady-state cost of the
    query's plan."""
    best = None
    for _ in range(repeats):
        t = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # record failures without killing bench
            print(f"# bench query {name} failed: {exc}", file=sys.stderr)
            return -1.0
        dt = time.perf_counter() - t
        best = dt if best is None else min(best, dt)
    return round(best, 3)


def main() -> dict:
    from pdfrust_ray.session import start_session

    start_session(NUM_CPUS)
    import ray
    import ray.data as rd

    rd.DataContext.get_current().execution_options.verbose_progress = False

    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.extract_pipeline import run_extraction

    scale = _scale_for(SF_DIR)
    fix_dir = ensure_corpus(scale, golden=(scale != "bench"))

    # warm the page cache (untimed read of the input shards)
    import glob

    for p in glob.glob(os.path.join(fix_dir, "shards", "*.parquet")):
        with open(p, "rb") as f:
            f.read()

    out_dir = f"/tmp/bench_out_{scale}_{NUM_CPUS}"
    shutil.rmtree(out_dir, ignore_errors=True)

    # warm the cluster (worker process spawn + imports) with a small
    # untimed pipeline so the timed run measures steady-state throughput
    warm_dir = ensure_corpus("t1")
    warm_out = f"/tmp/bench_warm_{NUM_CPUS}"
    shutil.rmtree(warm_out, ignore_errors=True)
    run_extraction(warm_dir, warm_out, resume=False)

    t0 = time.perf_counter()
    metrics = run_extraction(
        fix_dir,
        out_dir,
        group_size=10_000,  # single group: one streaming pipeline
        batch_size=512,
        resume=False,
        override_num_blocks=12 * NUM_CPUS,
    )
    headline = time.perf_counter() - t0

    queries: dict[str, float] = {}
    # --scaling only consumes turns_per_sec; BENCH_HEADLINE_ONLY skips the
    # ~25-min secondary tier in each subprocess so the efficiency pair
    # measures the flagship pipeline, uncontended
    if not os.environ.get("BENCH_HEADLINE_ONLY"):
        import __ray_entry__ as entry

        qs = entry.queries()
        for name in BENCH_QUERIES:
            queries[name] = _best_of(
                name,
                lambda: _materialize(qs[name](SF_DIR)),
                repeats=1 if name in BENCH_ONE_SHOT else 2,
            )

    result = {
        "metric": "extract_pipeline_wall",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "rows": metrics["rows"],
        "turns_per_sec": metrics["turns_per_sec"],
        "rows_error": metrics["rows_error"],
        "bytes_decoded": metrics["bytes_decoded"],
    }
    ray.shutdown()
    return result


def scaling() -> None:
    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_HEADLINE_ONLY="1")
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = 8, 32
    r_lo = run(lo)
    r_hi = run(hi)
    tp_lo = r_lo["turns_per_sec"]
    tp_hi = r_hi["turns_per_sec"]
    eff = (tp_hi / tp_lo) / (hi / lo) if tp_lo else 0.0
    print(
        json.dumps(
            {
                "metric": "scaling_efficiency",
                "value": round(eff, 3),
                "unit": "ratio",
                "num_cpus_lo": lo,
                "num_cpus_hi": hi,
                "turns_per_sec_lo": tp_lo,
                "turns_per_sec_hi": tp_hi,
                "wall_sec_lo": r_lo["value"],
                "wall_sec_hi": r_hi["value"],
                "sf": SF_DIR,
            }
        )
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    else:
        print(json.dumps(main()))
