#!/usr/bin/env python
"""Benchmark harness.

Plain run: executes the headline transcript-extraction pipeline over the
synthetic corpus scaled to $GRAFT_SF_DIR (default /root/testdata/sf0.1
-> the 100k-row "bench" fixture corpus; the graft input table is
synthesized deterministically per FIXTURES.md), plus a set of secondary
operator pipelines over the actual testdata tables, and prints ONE JSON
line:

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


def _scale_for(sf_dir: str) -> str:
    base = os.path.basename(os.path.normpath(sf_dir))
    return {"sf0.001": "t1", "sf0.01": "t2", "sf0.1": "bench"}.get(base, "bench")


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

    if os.environ.get("BENCH_HEADLINE_ONLY"):
        # --scaling only consumes turns_per_sec; skip the ~25-min
        # secondary sweep in each subprocess so the efficiency pair
        # measures the flagship pipeline, uncontended
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

    def timed(name, fn, repeats: int = 2):
        # best-of-N: single-shot secondary timings showed ±2x run-to-run
        # variance from cold worker spawn / object-store contention
        # (r1->r2 exact_dedup 1.12->1.99s drift was exactly this); the
        # min is the steady-state cost of the query's plan
        best = None
        for _ in range(repeats):
            t = time.perf_counter()
            try:
                fn()
                dt = time.perf_counter() - t
                best = dt if best is None else min(best, dt)
            except Exception as exc:  # record failures without killing bench
                queries[name] = -1.0
                print(f"# bench query {name} failed: {exc}", file=sys.stderr)
                return
        queries[name] = round(best, 3)

    from pdfrust_ray.pipelines import relational as rel
    from pdfrust_ray.pipelines import textops
    from pdfrust_ray.stages import dedup, similarity

    timed("exact_dedup", lambda: dedup.exact_dedup(SF_DIR).to_pandas())
    timed("token_counts", lambda: textops.token_counts(SF_DIR))
    timed("ann_topk", lambda: similarity.brute_force_topk(SF_DIR))
    timed("minhash_dedup", lambda: dedup.minhash_lsh_dedup(SF_DIR))
    timed("simhash_dedup", lambda: dedup.simhash_dedup(SF_DIR))
    timed("embedding_dedup", lambda: dedup.embedding_dedup(SF_DIR))
    timed("charset_best_match", lambda: textops.charset_best_match(SF_DIR))
    timed("charset_best_match_lsh", lambda: textops.charset_best_match_lsh(SF_DIR))
    timed("dedup_clusters", lambda: dedup.dedup_clusters(SF_DIR))
    timed("winnowing_dedup", lambda: dedup.winnowing_dedup(SF_DIR))
    timed("lexicon_match_census", lambda: textops.lexicon_match_census(SF_DIR))
    timed("dbscan_embeddings", lambda: similarity.dbscan_embeddings(SF_DIR))
    timed("kcenter_coreset", lambda: similarity.kcenter_coreset(SF_DIR))
    timed(
        "facility_location_selection",
        lambda: similarity.facility_location_selection(SF_DIR),
    )
    timed("lineitem_agg", lambda: rel.lineitem_agg(SF_DIR))
    timed("order_priority_revenue", lambda: rel.order_priority_revenue(SF_DIR))
    timed("top_bigrams", lambda: textops.top_bigrams(SF_DIR))
    timed("kmeans_embeddings", lambda: similarity.kmeans_embeddings(SF_DIR))
    timed("events_hourly", lambda: rel.events_hourly(SF_DIR))

    from pdfrust_ray.pipelines import conversation as cv
    from pdfrust_ray.stages import sketches

    timed("heavy_tokens", lambda: sketches.heavy_tokens(SF_DIR))
    timed("hll_distinct_users", lambda: sketches.hll_distinct_users(SF_DIR))
    timed("conv_stats", lambda: cv.conv_stats(fix_dir))
    timed("turn_latency", lambda: cv.turn_latency(fix_dir))
    # normalization over the full bench transcript corpus (800k turns)
    timed("turn_normalize", lambda: textops.turn_normalize(fix_dir))
    timed("pq_rerank_topk", lambda: similarity.pq_rerank_topk(SF_DIR))

    from pdfrust_ray.pipelines import quality as qual

    timed("gopher_repetition", lambda: qual.gopher_repetition(SF_DIR))
    timed("bm25_topk", lambda: qual.bm25_topk(SF_DIR))
    timed("bigram_lm_scores", lambda: qual.bigram_lm_scores(SF_DIR))
    timed("semantic_dedup", lambda: dedup.semantic_dedup(SF_DIR))
    timed("running_global_total", lambda: rel.running_global_total(SF_DIR))
    from pdfrust_ray.pipelines import llmdata as llm

    timed("clean_pack_pipeline", lambda: llm.clean_pack_pipeline(SF_DIR), repeats=1)

    from pdfrust_ray.pipelines import datasetops as dso

    timed("doc_chunks", lambda: dso.doc_chunks(SF_DIR))
    timed("inverted_index_topk", lambda: dso.inverted_index_topk(SF_DIR))
    timed("pmi_collocations", lambda: dso.pmi_collocations(SF_DIR))
    timed("incremental_dedup", lambda: dedup.incremental_dedup(SF_DIR))
    timed("weighted_sample", lambda: rel.weighted_sample(SF_DIR))
    timed("events_band_join", lambda: rel.events_band_join(SF_DIR))
    timed("windowed_event_dedup", lambda: rel.windowed_event_dedup(SF_DIR))
    timed("token_entropy", lambda: qual.token_entropy(SF_DIR))

    from pdfrust_ray.pipelines import graph
    from pdfrust_ray.stages.multimodal import image_phash_dedup

    timed("bipartite_pagerank", lambda: graph.bipartite_pagerank(SF_DIR))
    timed("supplier_butterflies", lambda: graph.supplier_butterflies(SF_DIR))
    timed("funnel_within_hour", lambda: rel.funnel_within_hour(SF_DIR))
    timed("cohort_retention", lambda: rel.cohort_retention(SF_DIR))
    timed("snapshot_diff", lambda: dso.snapshot_diff(SF_DIR))
    timed("contrastive_pairs", lambda: similarity.contrastive_pairs(SF_DIR))
    timed("rank_normalize", lambda: rel.events_value_rank_normalize(SF_DIR))
    timed("image_phash_dedup", lambda: image_phash_dedup())
    timed("containment_dedup", lambda: dedup.containment_dedup(SF_DIR))
    timed("user_event_trigrams", lambda: rel.user_event_trigrams(SF_DIR))
    timed("user_active_time", lambda: rel.user_active_time(SF_DIR))
    timed("orders_fk_profile", lambda: rel.orders_fk_profile(SF_DIR))
    timed("user_type_itemsets", lambda: rel.user_type_itemsets(SF_DIR))
    timed("local_supplier_revenue", lambda: rel.local_supplier_revenue(SF_DIR))
    timed("events_rolling_peak", lambda: rel.events_rolling_peak(SF_DIR))
    timed(
        "concurrent_sessions_daily_peak",
        lambda: rel.concurrent_sessions_daily_peak(SF_DIR),
    )
    timed("user_triangles", lambda: graph.user_triangles(SF_DIR))
    timed("zorder_layout", lambda: dso.zorder_layout(SF_DIR))
    timed("events_type_daily_uniques", lambda: rel.events_type_daily_uniques(SF_DIR))
    timed("events_value_equidepth", lambda: rel.events_value_equidepth(SF_DIR))
    timed("nation_pair_trade", lambda: rel.nation_pair_trade(SF_DIR))
    timed("merge_upsert", lambda: dso.merge_upsert(SF_DIR))
    timed("negative_samples", lambda: rel.negative_samples(SF_DIR))
    timed("feature_hashing", lambda: textops.feature_hashing(SF_DIR))
    timed("latest_event_per_user", lambda: rel.latest_event_per_user(SF_DIR))

    from pdfrust_ray.stages.streaming import streaming_windowed_dedup

    timed(
        "streaming_windowed_dedup",
        lambda: streaming_windowed_dedup(SF_DIR),
        repeats=1,
    )
    timed("part_copurchase_pairs", lambda: rel.part_copurchase_pairs(SF_DIR))
    timed("cdc_apply", lambda: rel.cdc_apply(SF_DIR))
    timed("salted_repartition_join", lambda: rel.salted_repartition_join(SF_DIR))
    timed("user_p95_distribution", lambda: rel.user_p95_distribution(SF_DIR))
    timed("hard_negative_mining", lambda: similarity.hard_negative_mining(SF_DIR))
    timed("bloom_dedup_audit", lambda: dedup.bloom_dedup_audit(SF_DIR))
    timed("mutual_knn_degree", lambda: similarity.mutual_knn_degree(SF_DIR))
    timed("user_lifecycle_daily", lambda: rel.user_lifecycle_daily(SF_DIR))
    timed("chunk_dedup_stats", lambda: dso.chunk_dedup_stats(SF_DIR))
    timed("supplier_runnerup_gap", lambda: rel.supplier_runnerup_gap(SF_DIR))
    timed("customer_decile_transition", lambda: rel.customer_decile_transition(SF_DIR))
    timed("part_bfs_levels", lambda: graph.part_bfs_levels(SF_DIR))
    timed("order_price_reconciliation", lambda: rel.order_price_reconciliation(SF_DIR))
    timed("quality_budget_selection", lambda: llm.quality_budget_selection(SF_DIR))
    # round-4 additions: IVF-bucketed audit siblings + det quantile sketch
    timed("mutual_knn_degree_ivf", lambda: similarity.mutual_knn_degree_ivf(SF_DIR))
    timed("dbscan_embeddings_ivf", lambda: similarity.dbscan_embeddings_ivf(SF_DIR))
    timed(
        "facility_location_selection_ivf",
        lambda: similarity.facility_location_selection_ivf(SF_DIR),
    )
    timed(
        "pair_distance_histogram_ivf",
        lambda: similarity.embedding_pair_distance_histogram_ivf(SF_DIR),
    )
    timed(
        "triplet_margin_violations_ivf",
        lambda: similarity.triplet_margin_violations_ivf(SF_DIR),
    )
    timed("quantile_sketch_det", lambda: sketches.quantile_sketch_det(SF_DIR))
    # round-4 session-2 additions
    timed(
        "containment_dedup_dfcap", lambda: dedup.containment_dedup_dfcap(SF_DIR)
    )
    timed("dsir_select", lambda: llm.dsir_select(SF_DIR))
    timed("unimax_allocation", lambda: llm.unimax_allocation(SF_DIR))
    timed("perplexity_buckets", lambda: qual.perplexity_buckets(SF_DIR))
    timed("soft_dedup_reweight", lambda: dedup.soft_dedup_reweight(SF_DIR))
    timed("kmeans_fixedpoint", lambda: similarity.kmeans_fixedpoint(SF_DIR))
    timed("pca_power_fixedpoint", lambda: similarity.pca_power_fixedpoint(SF_DIR))
    timed(
        "semantic_dedup_fixedpoint",
        lambda: similarity.semantic_dedup_fixedpoint(SF_DIR),
    )

    from pdfrust_ray.stages.streaming import heavy_hitters_det

    timed("heavy_hitters_det", lambda: heavy_hitters_det(SF_DIR))

    # round-5 additions
    from pdfrust_ray.pipelines import calibration as cal
    from pdfrust_ray.pipelines import mixing

    timed(
        "simhash_hamming_histogram_banded",
        lambda: dedup.simhash_hamming_histogram_banded(SF_DIR),
    )
    timed(
        "simhash_band_skew_census",
        lambda: dedup.simhash_band_skew_census(SF_DIR),
    )
    timed("doremi_fixedpoint", lambda: mixing.doremi_fixedpoint(SF_DIR))
    timed("doremi_mix_plan", lambda: mixing.doremi_mix_plan(SF_DIR))
    timed(
        "quality_threshold_sweep", lambda: cal.quality_threshold_sweep(SF_DIR)
    )
    # jaccard_threshold_sweep is deliberately NOT benched at sf0.1: its
    # candidate-complete base pair set hits the documented dense-vocab
    # adversarial regime (fixed 2k-shingle vocabulary -> AllPairs
    # posting lists ~ corpus-sized; measured minutes at 5k docs, same
    # regime as exact containment_dedup). It stays an oracled query at
    # sf0.01 (~20 s); real open-vocabulary corpora thin the lists.
    timed(
        "length_bucketed_batch_plan",
        lambda: llm.length_bucketed_batch_plan(SF_DIR),
    )
    timed("pad_efficiency_report", lambda: llm.pad_efficiency_report(SF_DIR))
    # whole-conversation packing over the full 800k-turn corpus
    timed("conv_context_pack", lambda: cv.conv_context_pack(fix_dir))

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
