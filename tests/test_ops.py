"""Training-data ops: dedup, similarity, text stats, multimodal plumbing.

DuckDB is used in-process as the oracle for the SQL-expressible ops
(the same SQL the driver runs), on the sf0.001 testdata.
"""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from tools.contract_check import compare_rows

SF = "/root/testdata/sf0.001"

needs_testdata = pytest.mark.skipif(not os.path.isdir(SF), reason="testdata not available")


@needs_testdata
def test_exact_dedup_matches_sql(ray_session, con):
    from pdfrust_ray.stages.dedup import exact_dedup

    mine = exact_dedup(SF).to_pandas()
    oracle = con.execute(
        "SELECT md5(text) AS text_hash, MIN(doc_id) AS doc_id, COUNT(*) AS dup_count FROM documents GROUP BY md5(text)"
    ).df()
    compare_rows(mine, oracle)


@needs_testdata
def test_token_counts_match_sql(ray_session, con):
    from pdfrust_ray.pipelines.textops import token_counts, token_counts_sql

    mine = token_counts(SF)
    oracle = con.execute(token_counts_sql()).df()
    compare_rows(mine, oracle)


@needs_testdata
def test_fingerprints_match_sql(ray_session, con):
    from pdfrust_ray.pipelines.textops import fingerprints, fingerprints_sql

    mine = fingerprints(SF)
    oracle = con.execute(fingerprints_sql()).df()
    compare_rows(mine, oracle)


@needs_testdata
def test_ann_topk_matches_sql(ray_session, con):
    from pdfrust_ray.stages.similarity import brute_force_topk

    mine = brute_force_topk(SF)
    oracle = con.execute(
        """
        WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id IN (0,1,2,3,4)),
        s AS (SELECT q.query_id, e.vec_id, list_cosine_similarity(e.embedding, q.qe) AS cosine
              FROM embeddings e CROSS JOIN q),
        r AS (SELECT query_id, vec_id, cosine,
                     row_number() OVER (PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rank FROM s)
        SELECT query_id, rank, vec_id FROM r WHERE rank <= 10
        """
    ).df()
    mine["rank"] = mine["rank"].astype("int64")
    oracle["rank"] = oracle["rank"].astype("int64")
    compare_rows(mine, oracle)


@needs_testdata
def test_ivf_recalls_brute_force(ray_session):
    from pdfrust_ray.stages.similarity import brute_force_topk, ivf_topk

    exact = brute_force_topk(SF, k=10)
    approx = ivf_topk(SF, k=10, n_probe=8)
    # measured on the deterministic fixture: mean recall@10 = 0.96 with
    # half the buckets probed (min per-query 0.9); pin close to that
    recall = []
    for qid in exact["query_id"].unique():
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recall.append(len(e & a) / len(e))
    assert min(recall) >= 0.8
    assert sum(recall) / len(recall) >= 0.9


def test_minhash_finds_planted_neardups(ray_session, tmp_path):
    from pdfrust_ray.stages.dedup import minhash_lsh_dedup

    # non-repetitive base: a rich shingle set so a small edit stays >= 0.7
    base = " ".join(f"token{i}ax{i * 7 % 91}" for i in range(300))
    rows = []
    for i in range(20):
        rows.append(
            {"doc_id": i, "text": " ".join(f"doc{i}w{j}q{(i * j) % 97}" for j in range(150))}
        )
    rows.append({"doc_id": 100, "text": base})
    rows.append({"doc_id": 101, "text": base + " slightly changed tail here"})
    rows.append({"doc_id": 102, "text": base})  # exact dup of 100
    t = pa.Table.from_pylist(rows)
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    pairs = minhash_lsh_dedup(str(d), threshold=0.7)
    found = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (100, 102) in found
    assert (100, 101) in found or (101, 102) in found


def test_simhash_finds_planted_neardups(ray_session, tmp_path):
    from pdfrust_ray.stages.dedup import simhash_dedup

    # wide vocabulary: simhash is stable under a 2-word edit only when
    # many distinct terms contribute to each bit's accumulator
    base = " ".join(f"w{i}token{i * 13 % 997}" for i in range(400))
    rows = [
        {"doc_id": i, "text": " ".join(f"d{i}x{j}y{(i * j) % 83}" for j in range(200))}
        for i in range(10)
    ]
    rows.append({"doc_id": 50, "text": base})
    rows.append({"doc_id": 51, "text": base + " tiny suffix"})
    t = pa.Table.from_pylist(rows)
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    pairs = simhash_dedup(str(d), max_hamming=3)
    assert (50, 51) in set(zip(pairs["doc_a"], pairs["doc_b"]))


def test_embedding_dedup_finds_planted(ray_session, tmp_path):
    from pdfrust_ray.stages.dedup import embedding_dedup

    rng = np.random.RandomState(7)
    vecs = rng.randn(30, 16).astype(np.float32)
    vecs[21] = vecs[20] + rng.randn(16).astype(np.float32) * 0.01  # near-dup pair
    rows = [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(30)]
    t = pa.Table.from_pylist(rows)
    d = tmp_path / "emb"
    d.mkdir()
    pq.write_table(t, str(d / "embeddings.parquet"))
    pairs = embedding_dedup(str(d), threshold=0.98)
    assert (20, 21) in set(zip(pairs["vec_a"], pairs["vec_b"]))


@pytest.mark.parametrize(
    "text",
    ["a b", "a\tb\nc", "a\x0cb\rc", " a ", "", "a\x0bb", "a\x1cb", "a\x85b", "a\u00a0b",
     "a\u2003b", "a\u3000b", "a \u3000 b"],
)
def test_token_count_matches_duckdb_whitespace(text):
    # the twins split on RE2's \s, which is ASCII [\t\n\f\r ]
    import duckdb

    from pdfrust_ray.functions.textstats import token_count

    (want,) = duckdb.execute("SELECT length(string_split_regex($1, '\\s+'))", [text]).fetchone()
    assert token_count(text) == want


def test_textstats_functions():
    from pdfrust_ray.functions.textstats import lang_id, quality_score, token_count

    assert token_count("a b c") == 3
    assert token_count(" a  b ") == 4  # duckdb string_split_regex parity
    assert lang_id("the cat and the dog sat on the mat with a hat for it") == "en"
    assert lang_id("der hund und die katze sind nicht mit einem ball zu sehen") == "de"
    assert lang_id("这是一个中文句子" * 5) == "zh"
    assert 0.0 <= quality_score("A normal English sentence, with punctuation.") <= 1.0
    assert quality_score("") == 0.0


def test_multimodal_real_decode(ray_session):
    from pdfrust_ray.stages.multimodal import (
        FEATURE_DIM,
        RealImageDecoder,
        media_features,
        synthesize_media_table,
    )

    with pytest.raises(NotImplementedError):
        RealImageDecoder()  # compressed-format integration point stays stubbed

    t = synthesize_media_table(n=12)
    out = media_features(t).to_pandas()
    assert len(out) == 12
    assert {"media_id", "kind", "n_bytes", "width", "height", "duration_ms",
            "decode_status", "features"} <= set(out.columns)
    # every synthetic payload REALLY decodes (PPM / WAV / PPM-stream)
    assert (out["decode_status"] == "ok").all()
    assert (out[out["kind"] == "image"]["width"] > 0).all()
    assert (out[out["kind"] == "audio"]["duration_ms"] > 0).all()
    assert all(len(f) == FEATURE_DIM for f in out["features"])
    # decoded dimensions match the table's typed metadata
    meta = t.to_pandas()[["media_id", "width", "height"]]
    j = out.merge(meta, on="media_id", suffixes=("", "_meta"))
    img = j[j["kind"] != "audio"]
    assert (img["width"] == img["width_meta"]).all()
    assert (img["height"] == img["height_meta"]).all()
    # deterministic across runs
    out2 = media_features(synthesize_media_table(n=12)).to_pandas()
    a = sorted(map(tuple, out[["media_id", "n_bytes"]].values.tolist()))
    b = sorted(map(tuple, out2[["media_id", "n_bytes"]].values.tolist()))
    assert a == b


def test_multimodal_codecs_roundtrip():
    import numpy as np

    from pdfrust_ray.stages.multimodal import (
        decode_ppm,
        decode_wav,
        encode_ppm,
        encode_wav,
        iter_ppm_frames,
        resize_nearest,
    )

    rng = np.random.RandomState(1)
    img = rng.randint(0, 256, size=(17, 23, 3)).astype(np.uint8)
    pix, off = decode_ppm(encode_ppm(img))
    assert (pix == img).all() and off == len(encode_ppm(img))
    sig = (rng.randn(1600) * 5000).astype(np.int16)
    dec, rate = decode_wav(encode_wav(sig))
    assert rate == 16000 and (dec[:, 0] == sig).all()
    small = resize_nearest(img, 8, 8)
    assert small.shape == (8, 8, 3)
    # identity resize is exact
    assert (resize_nearest(img, 17, 23) == img).all()
    frames = [rng.randint(0, 256, size=(5, 6, 3)).astype(np.uint8) for _ in range(4)]
    got = list(iter_ppm_frames(b"".join(encode_ppm(f) for f in frames)))
    assert len(got) == 4 and all((a == b).all() for a, b in zip(got, frames))
    # undecodable payloads raise ValueError (mapped to error rows upstream)
    with pytest.raises(ValueError):
        decode_ppm(b"JFIF...")


@needs_testdata
def test_sessionize_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import sessionize, sessionize_sql

    mine = sessionize(SF)
    oracle = con.execute(sessionize_sql()).df()
    compare_rows(mine, oracle)


@needs_testdata
def test_running_totals_match_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import running_user_totals, running_user_totals_sql

    mine = running_user_totals(SF)
    oracle = con.execute(running_user_totals_sql()).df()
    compare_rows(mine, oracle)


def test_dedup_clusters_planted(ray_session, tmp_path):
    from pdfrust_ray.stages.dedup import dedup_clusters

    base = " ".join(f"tok{i}zz{i * 11 % 73}" for i in range(300))
    rows = [
        {"doc_id": i, "text": " ".join(f"u{i}v{j}w{(i * j) % 89}" for j in range(150))}
        for i in range(8)
    ]
    # chain: 40 ~ 41 ~ 42 (one component), plus exact pair 50/51
    rows.append({"doc_id": 40, "text": base})
    rows.append({"doc_id": 41, "text": base + " tail one"})
    rows.append({"doc_id": 42, "text": base + " tail one two"})
    other = " ".join(f"qq{i}rr{i * 17 % 61}" for i in range(300))
    rows.append({"doc_id": 50, "text": other})
    rows.append({"doc_id": 51, "text": other})
    t = pa.Table.from_pylist(rows)
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    out = dedup_clusters(str(d), threshold=0.7)
    by_doc = dict(zip(out["doc_id"], out["cluster_id"]))
    assert by_doc[40] == by_doc[41] == by_doc[42] == 40
    assert by_doc[50] == by_doc[51] == 50

    # the large-graph distributed label-propagation path must produce
    # identical labels to the driver union-find fast path
    dist = dedup_clusters(str(d), threshold=0.7, driver_pairs_cap=0)
    assert dist.equals(out)


@needs_testdata
def test_asof_join_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        asof_click_before_purchase,
        asof_click_before_purchase_sql,
    )

    mine = asof_click_before_purchase(SF)
    oracle = con.execute(asof_click_before_purchase_sql()).df()
    compare_rows(mine, oracle)


@needs_testdata
def test_top_orders_per_segment_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        top_orders_per_segment,
        top_orders_per_segment_sql,
    )

    mine = top_orders_per_segment(SF)
    oracle = con.execute(top_orders_per_segment_sql()).df()
    compare_rows(mine, oracle)


@needs_testdata
def test_user_next_event_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import user_next_event, user_next_event_sql

    mine = user_next_event(SF)
    oracle = con.execute(user_next_event_sql()).df()
    compare_rows(mine, oracle)


@needs_testdata
def test_user_funnel_sets_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import user_funnel_sets, user_funnel_sets_sql

    mine = user_funnel_sets(SF)
    oracle = con.execute(user_funnel_sets_sql()).df()
    compare_rows(mine, oracle)


@needs_testdata
def test_events_value_percentiles_match_sql_bitexact(ray_session, con):
    """quantile_cont doubles must be bit-identical (lo*(1-frac)+hi*frac
    — DuckDB's interpolation op order)."""
    from pdfrust_ray.pipelines.relational import (
        events_value_percentiles,
        events_value_percentiles_sql,
    )

    mine = events_value_percentiles(SF)
    oracle = con.execute(events_value_percentiles_sql()).df()
    compare_rows(mine, oracle)


@needs_testdata
def test_events_daily_pivot_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import events_daily_pivot, events_daily_pivot_sql

    mine = events_daily_pivot(SF)
    oracle = con.execute(events_daily_pivot_sql()).df()
    compare_rows(mine, oracle)


@needs_testdata
def test_region_revenue_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import region_revenue, region_revenue_sql

    compare_rows(region_revenue(SF), con.execute(region_revenue_sql()).df())


@needs_testdata
def test_first_last_order_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        first_last_order_per_customer,
        first_last_order_per_customer_sql,
    )

    compare_rows(
        first_last_order_per_customer(SF),
        con.execute(first_last_order_per_customer_sql()).df(),
    )


@needs_testdata
def test_orders_above_customer_avg_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        orders_above_customer_avg,
        orders_above_customer_avg_sql,
    )

    compare_rows(
        orders_above_customer_avg(SF),
        con.execute(orders_above_customer_avg_sql()).df(),
    )


@needs_testdata
def test_user_top_event_type_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import user_top_event_type, user_top_event_type_sql

    compare_rows(user_top_event_type(SF), con.execute(user_top_event_type_sql()).df())


@needs_testdata
def test_events_value_histogram_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_value_histogram,
        events_value_histogram_sql,
    )

    compare_rows(events_value_histogram(SF), con.execute(events_value_histogram_sql()).df())


@needs_testdata
def test_user_value_percent_rank_matches_sql_bitexact(ray_session, con):
    """PERCENT_RANK/CUME_DIST doubles must be bit-identical
    ((rank-1)/(n-1) and cume/n, ranks from searchsorted)."""
    from pdfrust_ray.pipelines.relational import (
        user_value_percent_rank,
        user_value_percent_rank_sql,
    )

    compare_rows(user_value_percent_rank(SF), con.execute(user_value_percent_rank_sql()).df())


@needs_testdata
def test_benchmark_contamination_matches_sql(ray_session, con):
    """13-gram decontamination: engine count of distinct shared grams
    must equal the SQL unnest-join oracle (incl. the planted near-dup
    of a benchmark doc)."""
    from pdfrust_ray.pipelines.textops import (
        benchmark_contamination,
        benchmark_contamination_sql,
    )

    mine = benchmark_contamination(SF)
    oracle = con.execute(benchmark_contamination_sql()).df()
    compare_rows(mine, oracle)
    # non-vacuous: benchmark members self-hit, short docs drop out
    assert len(mine) > 0


def test_pii_redact_matches_sql(ray_session):
    """Email/phone redaction must equal DuckDB regexp_replace over the
    RAW pii fixture shards (identical RE2-compatible patterns)."""
    import duckdb

    from pdfrust_ray.fixtures.corpus import ensure_pii_fixture
    from pdfrust_ray.pipelines.textops import pii_redact, pii_redact_sql

    d = ensure_pii_fixture()
    mine = pii_redact(d)
    con = duckdb.connect()
    oracle = con.execute(pii_redact_sql(f"{d}/shards/*.parquet")).df()
    compare_rows(mine, oracle)
    assert mine["n_emails"].sum() > 0 and mine["n_phones"].sum() > 0
    assert not mine["clean_text"].str.contains("@").any()


@needs_testdata
def test_customers_with_big_orders_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        customers_with_big_orders,
        customers_with_big_orders_sql,
    )

    compare_rows(
        customers_with_big_orders(SF), con.execute(customers_with_big_orders_sql()).df()
    )


@needs_testdata
def test_events_dow_grid_matches_sql(ray_session, con):
    """Grid fill must include zero cells and use DuckDB's Sunday=0
    day-of-week numbering."""
    from pdfrust_ray.pipelines.relational import events_dow_grid, events_dow_grid_sql

    mine = events_dow_grid(SF)
    compare_rows(mine, con.execute(events_dow_grid_sql()).df())
    assert len(mine) % 7 == 0  # dense grid


@needs_testdata
def test_lineitem_discounted_revenue_matches_sql(ray_session, con):
    """Discount product hits genuine .5 cases: DuckDB ROUND is
    half-away-from-zero, so the engine must not use Arrow's default
    half-to-even."""
    from pdfrust_ray.pipelines.relational import (
        lineitem_discounted_revenue,
        lineitem_discounted_revenue_sql,
    )

    compare_rows(
        lineitem_discounted_revenue(SF),
        con.execute(lineitem_discounted_revenue_sql()).df(),
    )


def test_turn_normalize_matches_sql(ray_session):
    import duckdb

    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.textops import turn_normalize, turn_normalize_sql

    d = ensure_corpus("t2")
    mine = turn_normalize(d)
    con = duckdb.connect()
    oracle = con.execute(turn_normalize_sql(f"{d}/shards/*.parquet")).df()
    compare_rows(mine, oracle)
    assert (mine["norm_text"].str.lower() == mine["norm_text"]).all()
    assert not mine["norm_text"].str.contains("\n").any()


@needs_testdata
def test_pq_topk_recall_and_determinism(ray_session):
    """Raw ADC scan over 32x-compressed PQ codes: deterministic, and
    recall@10 vs the exact scan stays useful even without re-ranking."""
    from pdfrust_ray.stages.similarity import brute_force_topk, pq_topk

    exact = brute_force_topk(SF)
    approx = pq_topk(SF)
    assert pq_topk(SF).equals(approx)  # deterministic
    recalls = []
    for qid in exact["query_id"].unique():
        e = set(exact[exact.query_id == qid]["vec_id"])
        a = set(approx[approx.query_id == qid]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert sum(recalls) / len(recalls) >= 0.3


@needs_testdata
def test_pq_rerank_equals_exact(ray_session):
    """PQ shortlist + exact re-rank at the fixture defaults recovers
    the exact top-k EXACTLY (same tie-break), justifying its exact SQL
    oracle in the driver gate."""
    from pdfrust_ray.stages.similarity import brute_force_topk, pq_rerank_topk

    exact = brute_force_topk(SF)
    rr = pq_rerank_topk(SF)
    assert rr.equals(exact.reset_index(drop=True))


@needs_testdata
def test_pack_sequences_matches_recursive_cte(ray_session, con):
    """Greedy packing is a linear recurrence: the engine's per-bucket
    first-fit must equal the recursive-CTE oracle row for row, and
    every pack must respect the budget (oversized docs excepted)."""
    from pdfrust_ray.pipelines.llmdata import pack_sequences, pack_sequences_sql

    mine = pack_sequences(SF)
    oracle = con.execute(pack_sequences_sql()).df()
    compare_rows(mine, oracle)
    sums = mine.groupby(["bucket", "pack_id"]).agg(
        tok=("n_tokens", "sum"), n=("doc_id", "size")
    )
    assert ((sums["tok"] <= 128) | (sums["n"] == 1)).all()


@needs_testdata
def test_bpe_train_distributed_counts_and_merges(ray_session):
    """Distributed word counting must equal an independent serial
    recount; the merge loop is cross-checked by an independently-coded
    brute-force pair counter on the first merges, plus the
    non-increasing pair_count invariant."""
    from collections import Counter

    from pdfrust_ray.pipelines.llmdata import _word_counts, bpe_merge_loop, bpe_train

    t = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    serial = Counter()
    for txt in t["text"].to_pylist():
        serial.update(txt.split())
    dist = _word_counts(SF)
    assert dict(zip(dist["word"], dist["n"])) == dict(serial)

    merges = bpe_train(SF, n_merges=20)
    assert (merges["pair_count"].diff().dropna() <= 0).all()

    # independent brute-force check of the first 3 merges: apply the
    # recorded merges one at a time and recount pairs from scratch
    vocab = {tuple(w) + ("</w>",): n for w, n in serial.items()}
    for i in range(3):
        pairs = Counter()
        for sym, n in vocab.items():
            for j in range(len(sym) - 1):
                pairs[(sym[j], sym[j + 1])] += n
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        row = merges.iloc[i]
        assert (row["left"], row["right"]) == best[0]
        assert row["pair_count"] == best[1]
        L, R = best[0]
        newv = {}
        for sym, n in vocab.items():
            out, j = [], 0
            while j < len(sym):
                if j + 1 < len(sym) and sym[j] == L and sym[j + 1] == R:
                    out.append(L + R)
                    j += 2
                else:
                    out.append(sym[j])
                    j += 1
            newv[tuple(out)] = newv.get(tuple(out), 0) + n
        vocab = newv


def test_bpe_merge_loop_sennrich_example():
    """The classic Sennrich vocabulary: known best first merges."""
    from pdfrust_ray.pipelines.llmdata import bpe_merge_loop

    wc = {"low": 5, "lower": 2, "newest": 6, "widest": 3}
    merges = bpe_merge_loop(wc, 4)
    # 'es' appears in newest(6)+widest(3) = 9 — the top pair
    assert merges[0][:2] == ("e", "s") and merges[0][2] == 9
    assert merges[1][:2] == ("es", "t") and merges[1][2] == 9
    assert merges[2][:2] == ("est", "</w>") and merges[2][2] == 9


@needs_testdata
def test_lang_rebalanced_sample_matches_sql(ray_session, con):
    """Data mixing: the per-lang keep thresholds and the hash predicate
    must agree with the SQL twin bit-for-bit, and the resulting mix
    must be near-uniform across languages."""
    from pdfrust_ray.pipelines.llmdata import (
        lang_rebalanced_sample,
        lang_rebalanced_sample_sql,
    )

    mine = lang_rebalanced_sample(SF)
    oracle = con.execute(lang_rebalanced_sample_sql()).df()
    compare_rows(mine, oracle)
    mix = mine.groupby("lang").size()
    assert mix.max() <= 1.35 * mix.min()


@needs_testdata
def test_substring_dedup_matches_sql(ray_session, con):
    """ExactSubstr window dedup: the shared-window pair counts must
    equal the SQL window-join oracle exactly (includes the planted
    near-dups, which share long verbatim spans)."""
    from pdfrust_ray.stages.dedup import substring_dedup, substring_dedup_sql

    mine = substring_dedup(SF)
    oracle = con.execute(substring_dedup_sql()).df()
    compare_rows(mine, oracle)
    assert len(mine) > 0


@needs_testdata
def test_bpe_encode_roundtrip_and_monotonicity(ray_session):
    """Applying the learned merges must reconstruct every word on
    join+strip, and more merges can only shrink (or keep) the total
    token count."""
    from pdfrust_ray.pipelines.llmdata import _bpe_apply, bpe_encode_counts, bpe_train

    m = bpe_train(SF, n_merges=50)
    ranks = {(l, r): i for i, (l, r) in enumerate(zip(m["left"], m["right"]))}
    t = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    vocab = set()
    for txt in t["text"].to_pylist()[:50]:
        vocab.update(txt.split())
    for w in sorted(vocab):
        toks = _bpe_apply(w, ranks)
        assert "".join(toks).replace("</w>", "") == w

    few = bpe_encode_counts(SF, n_merges=10)
    many = bpe_encode_counts(SF, n_merges=50)
    assert (many["n_bpe_tokens"] <= few["n_bpe_tokens"]).all()
    assert (many["n_bpe_tokens"] >= 1).all()


def test_minhash_mega_duplicate_group_no_blowup(ray_session, tmp_path):
    """A planted mega exact-duplicate group must not explode a bucket:
    candidate generation pairs distinct-text REPRESENTATIVES only, and
    the m*(m-1)/2 within-group pairs come from cheap expansion, not from
    n_bands quadratic bucket scans."""
    from pdfrust_ray.stages.dedup import minhash_candidates, minhash_lsh_dedup

    mega = "the same boilerplate text repeated across the corpus " * 20
    rows = [{"doc_id": i, "text": mega} for i in range(60)]
    rows += [
        {"doc_id": 100 + i, "text": " ".join(f"m{i}n{j}p{(i * j) % 79}" for j in range(120))}
        for i in range(10)
    ]
    t = pa.Table.from_pylist(rows)
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    # candidate stage emits rep pairs only: zero pairs for a pure
    # exact-duplicate group (one distinct text per bucket)
    cand = minhash_candidates(str(d)).to_pandas()
    assert len(cand) == 0
    pairs = minhash_lsh_dedup(str(d), threshold=0.8)
    # ... but the full 60*59/2 identical-pair set is still reported
    assert len(pairs) == 60 * 59 // 2
    assert (pairs["jaccard"] == 1.0).all()


def test_simhash_mega_duplicate_group_no_blowup(ray_session, tmp_path):
    from pdfrust_ray.stages.dedup import simhash_dedup

    mega = "identical boilerplate for the simhash banding stage " * 25
    rows = [{"doc_id": i, "text": mega} for i in range(40)]
    rows += [
        {"doc_id": 200 + i, "text": " ".join(f"s{i}t{j}u{(i * j) % 71}" for j in range(150))}
        for i in range(8)
    ]
    t = pa.Table.from_pylist(rows)
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    pairs = simhash_dedup(str(d), max_hamming=3)
    within = pairs[(pairs["doc_a"] < 40) & (pairs["doc_b"] < 40)]
    assert len(within) == 40 * 39 // 2
    assert (within["hamming"] == 0).all()


@needs_testdata
def test_embedding_dedup_matches_sql(ray_session, con):
    from pdfrust_ray.stages.dedup import embedding_dedup, embedding_dedup_sql

    mine = embedding_dedup(SF)
    oracle = con.execute(embedding_dedup_sql()).df()
    assert len(mine) > 0  # threshold chosen so the check is non-vacuous
    compare_rows(mine, oracle)


@needs_testdata
def test_segment_revenue_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import segment_revenue, segment_revenue_sql

    compare_rows(segment_revenue(SF), con.execute(segment_revenue_sql()).df())


@needs_testdata
def test_supplier_nation_agg_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import supplier_nation_agg, supplier_nation_agg_sql

    compare_rows(supplier_nation_agg(SF), con.execute(supplier_nation_agg_sql()).df())


@needs_testdata
def test_ann_topk_matches_sql_after_zero_copy(ray_session, con):
    # pins the FixedSizeList/list zero-copy embedding load path
    from pdfrust_ray.stages.similarity import brute_force_topk

    mine = brute_force_topk(SF)
    oracle = con.execute(
        """
        WITH q AS (
            SELECT vec_id AS query_id, embedding AS qe
            FROM embeddings WHERE vec_id IN (0,1,2,3,4)
        ), s AS (
            SELECT q.query_id, e.vec_id,
                   list_cosine_similarity(e.embedding, q.qe) AS cosine
            FROM embeddings e CROSS JOIN q
        ), r AS (
            SELECT query_id, vec_id, cosine,
                   row_number() OVER (PARTITION BY query_id
                                      ORDER BY cosine DESC, vec_id) AS rank
            FROM s
        )
        SELECT query_id, rank, vec_id
        FROM r WHERE rank <= 10 ORDER BY query_id, rank
        """
    ).df()
    compare_rows(mine, oracle)


def test_embedding_matrix_fixed_and_var_lists():
    from pdfrust_ray.functions.vectors import embedding_matrix

    data = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    var = pa.array(data, pa.list_(pa.float32()))
    fixed = pa.array(data, pa.list_(pa.float32(), 2))
    np.testing.assert_array_equal(embedding_matrix(var), np.asarray(data))
    np.testing.assert_array_equal(embedding_matrix(fixed), np.asarray(data))
    # sliced arrays keep correct offsets
    np.testing.assert_array_equal(embedding_matrix(var.slice(1, 2)), np.asarray(data[1:]))
    chunked = pa.chunked_array([var.slice(0, 1), var.slice(1, 2)])
    np.testing.assert_array_equal(embedding_matrix(chunked), np.asarray(data))
    with pytest.raises(ValueError):
        embedding_matrix(pa.array([[1.0], [2.0, 3.0]], pa.list_(pa.float32())))


@needs_testdata
def test_kmeans_monotone_deterministic_and_recovers_labels(ray_session):
    import pyarrow.parquet as _pq

    from pdfrust_ray.stages.similarity import kmeans_embeddings

    i2 = kmeans_embeddings(SF, k=10, iters=2)["inertia"].sum()
    i5a = kmeans_embeddings(SF, k=10, iters=5)
    i5b = kmeans_embeddings(SF, k=10, iters=5)
    assert i5a["inertia"].sum() <= i2 + 1e-9  # Lloyd's rounds never regress
    assert i5a.equals(i5b)  # bit-deterministic across runs
    # the fixture has 10 planted label clusters: all 10 buckets stay
    # populated and sizes are in the right ballpark
    labels = _pq.read_table(f"{SF}/embeddings.parquet", columns=["label"])
    n_labels = len(set(labels["label"].to_pylist()))
    assert len(i5a) == 10 == n_labels
    assert int(i5a["n"].min()) > 0


@needs_testdata
def test_ivf_exact_modes_match_exact_variants(ray_session, con):
    # IVF with every bucket probed / a single centroid is exhaustive:
    # the bucketed machinery must reproduce the exact variants verbatim
    from pdfrust_ray.stages.dedup import embedding_dedup, embedding_dedup_ivf
    from pdfrust_ray.stages.similarity import brute_force_topk, ivf_topk

    assert ivf_topk(SF, n_probe=16).equals(brute_force_topk(SF))
    assert embedding_dedup_ivf(SF, n_centroids=1).equals(embedding_dedup(SF))


@needs_testdata
def test_top_terms_per_doc_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.textops import top_terms_per_doc, top_terms_per_doc_sql

    mine = top_terms_per_doc(SF)
    oracle = con.execute(top_terms_per_doc_sql()).df()
    # ranking is (tf desc, df asc, term asc) — integer-exact, no float
    # score whose ULPs could flip near-ties
    compare_rows(mine, oracle)


@needs_testdata
def test_stratified_sample_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        customer_stratified_sample,
        customer_stratified_sample_sql,
    )

    mine = customer_stratified_sample(SF)
    oracle = con.execute(customer_stratified_sample_sql()).df()
    compare_rows(mine, oracle)


@needs_testdata
def test_events_value_quartiles_match_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_value_quartiles,
        events_value_quartiles_sql,
    )

    mine = events_value_quartiles(SF)
    oracle = con.execute(events_value_quartiles_sql()).df()
    compare_rows(mine, oracle)


@needs_testdata
def test_events_hopping_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import events_hopping_15m, events_hopping_15m_sql

    mine = events_hopping_15m(SF)
    mine["win_start"] = mine["win_start"].astype("datetime64[us]")
    oracle = con.execute(events_hopping_15m_sql()).df()
    compare_rows(mine, oracle)


@needs_testdata
def test_order_priority_revenue_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        order_priority_revenue,
        order_priority_revenue_sql,
    )

    mine = order_priority_revenue(SF)
    oracle = con.execute(order_priority_revenue_sql()).df()
    compare_rows(mine, oracle)


@needs_testdata
def test_quality_scores_match_sql(ray_session, con):
    from pdfrust_ray.pipelines.textops import quality_scores, quality_scores_sql

    mine = quality_scores(SF)
    oracle = con.execute(quality_scores_sql()).df()
    # each ratio is parenthesized in the SQL exactly as Python evaluates
    # it, so the rounded doubles are bit-identical
    compare_rows(mine, oracle)


@needs_testdata
def test_top_bigrams_match_sql(ray_session, con):
    from pdfrust_ray.pipelines.textops import top_bigrams, top_bigrams_sql

    mine = top_bigrams(SF)
    oracle = con.execute(top_bigrams_sql()).df()
    # ORDER BY (count desc, bigram) is a total order, so the top-k set
    # and its ordering are deterministic on both sides
    assert mine["bigram"].tolist() == oracle["bigram"].tolist()
    assert mine["cnt"].tolist() == oracle["cnt"].astype("int64").tolist()


@needs_testdata
def test_simhash_dedup_matches_sql(ray_session, con):
    from pdfrust_ray.stages.dedup import simhash_dedup, simhash_dedup_sql

    mine = simhash_dedup(SF)
    oracle = con.execute(simhash_dedup_sql()).df()
    # banding is pigeonhole-complete for hamming <= 3 and the verify is
    # exact, so the engine output IS the exact pair set
    compare_rows(mine, oracle)


@needs_testdata
def test_dedup_clusters_matches_sql(ray_session, con):
    from pdfrust_ray.stages.dedup import dedup_clusters, dedup_clusters_sql

    mine = dedup_clusters(SF)
    oracle = con.execute(dedup_clusters_sql()).df()
    compare_rows(mine, oracle)


@needs_testdata
def test_charset_best_match_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.textops import charset_best_match, charset_best_match_sql

    mine = charset_best_match(SF)
    oracle = con.execute(charset_best_match_sql()).df()
    # float sims are exact int/int divisions — bit-identical both sides
    compare_rows(mine, oracle)


@needs_testdata
def test_orders_rollup_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import orders_rollup, orders_rollup_sql

    compare_rows(orders_rollup(SF), con.execute(orders_rollup_sql()).df())


@needs_testdata
def test_lineitem_quantiles_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import lineitem_quantiles, lineitem_quantiles_sql

    compare_rows(lineitem_quantiles(SF), con.execute(lineitem_quantiles_sql()).df())


@needs_testdata
def test_customers_without_orders_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        customers_without_orders,
        customers_without_orders_sql,
    )

    mine = customers_without_orders(SF)
    assert len(mine) > 0  # threshold chosen so the anti-join is non-vacuous
    compare_rows(mine, con.execute(customers_without_orders_sql()).df())


@needs_testdata
def test_orders_sample_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import orders_sample, orders_sample_sql

    mine = orders_sample(SF)
    assert len(mine) > 0
    compare_rows(mine, con.execute(orders_sample_sql()).df())


def test_embedding_dedup_ivf_finds_planted(ray_session, tmp_path):
    from pdfrust_ray.stages.dedup import embedding_dedup, embedding_dedup_ivf

    rng = np.random.RandomState(7)
    vecs = rng.randn(60, 16).astype(np.float32)
    vecs[21] = vecs[20] + rng.randn(16).astype(np.float32) * 0.01  # near-dup pair
    rows = [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(60)]
    d = tmp_path / "emb"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "embeddings.parquet"))
    pairs = embedding_dedup_ivf(str(d), threshold=0.98, n_centroids=8)
    assert (20, 21) in set(zip(pairs["vec_a"], pairs["vec_b"]))
    # within-bucket results are a subset of the exact broadcast variant
    exact = set(map(tuple, embedding_dedup(str(d), threshold=0.98).values.tolist()))
    assert set(map(tuple, pairs.values.tolist())) <= exact


@needs_testdata
def test_bpe_token_counts_match_sql(ray_session, con):
    from pdfrust_ray.pipelines.textops import bpe_token_counts, bpe_token_counts_sql

    compare_rows(bpe_token_counts(SF), con.execute(bpe_token_counts_sql()).df())


@needs_testdata
def test_events_sliding_hour_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import events_sliding_hour, events_sliding_hour_sql

    compare_rows(events_sliding_hour(SF), con.execute(events_sliding_hour_sql()).df())


@needs_testdata
def test_nation_supplier_names_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        nation_supplier_names,
        nation_supplier_names_sql,
    )

    compare_rows(nation_supplier_names(SF), con.execute(nation_supplier_names_sql()).df())


def test_sliding_hour_counts_tied_peers(ray_session, tmp_path):
    # RANGE ... CURRENT ROW includes ALL peer rows with the same ts
    # (ADVICE r2): two tied events + one later must give [2, 2, 3],
    # matching the SQL window, not the positional [1, 2, 3].
    import duckdb

    from pdfrust_ray.pipelines.relational import events_sliding_hour, events_sliding_hour_sql

    t0 = pd.Timestamp("2026-01-01 12:00:00")
    df = pd.DataFrame(
        {
            "event_id": [1, 2, 3, 4, 5],
            "user_id": [7, 7, 7, 8, 8],
            "ts": [t0, t0, t0 + pd.Timedelta(minutes=30), t0, t0 + pd.Timedelta(hours=2)],
        }
    )
    d = tmp_path / "ev"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(df), str(d / "events.parquet"))
    mine = events_sliding_hour(str(d))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')")
    oracle = con.execute(events_sliding_hour_sql()).df()
    assert mine["n_last_hour"].tolist() == [2, 2, 3, 1, 1]
    compare_rows(mine, oracle)


def test_md5vec_matches_hashlib():
    import hashlib

    from pdfrust_ray.functions.md5vec import md5_prefix_u32, md5_prefix_u64

    msgs = [str(k).encode() for k in range(0, 5000, 7)] + [b""]
    got = md5_prefix_u32(msgs)
    want = [int(hashlib.md5(m).hexdigest()[:8], 16) for m in msgs]
    assert got.tolist() == want
    # every length 0-200 in one batch: single-block lanes below 56
    # bytes, hashlib from there on, results in input order
    msgs = [bytes((7 * n + j) % 256 for j in range(n)) for n in range(201)][::-1]
    assert md5_prefix_u32(msgs).tolist() == [int(hashlib.md5(m).hexdigest()[:8], 16) for m in msgs]
    assert md5_prefix_u64(msgs).tolist() == [
        int.from_bytes(hashlib.md5(m).digest()[:8], "big") for m in msgs
    ]


def test_flate_exact_rejects_truncated_stream():
    import zlib

    from pdfrust_ray.pdfref.errors import ParseError
    from pdfrust_ray.pdfref.filters import flate_decode_exact

    full = zlib.compress(b"spec-mode stream payload " * 64)
    assert flate_decode_exact(full) == b"spec-mode stream payload " * 64
    # trailing garbage after a complete stream is tolerated
    assert flate_decode_exact(full + b"\x00garbage") == b"spec-mode stream payload " * 64
    with pytest.raises(ParseError):
        flate_decode_exact(full[:-8])  # cut stream -> partial inflate


@needs_testdata
def test_minhash_pairs_equal_exact_jaccard(ray_session, con):
    # The LSH pipeline must reproduce the EXACT jaccard >= 0.8 pair set —
    # banding (candidate recall), distributed verify, and exact-dup
    # expansion all pinned at once; values are raw int/int divisions so
    # they compare bit-for-bit (same SQL the driver runs as the
    # minhash_dedup oracle).
    from pdfrust_ray.stages.dedup import minhash_lsh_dedup, minhash_lsh_dedup_sql

    mine = minhash_lsh_dedup(SF)
    assert len(mine) > 0
    compare_rows(mine, con.execute(minhash_lsh_dedup_sql()).df())


@needs_testdata
def test_simhash_pairs_equal_exact_hamming(ray_session, tmp_path):
    # SimHash banding is pigeonhole-COMPLETE for hamming <= 3 (any pair
    # within 3 bits of 64 shares one of the 4 16-bit chunks), so the
    # banded+verified pair set must EQUAL the exact all-pairs Hamming
    # join over the engine's own signatures (simhash itself needs
    # blake2b, which SQL lacks — the signature side table bridges that).
    import duckdb

    from pdfrust_ray.stages.dedup import simhash_dedup, simhash_signatures

    sig = simhash_signatures(SF).to_pandas()
    p = tmp_path / "sig.parquet"
    pa_t = pa.Table.from_pandas(sig)
    pq.write_table(pa_t, str(p))
    con = duckdb.connect()
    exact = con.execute(f"""
        WITH s AS (SELECT doc_id,
                          CAST(('0x' || simhash) AS UBIGINT) AS h
                   FROM read_parquet('{p}'))
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               CAST(bit_count(xor(a.h, b.h)) AS BIGINT) AS hamming
        FROM s a JOIN s b ON a.doc_id < b.doc_id
        WHERE bit_count(xor(a.h, b.h)) <= 3
        ORDER BY doc_a, doc_b
    """).df()
    mine = simhash_dedup(SF)
    assert len(mine) > 0
    compare_rows(mine, exact)


@needs_testdata
def test_charset_lsh_agrees_with_exact(ray_session):
    # the mask-band bucketed scale path must (a) never report a sim above
    # the exact best, and (b) agree with the exact variant on the
    # homogeneous fixture corpus (measured: 100% agreement — ASCII docs
    # share bands with their true best match)
    from pdfrust_ray.pipelines.textops import charset_best_match, charset_best_match_lsh

    exact = charset_best_match(SF).set_index("doc_id")
    lsh = charset_best_match_lsh(SF).set_index("doc_id")
    assert len(lsh) == len(exact)
    j = lsh.join(exact, lsuffix="_lsh", rsuffix="_ex", how="inner")
    assert (j["sim_lsh"] <= j["sim_ex"] + 1e-12).all()
    agree = ((j["match_id_lsh"] == j["match_id_ex"]) & (j["sim_lsh"] == j["sim_ex"])).mean()
    assert agree >= 0.95


@needs_testdata
def test_ngram_pairs_equal_exact_jaccard(ray_session, con):
    # The prefix-filtered inverted-index path must ALSO reproduce the
    # exact pair set — here that is a deterministic guarantee (the
    # prefix lemma gives candidate-complete recall), not LSH probability.
    from pdfrust_ray.stages.dedup import minhash_lsh_dedup_sql, ngram_jaccard_dedup

    mine = ngram_jaccard_dedup(SF)
    assert len(mine) > 0
    compare_rows(mine, con.execute(minhash_lsh_dedup_sql()).df())


def test_ngram_candidate_completeness_planted(ray_session, tmp_path):
    """Engine pair set == local brute-force exact pair set on a planted
    corpus — all pairs, not just the planted ones, because the prefix
    filter guarantees recall at the threshold."""
    from pdfrust_ray.functions.minhash import char_shingles_u64, jaccard_u64
    from pdfrust_ray.stages.dedup import ngram_jaccard_dedup

    base = " ".join(f"token{i}ax{i * 7 % 91}" for i in range(300))
    rows = []
    for i in range(20):
        rows.append(
            {"doc_id": i, "text": " ".join(f"doc{i}w{j}q{(i * j) % 97}" for j in range(150))}
        )
    rows.append({"doc_id": 100, "text": base})
    rows.append({"doc_id": 101, "text": base + " slightly changed tail here"})
    rows.append({"doc_id": 102, "text": base})
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))

    threshold = 0.7
    sh = {r["doc_id"]: char_shingles_u64(r["text"]) for r in rows}
    ids = sorted(sh)
    expected = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if jaccard_u64(sh[a], sh[b]) >= threshold:
                expected.add((a, b))
    pairs = ngram_jaccard_dedup(str(d), threshold=threshold)
    assert set(zip(pairs["doc_a"], pairs["doc_b"])) == expected
    assert (100, 102) in expected  # the planted exact dup really is there


def test_ngram_mega_duplicate_group_no_blowup(ray_session, tmp_path):
    """Prefix buckets pair distinct-text representatives only; a mega
    exact-duplicate group expands cheaply after the verify."""
    from pdfrust_ray.stages.dedup import ngram_jaccard_dedup

    mega = "the same boilerplate text repeated across the corpus " * 20
    rows = [{"doc_id": i, "text": mega} for i in range(60)]
    rows += [
        {"doc_id": 100 + i, "text": " ".join(f"m{i}n{j}p{(i * j) % 79}" for j in range(120))}
        for i in range(10)
    ]
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
    pairs = ngram_jaccard_dedup(str(d), threshold=0.8)
    assert len(pairs) == 60 * 59 // 2
    assert (pairs["jaccard"] == 1.0).all()


def test_semantic_dedup_subset_recall_and_planted(ray_session, tmp_path):
    """SemDeDup pairs must be a subset of the exact all-pairs set;
    planted near-identical vectors must be recovered (they share a
    cluster by construction); recall vs exact stays high because near-
    dups rarely straddle a centroid boundary."""
    from pdfrust_ray.stages.dedup import embedding_dedup, semantic_dedup

    rng = np.random.RandomState(11)
    vecs = rng.randn(80, 16).astype(np.float32)
    vecs[31] = vecs[30] + rng.randn(16).astype(np.float32) * 0.01
    vecs[55] = vecs[54] + rng.randn(16).astype(np.float32) * 0.01
    rows = [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(80)]
    d = tmp_path / "emb"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "embeddings.parquet"))
    pairs = semantic_dedup(str(d), k=6, iters=3, threshold=0.98)
    got = set(zip(pairs["vec_a"], pairs["vec_b"]))
    assert (30, 31) in got and (54, 55) in got
    exact = set(map(tuple, embedding_dedup(str(d), threshold=0.98).values.tolist()))
    assert got <= exact


@needs_testdata
def test_semantic_dedup_k1_is_exact_and_k10_subset(ray_session):
    """With a single cluster SemDeDup degenerates to the exact
    all-pairs scan — the whole machinery (k-means train, assignment,
    within-cluster block) must reproduce embedding_dedup exactly. At
    k=10 the result is a subset (the fixture's tau=0.45 'pairs' are
    weakly-correlated random vectors, not true near-dups, so some
    straddle centroid boundaries by construction — genuine near-dups
    are covered by the planted test)."""
    from pdfrust_ray.stages.dedup import embedding_dedup, semantic_dedup

    exact_df = embedding_dedup(SF, threshold=0.45)
    assert semantic_dedup(SF, k=1, iters=2, threshold=0.45).equals(exact_df)
    exact = set(map(tuple, exact_df.values.tolist()))
    got = set(map(tuple, semantic_dedup(SF, threshold=0.45).values.tolist()))
    assert got <= exact and len(got) > 0


@needs_testdata
def test_temperature_mix_sample_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.llmdata import (
        temperature_mix_sample,
        temperature_mix_sample_sql,
    )

    mine = temperature_mix_sample(SF)
    assert len(mine) > 0
    compare_rows(mine, con.execute(temperature_mix_sample_sql()).df())
    # alpha=0.5 flattens the mix: the sampled lang shares must sit
    # between uniform and the natural distribution
    import pyarrow.parquet as _pq

    langs = _pq.read_table(f"{SF}/documents.parquet", columns=["lang"]).to_pandas()
    nat = langs["lang"].value_counts(normalize=True)
    smp = mine["lang"].value_counts(normalize=True)
    top = nat.idxmax()
    assert smp[top] < nat[top]  # dominant language share shrinks


@needs_testdata
def test_running_global_total_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        running_global_total,
        running_global_total_sql,
    )

    mine = running_global_total(SF)
    compare_rows(mine, con.execute(running_global_total_sql()).df())
    # the scan must be globally monotone and end at the corpus total
    assert mine["cum_cents"].is_monotonic_increasing
    total = con.execute(
        "SELECT SUM(CAST(FLOOR(value*100.0+0.5) AS BIGINT)) FROM events"
    ).fetchone()[0]
    assert mine["cum_cents"].iloc[-1] == total


def test_running_global_total_bucket_boundaries(ray_session, tmp_path):
    """Hand-built stream crossing several bucket boundaries with a tiny
    width: offsets must chain exactly across buckets."""
    import pyarrow.parquet as _pq

    from pdfrust_ray.pipelines.relational import running_global_total

    rows = [{"event_id": i, "value": float(i % 7) + 0.25} for i in range(100)]
    d = tmp_path / "ev"
    d.mkdir()
    _pq.write_table(pa.Table.from_pylist(rows), str(d / "events.parquet"))
    out = running_global_total(str(d), bucket_width=8)
    cents = [int(((i % 7) + 0.25) * 100 + 0.5) for i in range(100)]
    import itertools

    assert out["cum_cents"].tolist() == list(itertools.accumulate(cents))


@needs_testdata
def test_bottom_k_sample_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import bottom_k_sample, bottom_k_sample_sql

    mine = bottom_k_sample(SF)
    assert len(mine) == 100
    compare_rows(mine, con.execute(bottom_k_sample_sql()).df())


def test_bottom_k_sample_merge_property(ray_session, tmp_path):
    """bottom-k of a union == bottom-k of (bottom-k(A) union bottom-k(B))
    — the mergeability that makes the sketch distributed-safe."""
    import pyarrow.parquet as _pq

    from pdfrust_ray.functions.md5vec import md5_prefix_u32
    from pdfrust_ray.pipelines.relational import bottom_k_sample

    rows = [{"event_id": i, "value": 0.0} for i in range(5000)]
    d = tmp_path / "ev"
    d.mkdir()
    _pq.write_table(pa.Table.from_pylist(rows), str(d / "events.parquet"))
    out = bottom_k_sample(str(d), k=50)
    # serial reference: full hash, global bottom-50
    h = md5_prefix_u32([str(i).encode() for i in range(5000)])
    order = np.lexsort((np.arange(5000), h))[:50]
    assert out["event_id"].tolist() == list(order)


@needs_testdata
def test_heavy_user_full_outer_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        heavy_user_full_outer,
        heavy_user_full_outer_sql,
    )

    mine = heavy_user_full_outer(SF)
    # both outer sides must be exercised at the fixture
    assert {"click_only", "purchase_only", "both"} <= set(mine["membership"])
    compare_rows(mine, con.execute(heavy_user_full_outer_sql()).df())


@needs_testdata
def test_events_daily_unpivot_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_daily_pivot,
        events_daily_unpivot,
        events_daily_unpivot_sql,
    )

    mine = events_daily_unpivot(SF)
    compare_rows(mine, con.execute(events_daily_unpivot_sql()).df())
    # unpivot(pivot) involution: wide totals reappear as long sums
    wide = events_daily_pivot(SF)
    assert mine["n"].sum() == sum(wide[f"n_{et}"].sum() for et in
                                  ("click", "error", "purchase", "signup", "view"))


@needs_testdata
def test_orders_cube_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import orders_cube, orders_cube_sql

    mine = orders_cube(SF)
    compare_rows(mine, con.execute(orders_cube_sql()).df())
    # lattice consistency: every level sums to the grand total
    g = mine[(mine["o_orderstatus"] == "ALL") & (mine["o_orderpriority"] == "ALL")]
    base = mine[(mine["o_orderstatus"] != "ALL") & (mine["o_orderpriority"] != "ALL")]
    assert base["n_orders"].sum() == g["n_orders"].iloc[0]


@needs_testdata
def test_late_events_by_day_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        late_events_by_day,
        late_events_by_day_sql,
    )

    mine = late_events_by_day(SF)
    assert mine["n_late"].sum() > 0 and mine["n_on_time"].sum() > 0
    compare_rows(mine, con.execute(late_events_by_day_sql()).df())


def test_late_events_watermark_semantics(ray_session, tmp_path):
    """Hand-built stream: jitter 0 (md5 % 1) => arrival order == event
    time order => nothing is ever late; with one event pushed far into
    the past via its ts, it must be flagged late in its day."""
    import pyarrow.parquet as _pq

    from pdfrust_ray.pipelines.relational import late_events_by_day

    base = 1_700_000_000_000_000
    rows = [
        {"event_id": i, "ts": base + i * 60_000_000} for i in range(200)
    ]  # one per minute, in order
    d = tmp_path / "ev"
    d.mkdir()
    t = pa.Table.from_pylist(rows)
    t = t.set_column(1, "ts", pa.compute.cast(t["ts"], pa.timestamp("us")))
    _pq.write_table(t, str(d / "events.parquet"))
    out = late_events_by_day(str(d), jitter_us=1)
    assert out["n_late"].sum() == 0
    # with real disorder (45 min jitter, 5 min lateness) the result
    # must match an independent serial replay of the same stream
    from pdfrust_ray.functions.md5vec import md5_prefix_u32

    jitter, lateness = 2_700_000_000, 300_000_000
    tu = np.array([base + i * 60_000_000 for i in range(200)], dtype=np.int64)
    h = md5_prefix_u32([str(i).encode() for i in range(200)])
    ak = tu + (h % np.uint64(jitter)).astype(np.int64)
    order = np.lexsort((np.arange(200), ak))
    wm = -1
    n_late = 0
    for i in order:
        if wm >= 0 and tu[i] < wm - lateness:
            n_late += 1
        wm = max(wm, tu[i])
    assert n_late > 0  # the construction is non-vacuous
    out = late_events_by_day(str(d), jitter_us=jitter, lateness_us=lateness)
    assert out["n_late"].sum() == n_late


@needs_testdata
def test_embedding_second_moment_matches_sql(ray_session, con):
    from pdfrust_ray.stages.similarity import (
        embedding_second_moment,
        embedding_second_moment_sql,
    )

    mine = embedding_second_moment(SF)
    compare_rows(mine, con.execute(embedding_second_moment_sql()).df())
    # diagonal entries are sums of squares: strictly positive
    diag = mine[mine["i"] == mine["j"]]
    assert (diag["m_q"] > 0).all()


@needs_testdata
def test_embedding_pca_spectrum_properties(ray_session):
    from pdfrust_ray.stages.similarity import (
        embedding_pca_topk,
        embedding_second_moment,
    )

    a = embedding_pca_topk(SF, k=64)
    b = embedding_pca_topk(SF, k=64)
    assert a.equals(b)  # deterministic
    assert (a["eigenvalue"] >= -1e-6).all()  # PSD spectrum
    assert a["eigenvalue"].is_monotonic_decreasing
    # trace preservation: sum of eigenvalues == sum of diagonal
    tri = embedding_second_moment(SF)
    trace = tri[tri["i"] == tri["j"]]["m_q"].sum() / 1e12
    assert abs(a["eigenvalue"].sum() - trace) < 1e-4


@needs_testdata
def test_orders_skyline_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import orders_skyline, orders_skyline_sql

    mine = orders_skyline(SF)
    assert 0 < len(mine) < 50  # a front, not the table
    compare_rows(mine, con.execute(orders_skyline_sql()).df())


def test_skyline_local_front_preserves_global(ray_session, tmp_path):
    """Two-phase correctness: brute-force front over all rows equals
    the distributed local-front + merge result, on data with ties and
    duplicated points (neither of a tied pair dominates the other)."""
    import pyarrow.parquet as _pq

    from pdfrust_ray.pipelines.relational import orders_skyline

    rng = np.random.RandomState(13)
    rows = []
    for i in range(500):
        price = float(rng.randint(1, 50))
        day = int(rng.randint(0, 40))
        rows.append(
            {
                "o_orderkey": i,
                "o_totalprice": price,
                "o_orderdate": day,
            }
        )
    rows.append(dict(rows[7], o_orderkey=900))  # exact duplicate point
    for r in rows:
        r["o_orderdate"] = r["o_orderdate"] * 86_400_000_000
    t = pa.Table.from_pylist(rows)
    t = t.set_column(2, "o_orderdate", pa.compute.cast(t["o_orderdate"], pa.timestamp("us")))
    d = tmp_path / "o"
    d.mkdir()
    _pq.write_table(t, str(d / "orders.parquet"))
    mine = orders_skyline(str(d))
    pts = [(r["o_totalprice"], r["o_orderdate"], r["o_orderkey"]) for r in rows]
    front = []
    for p, dy, kk in pts:
        dominated = any(
            (p2 >= p and d2 >= dy and (p2 > p or d2 > dy)) for p2, d2, _ in pts
        )
        if not dominated:
            front.append(kk)
    assert sorted(mine["o_orderkey"]) == sorted(front)


@needs_testdata
def test_events_per_user_sample_matches_sql(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_per_user_sample,
        events_per_user_sample_sql,
    )

    mine = events_per_user_sample(SF)
    assert (mine.groupby("user_id").size() == 3).all()
    compare_rows(mine, con.execute(events_per_user_sample_sql()).df())
