"""Corpus quality filtering and lexical search over the documents table.

  - gopher_repetition: the Gopher/MassiveText repetition filters
    (Rae et al. 2021, "Scaling Language Models: ... Gopher", §A1.1) —
    per-document duplicate-word fraction and top-bigram share with a
    repetitive flag. Embarrassingly parallel (one streaming pass, no
    shuffle); every ratio is a single IEEE division of exact integer
    counts, so the SQL oracle is bit-identical.
  - bm25_topk: Okapi BM25 ranked retrieval (Robertson & Walker 1994).
    Corpus stats (N, avgdl, per-query-term df) come from one combiner
    pass whose exchange is a handful of counters per block; scoring is
    a broadcast-parameter streaming scan with a per-batch local top-k,
    so nothing corpus-sized ever moves. Per-term float scores are
    quantized to integer nano-units (floor(x*1e9 + 0.5), DuckDB ROUND
    semantics) BEFORE summation, so the doc score is an order-free
    int64 sum and the SQL oracle matches exactly.

The reference engine has no corpus-level operators at all (pdfrust is
one-document-in, string-out; src/lib.rs:75-80) — these are engine-side
additions for the 100-TB training-data pipeline tier.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..stages.broadcast import worker_value

# Gopher-style thresholds, chosen to split the fixture corpus
# non-trivially (dup-word median ~0.54, top-bigram median ~0.03).
DUP_WORD_MAX = 0.6
TOP_BIGRAM_MAX = 0.08

# standard Okapi constants
BM25_K1 = 1.2
BM25_B = 0.75


def _words(text: str) -> list[str]:
    """Lowercased whitespace tokens, empties dropped — the exact
    semantics of list_filter(string_split_regex(lower(text),'\\s+'))."""
    return text.lower().split()


def gopher_repetition(sf_dir: str) -> pd.DataFrame:
    """Per-document repetition stats + keep/flag decision:

      dup_word_frac   = (n_words - n_distinct) / n_words
      top_bigram_share = max bigram count / (n_words - 1)   (0 if <2 words)
      repetitive      = dup_word_frac > 0.6 OR top_bigram_share > 0.08

    One streaming map_batches pass, no shuffle, no driver state: the
    filter a 100-TB cleaning pipeline runs before anything else. The
    divisions are single IEEE ops over exact integer counts, shared
    verbatim with the SQL twin."""

    def stats(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        nw, nd, topb = [], [], []
        for txt in t["text"].to_pylist():
            ws = _words(txt)
            nw.append(len(ws))
            nd.append(len(set(ws)))
            if len(ws) > 1:
                c = Counter(zip(ws, ws[1:]))
                topb.append(max(c.values()))
            else:
                topb.append(0)
        nw_a = np.asarray(nw, dtype=np.int64)
        nd_a = np.asarray(nd, dtype=np.int64)
        tb_a = np.asarray(topb, dtype=np.int64)
        dup = np.divide(
            (nw_a - nd_a).astype(np.float64),
            nw_a.astype(np.float64),
            out=np.zeros(len(nw), dtype=np.float64),
            where=nw_a > 0,
        )
        share = np.divide(
            tb_a.astype(np.float64),
            (nw_a - 1).astype(np.float64),
            out=np.zeros(len(nw), dtype=np.float64),
            where=nw_a > 1,
        )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_words": pa.array(nw_a, pa.int64()),
                "n_distinct": pa.array(nd_a, pa.int64()),
                "dup_word_frac": pa.array(dup, pa.float64()),
                "top_bigram_share": pa.array(share, pa.float64()),
                "repetitive": pa.array(
                    (dup > DUP_WORD_MAX) | (share > TOP_BIGRAM_MAX), pa.bool_()
                ),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(stats, batch_format="pyarrow").to_pandas()
    for c in ("doc_id", "n_words", "n_distinct"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def gopher_repetition_sql() -> str:
    return rf"""
        WITH w AS (
          SELECT doc_id,
                 list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS ws
          FROM documents
        ), s AS (
          SELECT doc_id, CAST(len(ws) AS BIGINT) AS n_words,
                 CAST(len(list_distinct(ws)) AS BIGINT) AS n_distinct, ws
          FROM w
        ), b AS (
          SELECT doc_id, unnest([ws[x] || ' ' || ws[x + 1] FOR x IN range(1, len(ws))]) AS bg
          FROM w
        ), bc AS (
          SELECT doc_id, bg, COUNT(*) AS c FROM b GROUP BY doc_id, bg
        ), bm AS (
          SELECT doc_id, MAX(c) AS top_cnt FROM bc GROUP BY doc_id
        )
        SELECT s.doc_id, s.n_words, s.n_distinct,
               CASE WHEN s.n_words > 0
                    THEN (s.n_words - s.n_distinct) / s.n_words ELSE 0.0 END
                 AS dup_word_frac,
               CASE WHEN s.n_words > 1
                    THEN COALESCE(bm.top_cnt, 0) / (s.n_words - 1) ELSE 0.0 END
                 AS top_bigram_share,
               (CASE WHEN s.n_words > 0
                     THEN (s.n_words - s.n_distinct) / s.n_words ELSE 0.0 END
                  > {DUP_WORD_MAX}
                OR CASE WHEN s.n_words > 1
                        THEN COALESCE(bm.top_cnt, 0) / (s.n_words - 1) ELSE 0.0 END
                  > {TOP_BIGRAM_MAX}) AS repetitive
        FROM s LEFT JOIN bm ON s.doc_id = bm.doc_id
        ORDER BY s.doc_id
    """


def _probe_terms(sf_dir: str, n: int) -> list[str]:
    """Deterministic query: the first `n` sorted distinct tokens of the
    lowest-doc_id document (found inside the first 64 rows of the first
    shard — no corpus pass)."""
    first = (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .limit(64)
        .to_pandas()
    )
    row = first.loc[first["doc_id"].idxmin()]
    return sorted(set(_words(row["text"])))[:n]


def _quantize(x: float) -> int:
    """floor(x*1e9 + 0.5): DuckDB ROUND (half-away-from-zero for the
    non-negative scores here), applied per term BEFORE summation so doc
    scores are order-free integer sums."""
    return int(math.floor(x * 1000000000.0 + 0.5))


def bm25_topk(sf_dir: str, n_terms: int = 4, k: int = 20) -> pd.DataFrame:
    """Okapi BM25 top-k retrieval for a deterministic query.

    Pass 1 (stats): per-batch combiner emits ONE row of counters
    (n_docs, total_words, df per query term) — the exchange is
    O(blocks), independent of corpus and vocabulary size.
    Pass 2 (score): idf/avgdl broadcast as plain parameters; each batch
    scores its docs and emits only its local top-k, so the driver merge
    handles O(blocks x k) rows. score_q is the int64 sum of per-term
    nano-quantized BM25 contributions (see _quantize), making the
    result exact-SQL-verifiable despite float scoring."""
    terms = _probe_terms(sf_dir, n_terms)
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def stat_partial(t: pa.Table) -> pa.Table:
        n_docs = t.num_rows
        total = 0
        dfs = [0] * len(terms)
        for txt in t["text"].to_pylist():
            ws = _words(txt)
            total += len(ws)
            seen = set(ws)
            for i, term in enumerate(terms):
                if term in seen:
                    dfs[i] += 1
        cols = {
            "n_docs": pa.array([n_docs], pa.int64()),
            "total_words": pa.array([total], pa.int64()),
        }
        for i, d in enumerate(dfs):
            cols[f"df_{i}"] = pa.array([d], pa.int64())
        return pa.table(cols)

    stats = ds.map_batches(stat_partial, batch_format="pyarrow").to_pandas().sum()
    n_docs = int(stats["n_docs"])
    avgdl = int(stats["total_words"]) / n_docs
    idf = [
        math.log((n_docs - int(stats[f"df_{i}"]) + 0.5) / (int(stats[f"df_{i}"]) + 0.5) + 1.0)
        for i in range(len(terms))
    ]

    def score_local_topk(t: pa.Table) -> pa.Table:
        rows = []
        for doc_id, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            ws = _words(txt)
            dl = len(ws)
            c = Counter(ws)
            s = 0
            for i, term in enumerate(terms):
                tf = c.get(term, 0)
                if tf == 0:
                    continue
                raw = (idf[i] * (tf * (BM25_K1 + 1.0))) / (
                    tf + (BM25_K1 * ((1.0 - BM25_B) + (BM25_B * (dl / avgdl))))
                )
                s += _quantize(raw)
            rows.append((doc_id, s))
        rows.sort(key=lambda r: (-r[1], r[0]))
        rows = rows[:k]
        return pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "score_q": pa.array([r[1] for r in rows], pa.int64()),
            }
        )

    out = ds.map_batches(score_local_topk, batch_format="pyarrow").to_pandas()
    out = out.sort_values(["score_q", "doc_id"], ascending=[False, True]).head(k)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)


def bm25_topk_sql(n_terms: int = 4, k: int = 20) -> str:
    """Exact twin: identical expression tree per term (idf, tf
    saturation, length normalization), identical floor-quantization,
    integer summation. `q` rebuilds the deterministic probe query."""
    return rf"""
        WITH q AS (
          SELECT term, row_number() OVER (ORDER BY term) - 1 AS ti FROM (
            SELECT DISTINCT unnest(list_filter(
                     string_split_regex(lower(text), '\s+'), x -> x <> '')) AS term
            FROM documents
            WHERE doc_id = (SELECT MIN(doc_id) FROM documents)
            ORDER BY term LIMIT {n_terms}
          )
        ), w AS (
          SELECT doc_id,
                 list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS ws
          FROM documents
        ), g AS (
          SELECT CAST(COUNT(*) AS BIGINT) AS n_docs,
                 CAST(SUM(len(ws)) AS BIGINT) AS total_words
          FROM w
        ), df AS (
          SELECT q.term, q.ti,
                 CAST(COUNT(*) FILTER (WHERE list_contains(w.ws, q.term)) AS BIGINT) AS df
          FROM q, w GROUP BY q.term, q.ti
        ), tf AS (
          SELECT w.doc_id, df.term, df.df,
                 CAST(len(list_filter(w.ws, x -> x = df.term)) AS BIGINT) AS tf,
                 CAST(len(w.ws) AS BIGINT) AS dl
          FROM w, df
        ), contrib AS (
          SELECT t.doc_id,
                 CASE WHEN t.tf = 0 THEN CAST(0 AS BIGINT)
                      ELSE CAST(FLOOR(
                        ((ln((g.n_docs - t.df + 0.5) / (t.df + 0.5) + 1.0)
                          * (t.tf * ({BM25_K1} + 1.0)))
                         / (t.tf + ({BM25_K1} * ((1.0 - {BM25_B})
                              + ({BM25_B} * (t.dl / (g.total_words / g.n_docs)))))))
                        * 1000000000.0 + 0.5) AS BIGINT) END AS sq
          FROM tf t, g
        )
        SELECT doc_id, CAST(SUM(sq) AS BIGINT) AS score_q
        FROM contrib GROUP BY doc_id
        ORDER BY score_q DESC, doc_id LIMIT {k}
    """


def bigram_lm_scores(sf_dir: str) -> pd.DataFrame:
    """Per-document surprisal under a corpus-trained bigram language
    model — the KenLM-style perplexity filter of CCNet/RedPajama,
    expressed exactly:

      train: distributed bigram counting (per-batch Counter combiner ->
        vocabulary^2-bounded groupby Sum — the exchange carries
        distinct-bigram rows, never tokens); context counts and V
        derive from the same table on the driver (bounded, like the BPE
        trainer's merge table);
      quantize: p(b|a) = (c_ab + 0.5) / (c_a + 0.5*V)  (add-half
        smoothing); q_ab = floor(-ln(p)*1e6 + 0.5) — micro-nats,
        computed ONCE per distinct bigram with libm log (bit-identical
        to DuckDB ln), broadcast to the scoring tasks;
      score: streaming scan summing int64 q over each doc's bigrams —
        order-free, so the SQL twin matches exactly.

    Returns (doc_id, n_bigrams, surprisal_q); surprisal_q/1e6 is the
    total negative log-likelihood in nats. Higher = more surprising
    under the corpus model."""
    from ray.data.aggregate import Sum

    import ray

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def bigram_partial(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        vocab = set()
        for txt in t["text"].to_pylist():
            ws = _words(txt)
            vocab.update(ws)
            c.update(zip(ws, ws[1:]))
        keys = list(c.keys())
        return pa.table(
            {
                "a": pa.array([k[0] for k in keys], pa.string()),
                "b": pa.array([k[1] for k in keys], pa.string()),
                "c": pa.array(
                    np.fromiter(c.values(), dtype=np.int64, count=len(keys)), pa.int64()
                ),
            }
        )

    def vocab_partial(t: pa.Table) -> pa.Table:
        vocab = set()
        for txt in t["text"].to_pylist():
            vocab.update(_words(txt))
        return pa.table({"w": pa.array(sorted(vocab), pa.string())})

    counts = (
        ds.map_batches(bigram_partial, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
    )
    # |V|: per-batch distinct -> vocabulary-sized groupby -> row count
    n_vocab = int(
        ds.map_batches(vocab_partial, batch_format="pyarrow").groupby("w").count().count()
    )
    ctx = counts.groupby("a")["c"].sum().to_dict()
    q_table = {
        (r.a, r.b): int(
            math.floor(-math.log((int(r.c) + 0.5) / (ctx[r.a] + 0.5 * n_vocab)) * 1000000.0 + 0.5)
        )
        for r in counts.itertuples(index=False)
    }
    qref = ray.put(q_table)

    def score(t: pa.Table) -> pa.Table:
        q = worker_value(qref)
        ids, nb, sq = [], [], []
        for doc_id, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            ws = _words(txt)
            ids.append(doc_id)
            nb.append(max(0, len(ws) - 1))
            sq.append(sum(q[(a, b)] for a, b in zip(ws, ws[1:])))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_bigrams": pa.array(nb, pa.int64()),
                "surprisal_q": pa.array(sq, pa.int64()),
            }
        )

    out = ds.map_batches(score, batch_format="pyarrow", batch_size=1024).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def bigram_lm_scores_sql() -> str:
    """Exact twin: identical smoothing expression, ln, and micro-nat
    floor-quantization per distinct bigram; per-doc integer sums."""
    return r"""
        WITH w AS (
          SELECT doc_id,
                 list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS ws
          FROM documents
        ), bg AS (
          SELECT doc_id, unnest([{'a': ws[x], 'b': ws[x + 1]} FOR x IN range(1, len(ws))],
                                recursive := true)
          FROM w
        ), cnt AS (
          SELECT a, b, CAST(COUNT(*) AS BIGINT) AS c FROM bg GROUP BY a, b
        ), ctx AS (
          SELECT a, CAST(SUM(c) AS BIGINT) AS ca FROM cnt GROUP BY a
        ), v AS (
          SELECT CAST(COUNT(DISTINCT u.w) AS BIGINT) AS nv
          FROM (SELECT unnest(ws) AS w FROM w) u
        ), q AS (
          SELECT cnt.a, cnt.b,
                 CAST(FLOOR(-ln((cnt.c + 0.5) / (ctx.ca + 0.5 * v.nv)) * 1000000.0 + 0.5)
                      AS BIGINT) AS qv
          FROM cnt JOIN ctx ON cnt.a = ctx.a, v
        ), scores AS (
          SELECT bg.doc_id, COUNT(*) AS nb, SUM(q.qv) AS sq
          FROM bg JOIN q ON bg.a = q.a AND bg.b = q.b
          GROUP BY bg.doc_id
        )
        SELECT w.doc_id,
               CAST(COALESCE(s.nb, 0) AS BIGINT) AS n_bigrams,
               CAST(COALESCE(s.sq, 0) AS BIGINT) AS surprisal_q
        FROM w LEFT JOIN scores s ON w.doc_id = s.doc_id
        ORDER BY w.doc_id
    """


def _char_grams(name: str, k: int = 3) -> set[str]:
    """Distinct character k-grams — identical semantics to DuckDB
    list_distinct([substr(name, x, k) ...])."""
    return {name[i : i + k] for i in range(len(name) - k + 1)}


def name_similarity_join(
    sf_dir: str, threshold: float = 0.5, table: str = "part", col: str = "p_name"
) -> pd.DataFrame:
    """String-similarity self-join (entity resolution): pairs of
    DISTINCT names whose char-3-gram Jaccard >= threshold.

    Scale shape (AllPairs/SSJoin prefix filtering, Bayardo et al.
    WWW'07 — same lemma as stages/dedup.py::_prefix_rows): the
    vocabulary-sized distinct-name set is reduced by one groupby; each
    name indexes only its first n - ceil(t*n) + 1 grams under the
    global (lexicographic) gram order, which is candidate-COMPLETE for
    J >= t; candidates come from gram-bucket joins, are deduped by a
    pair-keyed groupby, and each surviving pair is verified exactly
    from its own two names — no all-pairs pass anywhere. At 100 TB the
    gram buckets of stopword-like grams need the cap/salt treatment of
    the LSH buckets (names here are bounded entity strings, kept
    exact so the SQL twin matches bit-for-bit).

    Output: (name_a, name_b, n_inter, n_union, jaccard) — jaccard is
    the single IEEE division n_inter/n_union, bit-identical to SQL."""
    ds = rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=[col])
    names = ds.groupby(col).count()

    def prefix_rows(t: pa.Table) -> pa.Table:
        out_g, out_n = [], []
        for nm in t[col].to_pylist():
            gs = sorted(_char_grams(nm))
            n = len(gs)
            p = n - math.ceil(threshold * n) + 1 if n else 0
            for g in gs[:p]:
                out_g.append(g)
                out_n.append(nm)
        return pa.table(
            {"gram": pa.array(out_g, pa.string()), "name": pa.array(out_n, pa.string())}
        )

    def pairs_of_bucket(g: pd.DataFrame) -> pd.DataFrame:
        nms = sorted(set(g["name"]))
        rows = [(a, b) for i, a in enumerate(nms) for b in nms[i + 1 :]]
        return pd.DataFrame(rows, columns=["name_a", "name_b"])

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        a, b = g["name_a"].iloc[0], g["name_b"].iloc[0]
        ga, gb = _char_grams(a), _char_grams(b)
        inter = len(ga & gb)
        union = len(ga) + len(gb) - inter
        j = inter / union if union else 0.0
        if j < threshold:
            return pd.DataFrame(
                {
                    "name_a": pd.Series([], dtype="str"),
                    "name_b": pd.Series([], dtype="str"),
                    "n_inter": pd.Series([], dtype="int64"),
                    "n_union": pd.Series([], dtype="int64"),
                    "jaccard": pd.Series([], dtype="float64"),
                }
            )
        return pd.DataFrame(
            {
                "name_a": [a],
                "name_b": [b],
                "n_inter": pd.Series([inter], dtype="int64"),
                "n_union": pd.Series([union], dtype="int64"),
                "jaccard": pd.Series([j], dtype="float64"),
            }
        )

    out = (
        names.map_batches(prefix_rows, batch_format="pyarrow")
        .groupby("gram")
        .map_groups(pairs_of_bucket, batch_format="pandas")
        .groupby(["name_a", "name_b"])
        .map_groups(verify, batch_format="pandas")
        .to_pandas()
    )
    if "name_a" not in out.columns or out.empty:
        return pd.DataFrame(
            {
                "name_a": pd.Series([], dtype="str"),
                "name_b": pd.Series([], dtype="str"),
                "n_inter": pd.Series([], dtype="int64"),
                "n_union": pd.Series([], dtype="int64"),
                "jaccard": pd.Series([], dtype="float64"),
            }
        )
    out["n_inter"] = out["n_inter"].astype("int64")
    out["n_union"] = out["n_union"].astype("int64")
    return out.sort_values(["name_a", "name_b"]).reset_index(drop=True)


def name_similarity_join_sql(
    threshold: float = 0.5, table: str = "part", col: str = "p_name"
) -> str:
    return f"""
        WITH n AS (SELECT DISTINCT {col} AS name FROM {table}),
        g AS (
          SELECT name,
                 list_distinct([substr(name, CAST(x AS INTEGER), 3)
                                FOR x IN range(1, length(name) - 1)]) AS gs
          FROM n
        ), p AS (
          SELECT a.name AS name_a, b.name AS name_b,
                 CAST(len(list_intersect(a.gs, b.gs)) AS BIGINT) AS n_inter,
                 CAST(len(a.gs) + len(b.gs) - len(list_intersect(a.gs, b.gs))
                      AS BIGINT) AS n_union
          FROM g a JOIN g b ON a.name < b.name
        )
        SELECT name_a, name_b, n_inter, n_union, n_inter / n_union AS jaccard
        FROM p WHERE n_inter / n_union >= {threshold}
        ORDER BY name_a, name_b
    """


def compression_ratio_scores(sf_dir: str, level: int = 6) -> pd.DataFrame:
    """Per-document zlib compressibility — the cheap
    information-density quality signal (highly compressible text is
    repetitive/templated; the C4/Gopher pipelines use it as a
    complement to the n-gram repetition rules, and it needs no
    tokenization at all).

    ratio_q = floor(compressed_len * 1e6 / raw_len) — integer
    micro-units so the result is exact and order-free. zlib level is
    pinned (6) and zlib's output is deterministic for a given level
    and input, so the scores are reproducible run to run. One
    streaming map_batches pass, no shuffle, no driver state.

    No SQL twin (DuckDB has no zlib surface) — pinned by the direct
    serial-recompute pytest and the repetitive-text-compresses-better
    property test."""
    import zlib

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        ids, raws, comps, ratios = [], [], [], []
        for doc_id, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            b = txt.encode()
            c = len(zlib.compress(b, level))
            ids.append(doc_id)
            raws.append(len(b))
            comps.append(c)
            ratios.append((c * 1_000_000) // len(b) if b else 0)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "raw_len": pa.array(raws, pa.int64()),
                "compressed_len": pa.array(comps, pa.int64()),
                "ratio_q": pa.array(ratios, pa.int64()),
            }
        )

    out = ds.map_batches(score, batch_format="pyarrow").to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def _within_edit1(a: str, b: str) -> bool:
    """Levenshtein(a, b) <= 1, decided by direct scan (no DP table)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(1 for x, y in zip(a, b) if x != y) <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # one insertion: advance past the single mismatch
    i = j = diffs = 0
    while i < la and j < lb:
        if a[i] == b[j]:
            i += 1
            j += 1
        else:
            diffs += 1
            if diffs > 1:
                return False
            j += 1
    return True


def name_editdist_join(
    sf_dir: str, table: str = "part", col: str = "p_name"
) -> pd.DataFrame:
    """Edit-distance-1 similarity join via SymSpell deletion
    neighborhoods (Garbe's symmetric-delete algorithm): every distinct
    name emits itself plus each single-character deletion as bucket
    keys; any pair within Levenshtein 1 provably shares a key
    (substitution pairs share the deletion at the differing position;
    insert/delete pairs share the shorter string itself), so the
    bucket join is candidate-COMPLETE and each candidate is verified
    with the real distance check. The exchange moves (variant, name)
    pairs — O(len) per name — never the cross product.

    Output: (name_a, name_b) with 0 < levenshtein <= 1, name_a < name_b."""
    ds = rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=[col])
    names = ds.groupby(col).count()

    def variants(t: pa.Table) -> pa.Table:
        out_v, out_n = [], []
        for nm in t[col].to_pylist():
            seen = {nm}
            for i in range(len(nm)):
                seen.add(nm[:i] + nm[i + 1 :])
            for v in seen:
                out_v.append(v)
                out_n.append(nm)
        return pa.table(
            {"variant": pa.array(out_v, pa.string()), "name": pa.array(out_n, pa.string())}
        )

    def pairs_of_bucket(g: pd.DataFrame) -> pd.DataFrame:
        nms = sorted(set(g["name"]))
        rows = [
            (a, b)
            for i, a in enumerate(nms)
            for b in nms[i + 1 :]
            if _within_edit1(a, b)
        ]
        return pd.DataFrame(rows, columns=["name_a", "name_b"])

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.head(1)

    out = (
        names.map_batches(variants, batch_format="pyarrow")
        .groupby("variant")
        .map_groups(pairs_of_bucket, batch_format="pandas")
        .groupby(["name_a", "name_b"])
        .map_groups(dedup, batch_format="pandas")
        .to_pandas()
    )
    if "name_a" not in out.columns or out.empty:
        return pd.DataFrame(
            {"name_a": pd.Series([], dtype="str"), "name_b": pd.Series([], dtype="str")}
        )
    return out.sort_values(["name_a", "name_b"]).reset_index(drop=True)


def name_editdist_join_sql(table: str = "part", col: str = "p_name") -> str:
    return f"""
        WITH n AS (SELECT DISTINCT {col} AS name FROM {table})
        SELECT a.name AS name_a, b.name AS name_b
        FROM n a JOIN n b ON a.name < b.name
        WHERE levenshtein(a.name, b.name) <= 1
        ORDER BY name_a, name_b
    """


def token_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-document unigram (Shannon) entropy in nano-nats — the
    lexical-diversity quality signal (low entropy = repetitive /
    template text). Entirely row-local: each doc's term distribution is
    computed and quantized inside map_batches, zero shuffle. Each term
    contributes floor(-(c/n)*ln(c/n)*1e9 + 0.5) and the doc score is
    the order-free int64 sum, so the SQL twin is exact (glibc ln ==
    DuckDB ln, same precedent as bigram_lm_scores)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        ids, ents = [], []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            c = Counter(txt.lower().split())
            n = sum(c.values())
            if n == 0:
                continue
            tot = 0
            for cnt in c.values():
                p = cnt / n
                tot += int(math.floor(-p * math.log(p) * 1e9 + 0.5))
            ids.append(did)
            ents.append(tot)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "entropy_nano": pa.array(ents, pa.int64()),
            }
        )

    out = ds.map_batches(score, batch_format="pyarrow").to_pandas()
    for c in ("doc_id", "entropy_nano"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def token_entropy_sql() -> str:
    return r"""
        WITH toks AS (
          SELECT doc_id,
                 unnest(list_filter(string_split_regex(lower(text), '\s+'), w -> w <> '')) AS w
          FROM documents
        ),
        cnt AS (SELECT doc_id, w, CAST(COUNT(*) AS BIGINT) AS c FROM toks GROUP BY doc_id, w),
        tot AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n FROM cnt GROUP BY doc_id)
        SELECT cnt.doc_id,
               CAST(SUM(CAST(floor(-(CAST(c AS DOUBLE) / n) * ln(CAST(c AS DOUBLE) / n) * 1e9 + 0.5)
                             AS BIGINT)) AS BIGINT) AS entropy_nano
        FROM cnt JOIN tot USING (doc_id)
        GROUP BY cnt.doc_id
        ORDER BY doc_id
    """


# ---------------------------------------------------------------------------
# golden records (entity resolution + survivorship)
# ---------------------------------------------------------------------------


def part_golden_records(sf_dir: str, table: str = "part", col: str = "p_name") -> pd.DataFrame:
    """MDM golden-record construction: cluster near-identical names
    (the candidate-complete edit-distance-1 join above), then apply a
    survivorship rule per cluster — the surviving record is the
    most-frequent name, ties broken lexicographically. Output one row
    per cluster: (survivor, n_members, n_rows).

    Shape: the pair set and the per-name row counts are both
    distinct-name-sized (distributed groupby count); the union-find
    closure runs on the driver under the same size-aware policy as
    dedup_clusters (<= 2M edges locally, distributed min-label rounds
    past that — the pair graph here is vocabulary-bounded)."""
    pairs = name_editdist_join(sf_dir, table, col)
    counts = (
        rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=[col])
        .groupby(col)
        .count()
        .to_pandas()
        .rename(columns={col: "name", "count()": "n_rows"})
    )

    parent: dict[str, str] = {n: n for n in counts["name"]}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["name_a"], pairs["name_b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    counts["cluster"] = [find(n) for n in counts["name"]]
    rows = []
    for _cl, g in counts.groupby("cluster", sort=False):
        g = g.sort_values(["n_rows", "name"], ascending=[False, True], kind="mergesort")
        rows.append(
            (g["name"].iloc[0], len(g), int(g["n_rows"].sum()))
        )
    out = pd.DataFrame(rows, columns=["survivor", "n_members", "n_rows"])
    out["n_members"] = out["n_members"].astype("int64")
    out["n_rows"] = out["n_rows"].astype("int64")
    return out.sort_values("survivor").reset_index(drop=True)


def part_golden_records_sql(table: str = "part", col: str = "p_name") -> str:
    return f"""
        WITH RECURSIVE n AS (SELECT {col} AS name, CAST(COUNT(*) AS BIGINT) AS n_rows
                   FROM {table} GROUP BY 1),
        e AS (SELECT a.name AS na, b.name AS nb
              FROM n a JOIN n b ON a.name != b.name
              WHERE levenshtein(a.name, b.name) <= 1),
        reach(node, r) AS (
          SELECT name, name FROM n
          UNION
          SELECT e.nb, reach.r FROM reach JOIN e ON e.na = reach.node
          WHERE reach.r < e.nb
        ),
        lab AS (SELECT node AS name, MIN(r) AS cluster FROM reach GROUP BY node),
        m AS (SELECT lab.cluster, n.name, n.n_rows,
                     ROW_NUMBER() OVER (PARTITION BY lab.cluster
                                        ORDER BY n.n_rows DESC, n.name) AS rn,
                     COUNT(*) OVER (PARTITION BY lab.cluster) AS n_members,
                     SUM(n.n_rows) OVER (PARTITION BY lab.cluster) AS tot
              FROM lab JOIN n USING (name))
        SELECT name AS survivor, CAST(n_members AS BIGINT) AS n_members,
               CAST(tot AS BIGINT) AS n_rows
        FROM m WHERE rn = 1 ORDER BY survivor
    """


def filter_funnel(sf_dir: str) -> pd.DataFrame:
    """Quality-filter retention funnel (the C4/Gopher-style cleaning
    report): documents flow through a fixed cascade — minimum size,
    minimum token count, mean-word-length band (integer-exact as
    4*tokens <= nonspace_chars <= 7*tokens) — and the op reports per
    stage how many docs entered and survived, the accounting table
    every corpus-cleaning run publishes.

    All stages evaluate per batch in one vectorized pass (the cascade
    is cumulative boolean masks); only 4 partial count rows leave each
    block."""
    import numpy as np

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        nchars = t["n_chars"].to_numpy().astype(np.int64)
        tokens = np.fromiter(
            (txt.count(" ") + 1 for txt in texts), dtype=np.int64, count=len(texts)
        )
        nonspace = nchars - (tokens - 1)
        m1 = nchars >= 200
        m2 = m1 & (tokens >= 40)
        m3 = m2 & (4 * tokens <= nonspace) & (nonspace <= 7 * tokens)
        counts = [len(texts), int(m1.sum()), int(m2.sum()), int(m3.sum())]
        return pa.table(
            {
                "stage": pa.array([0, 1, 2, 3], pa.int64()),
                "n": pa.array(counts, pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    tot = parts.groupby("stage")["n"].sum()
    names = ["input", "min_chars_200", "min_tokens_40", "mean_word_len_4_7"]
    out = pd.DataFrame(
        {
            "stage": pd.Series(range(4), dtype="int64"),
            "filter": names,
            "n_surviving": pd.Series([int(tot[i]) for i in range(4)], dtype="int64"),
        }
    )
    out["n_dropped"] = (-out["n_surviving"].diff()).fillna(0).astype("int64")
    return out


def filter_funnel_sql() -> str:
    return """
        WITH d AS (
            SELECT n_chars,
                   length(string_split(text, ' ')) AS tokens,
                   n_chars - (length(string_split(text, ' ')) - 1) AS nonspace
            FROM documents
        ), s AS (
            SELECT CAST(COUNT(*) AS BIGINT) AS s0,
                   CAST(SUM(CASE WHEN n_chars >= 200 THEN 1 ELSE 0 END)
                        AS BIGINT) AS s1,
                   CAST(SUM(CASE WHEN n_chars >= 200 AND tokens >= 40
                                 THEN 1 ELSE 0 END) AS BIGINT) AS s2,
                   CAST(SUM(CASE WHEN n_chars >= 200 AND tokens >= 40
                                  AND 4 * tokens <= nonspace
                                  AND nonspace <= 7 * tokens
                                 THEN 1 ELSE 0 END) AS BIGINT) AS s3
            FROM d
        )
        SELECT * FROM (
            SELECT CAST(0 AS BIGINT) AS stage, 'input' AS filter,
                   s0 AS n_surviving, CAST(0 AS BIGINT) AS n_dropped FROM s
            UNION ALL
            SELECT 1, 'min_chars_200', s1, s0 - s1 FROM s
            UNION ALL
            SELECT 2, 'min_tokens_40', s2, s1 - s2 FROM s
            UNION ALL
            SELECT 3, 'mean_word_len_4_7', s3, s2 - s3 FROM s
        ) ORDER BY stage
    """


def oov_rate(sf_dir: str, vocab_size: int = 16) -> pd.DataFrame:
    """Tokenizer-coverage analysis: build the top-`vocab_size` corpus
    vocabulary (count desc, token asc — deterministic ties), broadcast
    it, and report per document the token count, out-of-vocabulary
    count and OOV share in exact integer ppm. The vocabulary build is
    the standard distributed word count (per-batch Counter combiner ->
    vocabulary-sized exchange); the apply pass is row-local with the
    frozen vocab set read from plasma — the exact lifecycle of a
    tokenizer-coverage audit before committing to a vocab."""
    import numpy as np

    import ray
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def wc(t: pa.Table) -> pd.DataFrame:
        from collections import Counter

        c: Counter = Counter()
        for txt in t["text"].to_pylist():
            c.update(w for w in txt.split(" ") if w != "")
        return pd.DataFrame({"token": list(c), "n": list(c.values())})

    counts = (
        ds.map_batches(wc, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    counts = counts.sort_values(["n", "token"], ascending=[False, True], kind="mergesort")
    vocab = set(counts["token"].head(vocab_size))
    vocab_ref = ray.put(vocab)

    def apply(t: pa.Table, *, vocab_ref) -> pa.Table:
        vocab = ray.get(vocab_ref)
        ids = t["doc_id"].to_pylist()
        n_toks, n_oovs = [], []
        for txt in t["text"].to_pylist():
            toks = [w for w in txt.split(" ") if w != ""]
            n_toks.append(len(toks))
            n_oovs.append(sum(1 for w in toks if w not in vocab))
        n_toks = np.array(n_toks, dtype=np.int64)
        n_oovs = np.array(n_oovs, dtype=np.int64)
        ppm = np.where(n_toks > 0, n_oovs * 1_000_000 // np.maximum(n_toks, 1), 0)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(n_toks, pa.int64()),
                "n_oov": pa.array(n_oovs, pa.int64()),
                "oov_ppm": pa.array(ppm, pa.int64()),
            }
        )

    out = (
        ds.map_batches(apply, batch_format="pyarrow", fn_kwargs={"vocab_ref": vocab_ref})
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def oov_rate_sql(vocab_size: int = 16) -> str:
    return f"""
        WITH tok AS (
            SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents
        ), tt AS (
            SELECT doc_id, t FROM tok WHERE t <> ''
        ), vocab AS (
            SELECT t FROM (
                SELECT t, COUNT(*) AS c FROM tt GROUP BY 1
            ) QUALIFY row_number() OVER (ORDER BY c DESC, t) <= {vocab_size}
        )
        , per AS (
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   CAST(SUM(CASE WHEN t NOT IN (SELECT t FROM vocab)
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_oov,
                   CAST((SUM(CASE WHEN t NOT IN (SELECT t FROM vocab)
                                  THEN 1 ELSE 0 END) * 1000000) // COUNT(*)
                        AS BIGINT) AS oov_ppm
            FROM tt GROUP BY doc_id
        )
        -- LEFT JOIN: a token-less doc audits as (0, 0, 0) and the
        -- engine emits it (edge-corpus probe, round 5)
        SELECT d.doc_id,
               COALESCE(p.n_tokens, 0) AS n_tokens,
               COALESCE(p.n_oov, 0) AS n_oov,
               COALESCE(p.oov_ppm, 0) AS oov_ppm
        FROM documents d LEFT JOIN per p USING (doc_id)
        ORDER BY d.doc_id
    """


def length_bucket_stats(sf_dir: str, bucket_width: int = 16) -> pd.DataFrame:
    """Sequence-length bucketing report: documents grouped into
    fixed-width token-length buckets (the length-grouped batching
    trick that minimizes padding in training), with the padding waste
    each bucket would incur if padded to its own max — computable
    purely from the mergeable (count, sum, max) partials as
    n*max - sum, so the whole report needs one bounded fold and no
    shuffle of documents."""
    import re

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    ws = re.compile(r"\s+")

    def partial(t: pa.Table) -> pd.DataFrame:
        rows: dict[int, list[int]] = {}
        for txt in t["text"].to_pylist():
            n = len(ws.split(txt))
            b = n // bucket_width
            agg = rows.setdefault(b, [0, 0, 0])
            agg[0] += 1
            agg[1] += n
            agg[2] = max(agg[2], n)
        return pd.DataFrame(
            {
                "bucket": pd.Series(list(rows), dtype="int64"),
                "n_docs": pd.Series([v[0] for v in rows.values()], dtype="int64"),
                "sum_tokens": pd.Series([v[1] for v in rows.values()], dtype="int64"),
                "max_tokens": pd.Series([v[2] for v in rows.values()], dtype="int64"),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = (
        parts.groupby("bucket", as_index=False)
        .agg(
            n_docs=("n_docs", "sum"),
            sum_tokens=("sum_tokens", "sum"),
            max_tokens=("max_tokens", "max"),
        )
        .sort_values("bucket")
        .reset_index(drop=True)
    )
    out["padding_waste"] = out["n_docs"] * out["max_tokens"] - out["sum_tokens"]
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def length_bucket_stats_sql(bucket_width: int = 16) -> str:
    return f"""
        WITH lens AS (
            SELECT CAST(length(string_split_regex(text, '\\s+')) AS BIGINT) AS n
            FROM documents
        )
        SELECT n // {bucket_width} AS bucket,
               COUNT(*) AS n_docs,
               CAST(SUM(n) AS BIGINT) AS sum_tokens,
               CAST(MAX(n) AS BIGINT) AS max_tokens,
               CAST(COUNT(*) * MAX(n) - SUM(n) AS BIGINT) AS padding_waste
        FROM lens GROUP BY 1 ORDER BY 1
    """


def perplexity_buckets(sf_dir: str) -> pd.DataFrame:
    """CCNet-style perplexity bucketing (Wenzek et al., LREC 2020):
    every document is tagged head / middle / tail by its
    language-model perplexity tertile — the curation signal CCNet and
    RedPajama publish per shard and the standard quality axis for
    downstream mix weighting.

    Composes bigram_lm_scores (the distributed corpus-trained bigram
    LM with exact micro-nat quantization) and buckets by the
    NORMALIZED surprisal ratio_q = surprisal_q * 1000 // n_bigrams
    (milli-scaled micro-nats per bigram — pure int64 floor division,
    bit-stable; 0 for degenerate zero-bigram docs). Tertile assignment
    is the exact SQL NTILE(3) ordered by (ratio_q, doc_id): tile 1 =
    head (least surprising), 3 = tail.

    Scale shape: the LM train + score passes are the distributed part
    (see bigram_lm_scores); the tertile needs a global total order,
    which at scale uses the bounded-domain rank trick of
    events_value_rank_normalize — ratio_q lives in a bounded domain
    (max bigram surprisal is ~ln(V^2) nats, so ~2e4 milli-scaled
    values): one domain-sized frequency fold gives exact global ranks
    without a corpus sort. Here the per-doc score table is already
    driver-resident by bigram_lm_scores' contract, so the tile is a
    vectorized transform over it."""
    scores = bigram_lm_scores(sf_dir)
    nb = scores["n_bigrams"].to_numpy()
    sq = scores["surprisal_q"].to_numpy()
    ratio_q = np.where(nb == 0, 0, (sq * 1000) // np.maximum(nb, 1)).astype(np.int64)
    doc_id = scores["doc_id"].to_numpy()
    order = np.lexsort((doc_id, ratio_q))  # by (ratio_q, doc_id)
    n = len(order)
    base, rem = divmod(n, 3)
    tile = np.empty(n, dtype=np.int64)
    r = np.arange(n)
    big = rem * (base + 1)
    tile[order] = np.where(r < big, r // (base + 1), rem + (r - big) // max(base, 1)) + 1
    out = pd.DataFrame(
        {
            "doc_id": pd.Series(doc_id, dtype="int64"),
            "ratio_q": pd.Series(ratio_q, dtype="int64"),
            "tile": pd.Series(tile, dtype="int64"),
        }
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def perplexity_buckets_sql() -> str:
    """Exact twin: the bigram-LM twin feeding integer normalization and
    SQL NTILE(3) — DuckDB's NTILE puts the larger groups first, the
    same split the engine computes."""
    return f"""
        WITH s AS ({bigram_lm_scores_sql()}),
        r AS (
            SELECT doc_id,
                   CASE WHEN n_bigrams = 0 THEN 0
                        ELSE (surprisal_q * 1000) // n_bigrams END AS ratio_q
            FROM s
        )
        SELECT doc_id, CAST(ratio_q AS BIGINT) AS ratio_q,
               CAST(NTILE(3) OVER (ORDER BY ratio_q, doc_id) AS BIGINT) AS tile
        FROM r ORDER BY doc_id
    """


def nb_source_classifier(sf_dir: str, n_buckets: int = 1024) -> pd.DataFrame:
    """Hashed-feature Naive Bayes source classifier — the
    fastText-style linear quality/domain classifier of the CCNet /
    RedPajama stacks, expressed with exact integer discipline so a SQL
    twin pins every logit:

      features: word -> md5-prefix-u64 % n_buckets (the DSIR kernel);
      train: one distributed pass folds (source, bucket) count
        partials through a |sources| x n_buckets-bounded groupby Sum;
        class priors derive from a |sources|-bounded doc count;
      quantize: log-likelihood q_sb = floor(ln((c_sb + 0.5) /
        (N_s + 0.5 * B)) * 1e6 + 0.5) micro-nats per (source, bucket),
        log-prior p_s = floor(ln(n_s / N) * 1e6 + 0.5) — computed once
        on the driver over the bounded table (libm ln, bit-identical
        to DuckDB) and broadcast as an int64 [S, B] matrix;
      score: a zero-shuffle scan computes per-doc class scores with
        one [S, B] x [B] integer matvec per doc and takes
        argmax (score desc, source asc tie-break — exact integer
        comparison, no float drift);
      report: the confusion matrix (true source x predicted source,
        resubstitution) via a |S|^2-bounded aggregate.

    Output: (source, predicted, n_docs) ORDER BY source, predicted."""
    import math

    import ray
    from ray.data.aggregate import Sum

    from ..functions.md5vec import md5_prefix_u64

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    def count_partial(t: pa.Table) -> pa.Table:
        agg: dict[str, np.ndarray] = {}
        docs: Counter = Counter()
        texts = t["text"].to_pylist()
        # hash each DISTINCT word once per batch (vocabulary << tokens)
        vocab = sorted({w for txt in texts for w in txt.split(" ") if w})
        bucket_of = dict(
            zip(
                vocab,
                (md5_prefix_u64([w.encode() for w in vocab]) % n_buckets).astype(
                    np.int64
                ),
            )
        )
        for txt, src in zip(texts, t["source"].to_pylist()):
            words = [w for w in txt.split(" ") if w]
            docs[src] += 1
            if not words:
                continue
            b = np.fromiter(
                (bucket_of[w] for w in words), dtype=np.int64, count=len(words)
            )
            if src not in agg:
                agg[src] = np.zeros(n_buckets, dtype=np.int64)
            agg[src] += np.bincount(b, minlength=n_buckets)
        srcs, buckets, counts, ndocs = [], [], [], []
        for src, vec in agg.items():
            nz = np.flatnonzero(vec)
            srcs.extend([src] * len(nz))
            buckets.extend(nz.tolist())
            counts.extend(vec[nz].tolist())
            ndocs.extend([0] * len(nz))
        for src, n in docs.items():
            srcs.append(src)
            buckets.append(-1)  # sentinel row carrying the doc count
            counts.append(0)
            ndocs.append(n)
        return pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "bucket": pa.array(buckets, pa.int64()),
                "c": pa.array(counts, pa.int64()),
                "n_docs": pa.array(ndocs, pa.int64()),
            }
        )

    counts = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby(["source", "bucket"])
        .aggregate(Sum("c", alias_name="c"), Sum("n_docs", alias_name="n_docs"))
        .to_pandas()
    )
    sources = sorted(counts["source"].unique())
    s_index = {s: i for i, s in enumerate(sources)}
    S = len(sources)
    cm = np.zeros((S, n_buckets), dtype=np.int64)
    docs_per = np.zeros(S, dtype=np.int64)
    for r in counts.itertuples(index=False):
        if r.bucket < 0:
            docs_per[s_index[r.source]] += int(r.n_docs)
        else:
            cm[s_index[r.source], int(r.bucket)] = int(r.c)
    tok_per = cm.sum(axis=1)
    n_total_docs = int(docs_per.sum())
    q = np.empty((S, n_buckets), dtype=np.int64)
    for si in range(S):
        for b in range(n_buckets):
            q[si, b] = math.floor(
                math.log((int(cm[si, b]) + 0.5) / (int(tok_per[si]) + 0.5 * n_buckets))
                * 1000000.0
                + 0.5
            )
    prior = np.array(
        [
            math.floor(math.log(int(docs_per[si]) / n_total_docs) * 1000000.0 + 0.5)
            for si in range(S)
        ],
        dtype=np.int64,
    )
    model_ref = ray.put((sources, q, prior))

    def predict(t: pa.Table) -> pa.Table:
        srcs, q, pri = ray.get(model_ref)
        true_s, pred_s = [], []
        texts = t["text"].to_pylist()
        vocab = sorted({w for txt in texts for w in txt.split(" ") if w})
        bucket_of = dict(
            zip(
                vocab,
                (md5_prefix_u64([w.encode() for w in vocab]) % q.shape[1]).astype(np.int64),
            )
        )
        for txt, src in zip(texts, t["source"].to_pylist()):
            words = [w for w in txt.split(" ") if w]
            if not words:
                continue
            b = np.fromiter((bucket_of[w] for w in words), dtype=np.int64, count=len(words))
            cnt = np.bincount(b, minlength=q.shape[1])
            scores = q @ cnt + pri
            # argmax, source-asc tie-break: srcs[] is sorted so
            # np.argmax (first max) IS the tie-break
            true_s.append(src)
            pred_s.append(srcs[int(np.argmax(scores))])
        df = pd.DataFrame({"source": true_s, "predicted": pred_s})
        return pa.Table.from_pandas(
            df.groupby(["source", "predicted"], as_index=False).size(),
            preserve_index=False,
        )

    out = (
        ds.map_batches(predict, batch_format="pyarrow", batch_size=1024)
        .groupby(["source", "predicted"])
        .aggregate(Sum("size", alias_name="n_docs"))
        .to_pandas()
        .sort_values(["source", "predicted"])
        .reset_index(drop=True)
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    return out


def nb_source_classifier_sql(n_buckets: int = 1024) -> str:
    """Exact twin: identical hash buckets, smoothing, ln and micro-nat
    quantization per (source, bucket); per-doc integer score sums;
    argmax via ROW_NUMBER with the same (score desc, source asc)
    tie-break."""
    return f"""
        WITH tok AS (
            SELECT doc_id, source,
                   CAST(CAST(('0x' || substr(md5(u.w), 1, 16)) AS UBIGINT)
                        % {n_buckets} AS BIGINT) AS bucket
            FROM documents,
                 UNNEST(list_filter(string_split(text, ' '), x -> x <> '')) AS u(w)
        ), classes AS (
            SELECT source,
                   CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_docs_s
            FROM documents GROUP BY 1
        ), tot AS (
            SELECT CAST(SUM(n_docs_s) AS BIGINT) AS n FROM classes
        ), cnt AS (
            SELECT source, bucket, CAST(COUNT(*) AS BIGINT) AS c
            FROM tok GROUP BY 1, 2
        ), toks_per AS (
            SELECT source, CAST(SUM(c) AS BIGINT) AS nt FROM cnt GROUP BY 1
        ), q AS (
            -- LEFT JOIN + COALESCE(nt,0): a source whose docs are all
            -- zero-token has no tok rows, but the engine still keeps
            -- it as a candidate (doc-count prior + fully-smoothed
            -- logits) — the twin must too.
            SELECT cl.source, g.bucket,
                   CAST(FLOOR(ln((COALESCE(cnt.c, 0) + 0.5)
                                 / (COALESCE(tp.nt, 0) + 0.5 * {n_buckets}))
                              * 1000000.0 + 0.5) AS BIGINT) AS qv
            FROM classes cl
            LEFT JOIN toks_per tp ON cl.source = tp.source
            CROSS JOIN (SELECT UNNEST(range({n_buckets})) AS bucket) g
            LEFT JOIN cnt ON cnt.source = cl.source AND cnt.bucket = g.bucket
        ), prior AS (
            SELECT source,
                   CAST(FLOOR(ln(CAST(n_docs_s AS DOUBLE) / tot.n)
                              * 1000000.0 + 0.5) AS BIGINT) AS pv
            FROM classes, tot
        ), doc_scores AS (
            SELECT tok.doc_id,
                   ANY_VALUE(tok.source) AS true_source,
                   q.source AS cand,
                   SUM(q.qv) + ANY_VALUE(prior.pv) AS score
            FROM tok
            JOIN q ON tok.bucket = q.bucket
            JOIN prior ON q.source = prior.source
            GROUP BY tok.doc_id, q.source
        ), pred AS (
            SELECT doc_id, true_source, cand,
                   ROW_NUMBER() OVER (PARTITION BY doc_id
                                      ORDER BY score DESC, cand) AS rn
            FROM doc_scores
        )
        SELECT true_source AS source, cand AS predicted,
               CAST(COUNT(*) AS BIGINT) AS n_docs
        FROM pred WHERE rn = 1
        GROUP BY 1, 2 ORDER BY 1, 2
    """
