"""Text-analysis pipelines over the documents table (Ray Data task stages)."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..functions.textstats import (
    BPE_PATTERN,
    bpe_token_count,
    lang_id,
    md5_fingerprint,
    quality_score,
    rolling_fingerprint,
    token_count,
)
from ..stages.broadcast import worker_value


def _text_stats_batch(batch: pa.Table) -> pa.Table:
    """All per-doc text statistics in one task stage. State (compiled
    regexes / stopword tables) is module-level and loaded once per
    worker process at import; this is a tight per-row loop over the
    batch columns."""
    texts = batch["text"].to_pylist()
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "token_count": pa.array([token_count(t) for t in texts], pa.int64()),
            "bpe_token_count": pa.array([bpe_token_count(t) for t in texts], pa.int64()),
            "lang_pred": pa.array([lang_id(t) for t in texts], pa.string()),
            "quality": pa.array([quality_score(t) for t in texts], pa.float64()),
            "fp_md5": pa.array([md5_fingerprint(t) for t in texts], pa.string()),
            "fp_rolling": pa.array([str(rolling_fingerprint(t)) for t in texts], pa.string()),
        }
    )


def text_stats(sf_dir: str) -> "rd.Dataset":
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(_text_stats_batch, batch_format="pyarrow", batch_size=1024)


def token_counts(sf_dir: str) -> pd.DataFrame:
    out = text_stats(sf_dir).select_columns(["doc_id", "token_count"]).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def token_counts_sql() -> str:
    # string_split_regex counts empty leading/trailing fields exactly like
    # the engine's re.split(r"\s+") (parity pinned in tests)
    return r"""
        SELECT doc_id,
               CAST(length(string_split_regex(text, '\s+')) AS BIGINT) AS token_count
        FROM documents
        ORDER BY doc_id
    """


def bpe_token_counts(sf_dir: str) -> pd.DataFrame:
    out = text_stats(sf_dir).select_columns(["doc_id", "bpe_token_count"]).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def bpe_token_counts_sql() -> str:
    return f"""
        SELECT doc_id,
               CAST(length(regexp_extract_all(text, '{BPE_PATTERN}')) AS BIGINT)
                   AS bpe_token_count
        FROM documents
        ORDER BY doc_id
    """


def fingerprints(sf_dir: str) -> pd.DataFrame:
    out = text_stats(sf_dir).select_columns(["doc_id", "fp_md5"]).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def fingerprints_sql() -> str:
    return "SELECT doc_id, md5(text) AS fp_md5 FROM documents ORDER BY doc_id"


def language_profile(sf_dir: str) -> pd.DataFrame:
    """lang-ID heuristic rollup — SQL-oracled exactly: the heuristic is
    a pure deterministic function (fixed lexicons, integer hit counts,
    double arithmetic), so language_profile_sql reproduces both columns
    value-for-value."""
    out = text_stats(sf_dir).select_columns(["doc_id", "lang_pred", "quality"]).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def language_profile_sql() -> str:
    """EXACT DuckDB twin of the lang-ID + quality heuristic: the
    stopword lexicons are inlined as list literals, hits counted with
    list_filter/list_contains, the winner resolved by the same
    (hits-strictly-greater, alphabetical-first, en-on-zero) cascade,
    and the quality score recomputed operation-for-operation (verified
    float-bit-exact on the fixtures — every term is the same double
    arithmetic, and ROUND(x, 6) lands off the banker\'s-rounding
    boundaries for these rationals)."""
    from ..functions.textstats import STOPWORDS

    def lex(lang: str) -> str:
        return "[" + ", ".join(f"'{w}'" for w in sorted(STOPWORDS[lang])) + "]"

    word = "[A-Za-zÀ-ɏ'']+"
    g4 = "greatest(h_de, h_en, h_es, h_fr)"
    return f"""
        WITH base AS (
          SELECT doc_id, text, substr(text, 1, 2000) AS sample,
                 length(text) AS n
          FROM documents
        ), feats AS (
          SELECT doc_id, text, sample, n,
                 length(regexp_extract_all(sample, '[一-鿿]')) AS cjk,
                 length(sample) AS slen,
                 regexp_extract_all(lower(sample), '{word}') AS swords,
                 regexp_extract_all(lower(text), '{word}') AS qwords,
                 length(regexp_extract_all(text, '[^\\w\\s]')) AS punct
          FROM base
        ), hits AS (
          SELECT *,
            len(list_filter(swords, w -> list_contains({lex("de")}, w))) AS h_de,
            len(list_filter(swords, w -> list_contains({lex("en")}, w))) AS h_en,
            len(list_filter(swords, w -> list_contains({lex("es")}, w))) AS h_es,
            len(list_filter(swords, w -> list_contains({lex("fr")}, w))) AS h_fr
          FROM feats
        ), lang AS (
          SELECT *,
            CASE WHEN n = 0 THEN 'und'
                 WHEN cjk * 20 > slen THEN 'zh'
                 WHEN len(swords) = 0 THEN 'und'
                 WHEN {g4} = 0 THEN 'en'
                 WHEN h_de = {g4} THEN 'de'
                 WHEN h_en = {g4} THEN 'en'
                 WHEN h_es = {g4} THEN 'es'
                 ELSE 'fr' END AS lang_pred
          FROM hits
        )
        SELECT doc_id, lang_pred,
          CASE WHEN n = 0 THEN 0.0 ELSE
            ROUND(
              0.35 * (least(n, 2000) / 2000.0)
            + 0.25 * (1.0 - least(punct / n * 4.0, 1.0))
            + 0.25 * (CASE WHEN len(qwords) > 0
                           THEN least(4.0 * len(list_filter(qwords,
                                    w -> list_contains({lex("en")}, w)))
                                / len(qwords), 1.0)
                           ELSE 0.0 END)
            + 0.15 * (CASE WHEN len(qwords) = 0 THEN 0.0
                           WHEN list_aggregate(list_transform(qwords,
                                    w -> length(w)), 'sum') / len(qwords)
                                BETWEEN 3.0 AND 10.0 THEN 1.0
                           ELSE 0.5 END), 6)
          END AS quality
        FROM lang ORDER BY doc_id
    """


def top_bigrams(sf_dir: str, k: int = 100) -> pd.DataFrame:
    """Corpus-wide top-k word bigrams: the canonical wide-shuffle-with-
    combiner aggregation. Per batch, a Counter pre-aggregates bigram
    counts (the shuffle moves one row per DISTINCT bigram per batch,
    never per token — at 100 TB the exchange is vocabulary-sized);
    groupby(bigram).sum reduces; the global (count desc, bigram asc)
    sort + limit runs over vocabulary-sized data. Ties are fully
    ordered so the top-k set is deterministic."""
    from collections import Counter

    import numpy as np

    def partial_counts(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch["text"].to_pylist():
            ws = t.lower().split()
            c.update(map(" ".join, zip(ws, ws[1:])))
        return pa.table(
            {
                "bigram": pa.array(list(c.keys()), pa.string()),
                "cnt": pa.array(np.fromiter(c.values(), dtype=np.int64), pa.int64()),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )
    out = (
        agg.sort(["cnt", "bigram"], descending=[True, False])
        .limit(k)
        .to_pandas()
        .astype({"cnt": "int64"})
    )
    return out.reset_index(drop=True)[["bigram", "cnt"]]


def top_bigrams_sql(k: int = 100) -> str:
    return rf"""
        WITH toks AS (
          SELECT list_filter(string_split_regex(lower(text), '\s+'), w -> w <> '') AS ws
          FROM documents
        ), big AS (
          SELECT unnest([ws[x] || ' ' || ws[x + 1] FOR x IN range(1, len(ws))]) AS bigram
          FROM toks
        )
        SELECT bigram, CAST(COUNT(*) AS BIGINT) AS cnt
        FROM big GROUP BY bigram
        ORDER BY cnt DESC, bigram LIMIT {k}
    """


def top_terms_per_doc(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """TF-IDF-style distinctive terms: per document, the top-k terms by
    (tf DESC, df ASC, term ASC) — highest in-doc frequency, rarest in
    the corpus, integer-exact so the ranking is reproducible bit-for-bit
    (a float tf*ln(N/df) score would make near-ties ULP-dependent).

    Shape: (1) document-frequency pass — per batch, one row per
    DISTINCT (term) with its in-batch doc count (combiner), then
    groupby(term).sum: a vocabulary-sized exchange; (2) the df table is
    ray.put once (vocabulary-sized, bounded by language not corpus) and
    each doc ranks its own terms locally in map_batches."""
    from collections import Counter

    import numpy as np

    import ray

    def df_partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch["text"].to_pylist():
            c.update(set(t.lower().split()))
        return pa.table(
            {
                "term": pa.array(list(c.keys()), pa.string()),
                "df": pa.array(np.fromiter(c.values(), dtype=np.int64), pa.int64()),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    from ray.data.aggregate import Sum

    df_tbl = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
        .to_pandas()
    )
    df_ref = ray.put(dict(zip(df_tbl["term"], df_tbl["df"].astype("int64"))))

    def rank_terms(batch: pa.Table) -> pa.Table:
        df = worker_value(df_ref)
        out_doc, out_rank, out_term, out_tf, out_df = [], [], [], [], []
        for did, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            tf = Counter(t.lower().split())
            ranked = sorted(((-c, df[w], w) for w, c in tf.items()))[:k]
            for r, (negc, dfv, w) in enumerate(ranked, start=1):
                out_doc.append(did)
                out_rank.append(r)
                out_term.append(w)
                out_tf.append(-negc)
                out_df.append(dfv)
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "rank": pa.array(out_rank, pa.int64()),
                "term": pa.array(out_term, pa.string()),
                "tf": pa.array(out_tf, pa.int64()),
                "df": pa.array(out_df, pa.int64()),
            }
        )

    out = ds.map_batches(rank_terms, batch_format="pyarrow", batch_size=1024).to_pandas()
    return out.sort_values(["doc_id", "rank"]).reset_index(drop=True)


def top_terms_per_doc_sql(k: int = 3) -> str:
    return rf"""
        WITH toks AS (
          SELECT doc_id,
                 unnest(list_filter(string_split_regex(lower(text), '\s+'),
                                    w -> w <> '')) AS term
          FROM documents
        ), tf AS (
          SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
          FROM toks GROUP BY doc_id, term
        ), df AS (
          SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
          FROM toks GROUP BY term
        ), r AS (
          SELECT tf.doc_id, tf.term, tf.tf, df.df,
                 CAST(row_number() OVER (
                   PARTITION BY tf.doc_id
                   ORDER BY tf.tf DESC, df.df ASC, tf.term
                 ) AS BIGINT) AS rank
          FROM tf JOIN df USING (term)
        )
        SELECT doc_id, rank, term, tf, df FROM r
        WHERE rank <= {k} ORDER BY doc_id, rank
    """


def quality_scores(sf_dir: str) -> pd.DataFrame:
    out = text_stats(sf_dir).select_columns(["doc_id", "quality"]).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def quality_scores_sql() -> str:
    """SQL twin of functions/textstats.py::quality_score, float-op-order
    exact (each ratio parenthesized the way Python evaluates it) so the
    rounded doubles hash-match. Caveat: RE2's \\w is ASCII while
    Python's is Unicode — identical on the (all-ASCII) documents
    fixtures; the engine's Unicode behavior is pinned separately in
    unit tests."""
    from ..functions.textstats import STOPWORDS

    sw = ", ".join(f"'{w}'" for w in sorted(STOPWORDS["en"]))
    return rf"""
        WITH q AS (
          SELECT doc_id,
                 CAST(length(text) AS DOUBLE) AS n,
                 CAST(length(regexp_extract_all(text, '[^\w\s]')) AS DOUBLE) AS punct,
                 regexp_extract_all(lower(text), '[A-Za-zÀ-ɏ'']+') AS words
          FROM documents
        ), c AS (
          SELECT doc_id, n, punct,
                 CAST(len(words) AS DOUBLE) AS nw,
                 CAST(len(list_filter(words, w -> list_contains([{sw}], w))) AS DOUBLE) AS nsw,
                 CASE WHEN len(words) > 0
                      THEN CAST(list_sum(list_transform(words, w -> length(w))) AS DOUBLE)
                           / CAST(len(words) AS DOUBLE)
                      ELSE 0.0 END AS mean_len
          FROM q
        )
        SELECT doc_id,
               CASE WHEN n = 0 THEN 0.0 ELSE round(
                 0.35 * (least(n, 2000.0) / 2000.0)
               + 0.25 * (1.0 - least((punct / n) * 4.0, 1.0))
               + 0.25 * (CASE WHEN nw > 0 THEN least((4.0 * nsw) / nw, 1.0) ELSE 0.0 END)
               + 0.15 * (CASE WHEN nw > 0 THEN
                           (CASE WHEN mean_len >= 3.0 AND mean_len <= 10.0
                                 THEN 1.0 ELSE 0.5 END)
                         ELSE 0.0 END)
               , 6) END AS quality
        FROM c ORDER BY doc_id
    """



def _mask_matrix(col) -> "np.ndarray":
    """[n, 32] packed 256-bit byte-set bitmasks for a pyarrow string
    column — the charset signature DuckDB's jaccard() compares (it
    operates on UTF-8 BYTE sets, verified empirically: 'héllo' vs
    'hello' -> 0.5). Computed without per-row Python: one fancy-index
    scatter over the column's raw UTF-8 data buffer (Arrow string
    storage IS the encoded bytes — zero copies, no .encode())."""
    import numpy as np

    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    outs = []
    for ch in chunks:
        n = len(ch)
        if n == 0:
            continue
        bufs = ch.buffers()
        odt = np.int64 if pa.types.is_large_string(ch.type) else np.int32
        offs = np.frombuffer(bufs[1], dtype=odt)[ch.offset : ch.offset + n + 1].astype(
            np.int64
        )
        data = np.frombuffer(bufs[2], dtype=np.uint8)[offs[0] : offs[-1]]
        lens = np.diff(offs)
        idx = np.repeat(np.arange(n, dtype=np.int64), lens)
        bits = np.zeros((n, 256), dtype=np.uint8)
        if len(data):
            bits[idx, data] = 1
        outs.append(np.packbits(bits, axis=1))
    if not outs:
        import numpy as np

        return np.zeros((0, 32), dtype=np.uint8)
    return outs[0] if len(outs) == 1 else np.vstack(outs)


def _mask_stats_partial(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: collapse the batch's docs to one row per
    unique mask (hex) with the local count and the two smallest doc
    ids. This is the pre-aggregation that keeps the groupby(mask)
    shuffle at O(unique masks per batch), not O(docs)."""
    import numpy as np

    masks = _mask_matrix(batch["text"])
    df = pd.DataFrame(
        {
            "doc_id": batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            "mask": [masks[i].tobytes().hex() for i in range(len(masks))],
        }
    ).sort_values("doc_id", kind="mergesort")
    counts = df.groupby("mask", sort=False).size()
    top2 = df.groupby("mask", sort=False).head(2).copy()
    top2["rk"] = top2.groupby("mask", sort=False).cumcount()
    piv = top2.pivot(index="mask", columns="rk", values="doc_id")
    out = pd.DataFrame(
        {
            "mask": piv.index,
            "count": counts.reindex(piv.index).to_numpy(dtype=np.int64),
            "min1": piv[0].to_numpy(dtype=np.int64),
            "min2": (
                piv[1].fillna(-1).to_numpy(dtype=np.int64)
                if 1 in piv.columns
                else np.full(len(piv), -1, dtype=np.int64)
            ),
        }
    )
    return pa.Table.from_pandas(out, preserve_index=False)


def _mask_stats_combine(g: pd.DataFrame) -> pd.DataFrame:
    """Final per-mask combine across batches: total count + global two
    smallest doc ids (the partials' min1/min2 already bound them)."""
    import numpy as np

    vals = np.concatenate([g["min1"].to_numpy(), g.loc[g["min2"] >= 0, "min2"].to_numpy()])
    vals = np.sort(vals)
    return pd.DataFrame(
        {
            "mask": [g["mask"].iloc[0]],
            "count": np.asarray([g["count"].sum()], dtype=np.int64),
            "min1": np.asarray([vals[0]], dtype=np.int64),
            "min2": np.asarray([vals[1] if len(vals) > 1 else -1], dtype=np.int64),
        }
    )


def _mask_group_stats(sf_dir: str) -> "rd.Dataset":
    """Distributed unique-charset-mask statistics over documents: one
    row per distinct 256-bit byte-set mask with (count, min1, min2).

    Jaccard over byte sets is a pure function of the mask, so every
    pairwise question collapses from O(docs^2) to O(u^2) where u is the
    number of DISTINCT charsets in the corpus — bounded by corpus
    language/script diversity, not corpus size (measured: 5,000 fixture
    docs -> 505 masks; a 100-TB web corpus stays ~10^4-10^5). Shape:
    map_batches partial combine -> groupby(mask) final combine; the
    shuffle moves one 64-char hex row per (batch, unique mask)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return (
        ds.map_batches(_mask_stats_partial, batch_format="pyarrow")
        .groupby("mask")
        .map_groups(_mask_stats_combine, batch_format="pandas")
    )


def _mask_match_exact(stats: pd.DataFrame):
    """Driver-side exact best-match over the u unique masks: the u x u
    Jaccard matrix via one unpackbits+sgemm block, per-mask best OTHER
    mask and the row_number()-compatible tie-break (min doc id among
    tied masks' group minima). Exact int/int double division so values
    hash-match DuckDB's jaccard() bit-for-bit."""
    import numpy as np

    u = len(stats)
    packed = np.frombuffer(
        bytes.fromhex("".join(stats["mask"])), dtype=np.uint8
    ).reshape(u, 32)
    B = np.unpackbits(packed, axis=1).astype(np.float32)
    pops = B.sum(axis=1).astype(np.int64)
    min1 = stats["min1"].to_numpy(dtype=np.int64)
    if u == 1:
        return pops, np.full(1, -1.0), np.full(1, -1, dtype=np.int64)
    inter = np.rint(B @ B.T).astype(np.int64)
    union = pops[:, None] + pops[None, :] - inter
    sims = np.divide(
        inter, union, out=np.zeros(inter.shape, dtype=np.float64), where=union > 0
    )
    np.fill_diagonal(sims, -1.0)
    best = sims.max(axis=1)
    is_best = sims == best[:, None]
    match = np.where(is_best, min1[None, :], np.iinfo(np.int64).max).min(axis=1)
    return pops, best, match


def _charset_finalize(batch: pa.Table, *, table_ref) -> pa.Table:
    """Broadcast-lookup output pass shared by the exact and LSH charset
    variants: per doc, recompute the 32-byte mask and read the per-mask
    verdict from the (O(u)-sized) broadcast table.

    Rules (exactly the doc-granularity semantics of a full pairwise
    scan with sims[self] excluded and ties broken by min match id):
      - pop == 0 (empty byte set): sim to EVERY doc is 0 (guarded
        0/0), so the tie set is all other docs -> global min doc id.
      - count >= 2: an identical-mask peer gives sim 1.0, which no
        distinct mask can reach -> min peer id.
      - else: the mask's best-other verdict (absent -> no bucket
        candidate in the LSH variant: doc omitted, like any
        collisionless doc in an LSH scheme).
    """
    import numpy as np

    table, g1, g2 = worker_value(table_ref)
    out_d, out_m, out_s = [], [], []
    masks = _mask_matrix(batch["text"])
    for i, d in enumerate(batch["doc_id"].to_pylist()):
        count, m1, m2, pop, bo, mo = table[masks[i].tobytes()]
        if pop == 0:
            if g2 < 0:
                continue  # single-doc corpus: no other doc exists
            match = g1 if d != g1 else g2
            sim = 0.0
        elif count >= 2:
            match = m1 if d != m1 else m2
            sim = 1.0
        elif bo is not None:
            match, sim = mo, bo
        else:
            continue
        out_d.append(d)
        out_m.append(match)
        out_s.append(sim)
    return pa.table(
        {
            "doc_id": pa.array(np.asarray(out_d, dtype=np.int64), pa.int64()),
            "match_id": pa.array(np.asarray(out_m, dtype=np.int64), pa.int64()),
            "sim": pa.array(np.asarray(out_s, dtype=np.float64), pa.float64()),
        }
    )


def _finalize_pass(sf_dir: str, table: dict, stats: pd.DataFrame) -> pd.DataFrame:
    import numpy as np

    import ray

    mins = np.concatenate(
        [stats["min1"].to_numpy(), stats.loc[stats["min2"] >= 0, "min2"].to_numpy()]
    )
    mins = np.sort(mins.astype(np.int64))
    g1 = int(mins[0]) if len(mins) else -1
    g2 = int(mins[1]) if len(mins) > 1 else -1
    ref = ray.put((table, g1, g2))
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(
        _charset_finalize, fn_kwargs={"table_ref": ref}, batch_format="pyarrow", batch_size=2048
    ).to_pandas()
    if "doc_id" not in out.columns:
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "match_id": pd.Series([], dtype="int64"),
                "sim": pd.Series([], dtype="float64"),
            }
        )
    return out.sort_values("doc_id").reset_index(drop=True)


def charset_best_match(
    sf_dir: str,
    max_unique_masks: int = 16_384,
    on_overflow: str = "lsh",
) -> pd.DataFrame:
    """For every document, the most byte-set-similar OTHER document
    (Jaccard over UTF-8 byte sets; ties by match doc_id ascending).

    Three phases: (1) distributed unique-mask stats (_mask_group_stats
    — the only shuffle, O(unique masks) rows); (2) driver-side u x u
    exact match table (u = distinct charsets, corpus-size-independent);
    (3) broadcast-lookup finalize pass over the docs. Nothing
    O(corpus) ever reaches the driver and the broadcast is O(u), so
    the old [N, 256] broadcast cap (~10^7 docs) is gone; the exact
    int/int double division hash-matches the DuckDB jaccard() oracle
    bit-for-bit.

    GATED CAP: u is corpus-dependent and unbounded on adversarial /
    binary corpora where masks don't repeat; the u x u driver block is
    only affordable up to max_unique_masks (default 16,384 -> a ~2 GB
    float64 block worst-case). Past the cap the call FALLS BACK to the
    documented overflow path charset_best_match_lsh (on_overflow
    ="lsh", approximate — no u x u matrix is ever built) or raises
    (on_overflow="raise") so the cap can never be exceeded silently.

    Twin-domain caveat (edge-corpus probe, round 5): DuckDB's
    jaccard() RAISES on empty-string input, so the SQL twin is only
    defined over corpora with non-empty texts (all fixtures qualify);
    the engine itself handles empty docs (empty byte-set mask)."""
    stats = _mask_group_stats(sf_dir).to_pandas().sort_values("min1").reset_index(drop=True)
    u = len(stats)
    if u > max_unique_masks:
        if on_overflow == "lsh":
            import logging

            logging.getLogger(__name__).warning(
                "charset_best_match: %d unique masks exceed the u x u cap "
                "(%d); falling back to charset_best_match_lsh",
                u,
                max_unique_masks,
            )
            return charset_best_match_lsh(sf_dir)
        raise ValueError(
            f"charset_best_match: {u} unique masks exceed max_unique_masks="
            f"{max_unique_masks}; use charset_best_match_lsh"
        )
    pops, best, match = _mask_match_exact(stats)
    table = {
        bytes.fromhex(m): (
            int(c),
            int(m1),
            int(m2),
            int(pops[i]),
            (float(best[i]) if best[i] >= 0 else None),
            int(match[i]),
        )
        for i, (m, c, m1, m2) in enumerate(
            zip(stats["mask"], stats["count"], stats["min1"], stats["min2"])
        )
    }
    return _finalize_pass(sf_dir, table, stats)


def charset_best_match_lsh(
    sf_dir: str, n_bands: int = 8, bucket_cap: int = 20_000
) -> pd.DataFrame:
    """Bucketed scale path for charset_best_match, for corpora whose
    DISTINCT-charset count u is itself too large for the exact
    variant's driver-side u x u block (adversarial/binary corpora where
    masks don't repeat): no u x u matrix is ever built — unique masks
    are banded into 8 x 32-bit LSH buckets and compared only within
    buckets, all in groupby/map_groups stages.

    Shape: (1) the same _mask_group_stats pass; (2) each unique mask
    expands to n_bands (band_id, band_value) rows; (3)
    groupby(shard).map_groups — within each bucket, pairwise Jaccard
    over that bucket's UNIQUE MASKS via one unpackbits+sgemm block
    (never over docs: identical-charset docs collapsed upstream);
    (4) groupby(mask) — best candidate across buckets; (5) the shared
    broadcast-lookup finalize. Approximate by construction: a
    singleton mask whose true best match shares NO exact 32-bit band
    gets a weaker candidate (or none -> doc omitted); where the
    candidate IS the true best, sim is the same exact division as the
    exact variant. Hot buckets are capped at bucket_cap unique masks
    (logged) — within-bucket work is O(cap^2), never O(u^2)."""
    import numpy as np

    # u rows (distinct charsets) — materializing this is O(u), not
    # O(corpus); it feeds both the banding pass and the final table
    stats_ds = _mask_group_stats(sf_dir).materialize()

    def band_rows(batch: pa.Table) -> pa.Table:
        bids, bvals, masks, min1s, shards = [], [], [], [], []
        for m, m1 in zip(batch["mask"].to_pylist(), batch["min1"].to_pylist()):
            words = np.frombuffer(bytes.fromhex(m), dtype=">u4")
            for b in range(min(n_bands, 8)):
                v = int(words[b])
                bids.append(b)
                bvals.append(v)
                masks.append(m)
                min1s.append(m1)
                shards.append((v ^ (b * 0x9E3779B9)) % 64)
        return pa.table(
            {
                "shard": pa.array(shards, pa.int32()),
                "band_id": pa.array(bids, pa.int32()),
                "band_value": pa.array(bvals, pa.int64()),
                "mask": pa.array(masks, pa.string()),
                "min1": pa.array(min1s, pa.int64()),
            }
        )

    def best_in_shard(g: pd.DataFrame) -> pd.DataFrame:
        out_mask, out_sim, out_match = [], [], []
        for _, grp in g.groupby(["band_id", "band_value"], sort=False):
            if len(grp) < 2:
                continue
            if len(grp) > bucket_cap:
                print(
                    f"charset_lsh: hot bucket with {len(grp)} unique masks "
                    f"capped at {bucket_cap}"
                )
                grp = grp.nsmallest(bucket_cap, "min1")
            hexes = grp["mask"].tolist()
            min1 = grp["min1"].to_numpy(dtype=np.int64)
            packed = np.frombuffer(bytes.fromhex("".join(hexes)), dtype=np.uint8).reshape(
                len(grp), 32
            )
            B = np.unpackbits(packed, axis=1).astype(np.float32)
            pops = B.sum(axis=1).astype(np.int64)
            inter = np.rint(B @ B.T).astype(np.int64)
            union = pops[:, None] + pops[None, :] - inter
            sims = np.divide(
                inter, union, out=np.zeros(inter.shape, dtype=np.float64), where=union > 0
            )
            np.fill_diagonal(sims, -1.0)
            best = sims.max(axis=1)
            is_best = sims == best[:, None]
            match = np.where(is_best, min1[None, :], np.iinfo(np.int64).max).min(axis=1)
            out_mask.extend(hexes)
            out_sim.extend(best.tolist())
            out_match.extend(match.tolist())
        return pd.DataFrame(
            {
                "mask": pd.Series(out_mask, dtype="string"),
                "cand_sim": pd.Series(out_sim, dtype="float64"),
                "cand_match": pd.Series(out_match, dtype="int64"),
            }
        )

    def add_mask_shard(t: pa.Table) -> pa.Table:
        shard = np.asarray(
            [int(m[:8], 16) % 64 for m in t["mask"].to_pylist()], dtype=np.int32
        )
        return t.append_column("mask_shard", pa.array(shard, pa.int32()))

    def reduce_mask(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for m, grp in g.groupby("mask", sort=False):
            best = grp["cand_sim"].max()
            rows.append(
                (m, float(best), int(grp.loc[grp["cand_sim"] == best, "cand_match"].min()))
            )
        return pd.DataFrame(rows, columns=["mask", "cand_sim", "cand_match"]).astype(
            {"cand_sim": "float64", "cand_match": "int64"}
        )

    cand = (
        stats_ds.map_batches(band_rows, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(best_in_shard, batch_format="pandas")
        .map_batches(add_mask_shard, batch_format="pyarrow")
        .groupby("mask_shard")
        .map_groups(reduce_mask, batch_format="pandas")
        .to_pandas()
    )
    stats = stats_ds.to_pandas().sort_values("min1").reset_index(drop=True)
    import numpy as _np2

    packed = (
        _np2.frombuffer(bytes.fromhex("".join(stats["mask"])), dtype=_np2.uint8).reshape(
            len(stats), 32
        )
        if len(stats)
        else _np2.zeros((0, 32), dtype=_np2.uint8)
    )
    pops = _np2.unpackbits(packed, axis=1).sum(axis=1).astype(_np2.int64)
    by_mask = (
        {m: (float(s), int(c)) for m, s, c in cand.itertuples(index=False)}
        if "mask" in cand.columns
        else {}
    )
    table = {}
    for i, (m, cnt, m1, m2) in enumerate(
        zip(stats["mask"], stats["count"], stats["min1"], stats["min2"])
    ):
        c = by_mask.get(m)
        table[bytes.fromhex(m)] = (
            int(cnt),
            int(m1),
            int(m2),
            int(pops[i]),
            (c[0] if c is not None else None),
            (c[1] if c is not None else -1),
        )
    return _finalize_pass(sf_dir, table, stats)


def charset_best_match_sql() -> str:
    return """
        WITH s AS (
            SELECT a.doc_id AS doc_id, b.doc_id AS match_id,
                   jaccard(a.text, b.text) AS sim
            FROM documents a JOIN documents b ON a.doc_id <> b.doc_id
        ), r AS (
            SELECT doc_id, match_id, sim,
                   row_number() OVER (PARTITION BY doc_id
                                      ORDER BY sim DESC, match_id) AS rk
            FROM s
        )
        SELECT doc_id, match_id, sim FROM r WHERE rk = 1 ORDER BY doc_id
    """


# ---------------------------------------------------------------------------
# Benchmark contamination: word-13-gram overlap vs a benchmark set
# ---------------------------------------------------------------------------

def _word_ngrams(text: str, n: int) -> list[str]:
    """Word n-grams with tokenization identical to the SQL oracle:
    string_split_regex(trim(text), '\\s+')."""
    import re

    words = re.split(r"\s+", text.strip())
    if len(words) < n:
        return []
    return [" ".join(words[i : i + n]) for i in range(len(words) - n + 1)]


def benchmark_contamination(sf_dir: str, n_bench: int = 20, n: int = 13) -> pd.DataFrame:
    """Training-data decontamination: flag documents sharing any word
    13-gram with a benchmark set (the industry-standard n-gram overlap
    check; the benchmark here is the deterministic first `n_bench` docs
    by id).

    Scale shape: benchmark suites are small by nature, so the benchmark
    gram set is built from a pushed-down `doc_id < n_bench` filter read
    and broadcast ONCE with ray.put (never re-shipped per batch); the
    corpus side then streams embarrassingly parallel — per batch, count
    DISTINCT shared grams per doc. No shuffle at all: the output is
    only the contaminated rows."""
    import ray

    bench_ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).filter(expr=f"doc_id < {n_bench}")

    def grams_of(t: pa.Table) -> pa.Table:
        out: set[str] = set()
        for txt in t["text"].to_pylist():
            out.update(_word_ngrams(txt, n))
        return pa.table({"gram": pa.array(sorted(out), pa.string())})

    gram_rows = bench_ds.map_batches(grams_of, batch_format="pyarrow").take_all()
    bench_grams = frozenset(r["gram"] for r in gram_rows)
    ref = ray.put(bench_grams)

    def count_shared(t: pa.Table) -> pa.Table:
        bench = worker_value(ref)
        ids, counts = [], []
        for doc_id, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            shared = {g for g in _word_ngrams(txt, n) if g in bench}
            if shared:
                ids.append(doc_id)
                counts.append(len(shared))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_shared_grams": pa.array(counts, pa.int64()),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(count_shared, batch_format="pyarrow").to_pandas()
    if "doc_id" not in out.columns:
        out = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "n_shared_grams": pd.Series([], dtype="int64"),
            }
        )
    return out.sort_values("doc_id").reset_index(drop=True)


def benchmark_contamination_sql(n_bench: int = 20, n: int = 13) -> str:
    return f"""
        WITH w AS (
          SELECT doc_id, string_split_regex(trim(text), '\\s+') AS words
          FROM documents
        ), g AS (
          SELECT doc_id, array_to_string(words[i:i+{n - 1}], ' ') AS gram
          FROM w CROSS JOIN unnest(range(1, greatest(len(words) - {n - 2}, 1))) AS t(i)
        ), bench AS (
          SELECT DISTINCT gram FROM g WHERE doc_id < {n_bench}
        )
        SELECT g.doc_id, COUNT(DISTINCT g.gram) AS n_shared_grams
        FROM g JOIN bench USING (gram)
        GROUP BY g.doc_id ORDER BY g.doc_id
    """


# ---------------------------------------------------------------------------
# PII redaction over transcript turns
# ---------------------------------------------------------------------------

# patterns chosen to be valid AND identical in Python re and RE2 (DuckDB)
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE = r"\b\d{3}[-.]\d{3}[-.]\d{4}\b"


class PiiRedactor:
    """Redaction task stage: patterns compiled once in __init__ on the
    driver and shipped with the instance, per-batch sub/count over the
    text column. Counts are
    taken on the ORIGINAL text and both substitutions are applied
    email-first, mirroring the SQL oracle's nested regexp_replace."""

    def __init__(self):
        import re

        self.email = re.compile(PII_EMAIL)
        self.phone = re.compile(PII_PHONE)

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        clean, n_em, n_ph = [], [], []
        for txt in texts:
            n_em.append(len(self.email.findall(txt)))
            n_ph.append(len(self.phone.findall(txt)))
            clean.append(self.phone.sub("[PHONE]", self.email.sub("[EMAIL]", txt)))
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "clean_text": pa.array(clean, pa.string()),
                "n_emails": pa.array(n_em, pa.int64()),
                "n_phones": pa.array(n_ph, pa.int64()),
            }
        )


def pii_redact(fixture_dir: str) -> pd.DataFrame:
    """PII scrubbing over transcript turns (email + phone patterns) —
    the training-data privacy pass. Embarrassingly parallel task map;
    no shuffle; output ordered only for the oracle compare."""
    from ..sources.transcripts import read_transcripts

    ds = read_transcripts(fixture_dir)
    out = (
        ds.map_batches(PiiRedactor(), batch_format="pyarrow", batch_size=256)
        .to_pandas()
    )
    return out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def pii_redact_sql(shards_glob: str) -> str:
    return f"""
        SELECT conv_id, turn_idx,
               regexp_replace(
                 regexp_replace(text, '{PII_EMAIL}', '[EMAIL]', 'g'),
                 '{PII_PHONE}', '[PHONE]', 'g') AS clean_text,
               CAST(len(regexp_extract_all(text, '{PII_EMAIL}')) AS BIGINT) AS n_emails,
               CAST(len(regexp_extract_all(text, '{PII_PHONE}')) AS BIGINT) AS n_phones
        FROM read_parquet('{shards_glob}')
        ORDER BY conv_id, turn_idx
    """


# ---------------------------------------------------------------------------
# Text normalization over plain transcript turns
# ---------------------------------------------------------------------------

class TurnNormalizer:
    """Normalization task stage: lowercase + collapse whitespace runs
    to single spaces + trim. The whitespace regex is compiled once in
    __init__ and shipped with the instance; the fixture charset is
    ASCII so Python lower() and SQL lower() agree."""

    def __init__(self):
        import re

        self.ws = re.compile(r"\s+")

    def __call__(self, t: pa.Table) -> pa.Table:
        # plain turns only (tool = '') — vectorized mask, payload turns
        # never reach the Python loop
        t = t.filter(pc.equal(t["tool"], ""))
        texts = t["text"].to_pylist()
        norm = [self.ws.sub(" ", s).strip().lower() for s in texts]
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "norm_text": pa.array(norm, pa.string()),
                "n_chars": pa.array([len(s) for s in norm], pa.int64()),
            }
        )


def turn_normalize(fixture_dir: str) -> pd.DataFrame:
    """Normalization pass over the PLAIN transcript turns (tool = '')
    of the synthetic corpus: the canonicalize-before-dedup step of a
    training-data pipeline. Vectorized in-batch filter, embarrassingly
    parallel, no shuffle."""
    from ..sources.transcripts import read_transcripts

    ds = read_transcripts(fixture_dir, columns=["conv_id", "turn_idx", "text", "tool"])
    out = (
        ds.map_batches(TurnNormalizer(), batch_format="pyarrow", batch_size=512)
        .to_pandas()
    )
    return out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def turn_normalize_sql(shards_glob: str) -> str:
    return f"""
        SELECT conv_id, turn_idx,
               lower(trim(regexp_replace(text, '\\s+', ' ', 'g'))) AS norm_text,
               CAST(length(lower(trim(regexp_replace(text, '\\s+', ' ', 'g'))))
                    AS BIGINT) AS n_chars
        FROM read_parquet('{shards_glob}')
        WHERE tool = ''
        ORDER BY conv_id, turn_idx
    """


def _html_ld_batch(t: pa.Table) -> pa.Table:
    """Task stage for the link-density (readability-style) HTML
    main-content variant: each batch maps html -> main text in-process.
    Second algorithm on the same extraction surface (extract_main_text
    is the flagship's density rule) — the axis-B extension point made
    concrete."""
    from ..html.extract import extract_main_text_ld

    return pa.table(
        {
            "conv_id": t["conv_id"],
            "turn_idx": t["turn_idx"],
            "main_text": pa.array(
                [extract_main_text_ld(x) for x in t["text"].to_pylist()], pa.string()
            ),
        }
    )


def html_ld_extract(fixture_dir: str) -> pd.DataFrame:
    """Link-density HTML extraction over the htmlld fixture family;
    oracle = the serially-computed frozen golden parquet."""
    from ..sources.transcripts import read_transcripts

    ds = read_transcripts(fixture_dir)
    out = ds.map_batches(_html_ld_batch, batch_format="pyarrow", batch_size=32).to_pandas()
    out["turn_idx"] = out["turn_idx"].astype("int32")
    return out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def html_ld_extract_sql(golden_path: str) -> str:
    return f"""
        SELECT conv_id, turn_idx, main_text
        FROM read_parquet('{golden_path}')
        ORDER BY conv_id, turn_idx
    """


def feature_hashing(sf_dir: str, n_buckets: int = 64) -> pd.DataFrame:
    """Hashing-trick bag-of-words: every space-delimited token maps to
    md5_u32(token) % n_buckets, giving each document a fixed-width
    sparse count vector without any vocabulary build or shuffle — the
    feature-engineering op that makes text models scale (no global
    dictionary state). Per doc the query surfaces the nonzero-bucket
    count and an md5 signature over the sorted "bucket:count" pairs,
    so the oracle check covers the full vector content. Entirely
    row-local: zero exchanges at any corpus size."""
    import hashlib

    import numpy as np

    from ..functions.md5vec import md5_prefix_u32

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def per_batch(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        nnzs, sigs = [], []
        for txt in t["text"].to_pylist():
            toks = [w.encode("utf-8") for w in txt.split(" ") if w != ""]
            if toks:
                h = md5_prefix_u32(toks) % np.uint64(n_buckets)
                bkt, cnt = np.unique(h.astype(np.int64), return_counts=True)
            else:
                bkt = cnt = np.zeros(0, dtype=np.int64)
            nnzs.append(len(bkt))
            sig = "|".join(f"{b}:{c}" for b, c in zip(bkt, cnt))
            sigs.append(hashlib.md5(sig.encode()).hexdigest())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "nnz": pa.array(nnzs, pa.int64()),
                "sig": pa.array(sigs, pa.string()),
            }
        )

    out = ds.map_batches(per_batch, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def feature_hashing_sql(n_buckets: int = 64) -> str:
    return f"""
        WITH tok AS (
            SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents
        ), b AS (
            SELECT doc_id,
                   CAST(('0x' || substr(md5(t), 1, 8)) AS UBIGINT) % {n_buckets}
                       AS bkt
            FROM tok WHERE t <> ''
        ), c AS (
            SELECT doc_id, bkt, COUNT(*) AS n FROM b GROUP BY 1, 2
        )
        , per AS (
            SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS nnz,
                   md5(string_agg(bkt || ':' || n, '|' ORDER BY bkt)) AS sig
            FROM c GROUP BY doc_id
        )
        -- LEFT JOIN: a token-less doc hashes to the empty vector
        -- (nnz=0, sig=md5('')) and the engine emits it
        SELECT d.doc_id, COALESCE(p.nnz, 0) AS nnz,
               COALESCE(p.sig, md5('')) AS sig
        FROM documents d LEFT JOIN per p USING (doc_id)
        ORDER BY d.doc_id
    """


def token_lang_chi2(sf_dir: str) -> pd.DataFrame:
    """Token-label association (chi-square feature selection): for every
    observed (token, lang) pair, the 2x2 document-presence contingency
    counts and the chi-square statistic — the classic filter for
    label-leaking vocabulary before training a classifier.

    chi2 is published as a single division of two EXACT int64 products
    (N*(ad-bc)^2 / ((a+b)(c+d)(a+c)(b+d))), so the float is bit-identical
    to the SQL oracle regardless of summation order; documents is 500
    rows at every scale so the int64 bound holds by construction (at
    real scale, sample the contingency base or widen to int128 limbs).

    Distributed plan: tokenization + per-doc distinct happen per batch
    (a document never spans batches), partial (token, lang) presence
    counts fold through one small groupby over the vocabulary x label
    grid; the chi2 arithmetic runs on the driver over that tiny grid."""
    import numpy as np

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])

    def partial(t: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {"doc_id": t["doc_id"].to_pylist(), "lang": t["lang"].to_pylist(),
             "text": t["text"].to_pylist()}
        )
        ex = df.assign(token=df["text"].str.split(" ")).explode("token")
        ex = ex[ex["token"].notna() & (ex["token"] != "")]
        ex = ex.drop_duplicates(["doc_id", "token"])
        g = ex.groupby(["token", "lang"], as_index=False).agg(a=("doc_id", "size"))
        # per-batch lang doc totals ride along on a reserved token key
        r = df.groupby("lang", as_index=False).agg(a=("doc_id", "size"))
        r.insert(0, "token", "\x00__docs__")
        out = pd.concat([g, r], ignore_index=True)
        out["a"] = out["a"].astype("int64")
        return out

    from ray.data.aggregate import Sum

    grid = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["token", "lang"])
        .aggregate(Sum("a", alias_name="a"))
        .to_pandas()
    )
    docs = grid[grid["token"] == "\x00__docs__"]
    r_by_lang = dict(zip(docs["lang"], docs["a"].astype(int)))
    n = int(sum(r_by_lang.values()))
    g = grid[grid["token"] != "\x00__docs__"].copy()
    t_by_token = g.groupby("token")["a"].sum().to_dict()

    a = g["a"].to_numpy().astype(np.int64)
    r = g["lang"].map(r_by_lang).to_numpy().astype(np.int64)
    t = g["token"].map(t_by_token).to_numpy().astype(np.int64)
    b = r - a
    c = t - a
    d = n - r - c
    num = n * (a * d - b * c) ** 2
    den = (a + b) * (c + d) * (a + c) * (b + d)
    chi2 = np.divide(num.astype(np.float64), den.astype(np.float64),
                     out=np.zeros(len(g), dtype=np.float64), where=den > 0)
    out = pd.DataFrame(
        {"token": g["token"], "lang": g["lang"], "n_docs": a, "chi2": chi2}
    )
    return out.sort_values(["token", "lang"]).reset_index(drop=True)


def token_lang_chi2_sql() -> str:
    return """
        WITH ex AS (
            SELECT doc_id, lang, unnest(string_split(text, ' ')) AS token
            FROM documents
        ),
        tok AS (SELECT DISTINCT doc_id, lang, token FROM ex WHERE token <> ''),
        a AS (SELECT token, lang, CAST(COUNT(*) AS BIGINT) AS a FROM tok GROUP BY 1, 2),
        r AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS r FROM documents GROUP BY 1),
        t AS (SELECT token, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS t FROM tok GROUP BY 1),
        n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents)
        SELECT a.token, a.lang, a.a AS n_docs,
               CASE WHEN (a.a + (r.r - a.a)) * ((t.t - a.a) + (n.n - r.r - t.t + a.a))
                         * (a.a + (t.t - a.a)) * ((r.r - a.a) + (n.n - r.r - t.t + a.a)) = 0
                    THEN 0.0
                    ELSE CAST(n.n * (a.a * (n.n - r.r - t.t + a.a)
                                     - (r.r - a.a) * (t.t - a.a))
                              * (a.a * (n.n - r.r - t.t + a.a)
                                 - (r.r - a.a) * (t.t - a.a)) AS DOUBLE)
                         / CAST((a.a + (r.r - a.a))
                                * ((t.t - a.a) + (n.n - r.r - t.t + a.a))
                                * (a.a + (t.t - a.a))
                                * ((r.r - a.a) + (n.n - r.r - t.t + a.a)) AS DOUBLE)
               END AS chi2
        FROM a JOIN r USING (lang) JOIN t USING (token) CROSS JOIN n
        ORDER BY a.token, a.lang
    """


_MATCH_LEXICON = ("art", "able", "low", "in", "row", "key", "the", "data")


def dictionary_match_counts(sf_dir: str) -> pd.DataFrame:
    """Multi-pattern substring matching over the document corpus (the
    Aho-Corasick counting job every PII / lexicon scanner runs): for a
    fixed lexicon, the total NON-OVERLAPPING occurrence count and the
    number of documents containing each pattern.  Non-overlapping
    left-to-right semantics are exactly Python str.count AND exactly
    DuckDB's (len(text) - len(replace(text, pat, ''))) / len(pat), so
    the SQL twin is bit-exact.

    Distributed plan: patterns broadcast in the closure (lexicon-sized);
    each batch emits one partial row per pattern (occurrences,
    containing-docs) — the exchange is lexicon-sized, never
    corpus-sized."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        rows = {"pattern": [], "occ": [], "docs": []}
        for pat in _MATCH_LEXICON:
            occ = 0
            docs = 0
            for s in texts:
                c = s.count(pat)
                occ += c
                docs += 1 if c else 0
            rows["pattern"].append(pat)
            rows["occ"].append(occ)
            rows["docs"].append(docs)
        return pa.table(
            {
                "pattern": pa.array(rows["pattern"], pa.string()),
                "occ": pa.array(rows["occ"], pa.int64()),
                "docs": pa.array(rows["docs"], pa.int64()),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("pattern")
        .aggregate(Sum("occ", alias_name="n_occurrences"), Sum("docs", alias_name="n_docs"))
        .to_pandas()
        .sort_values("pattern")
        .reset_index(drop=True)
    )
    for c in ("n_occurrences", "n_docs"):
        out[c] = out[c].astype("int64")
    return out


def dictionary_match_counts_sql() -> str:
    blocks = " UNION ALL ".join(
        f"""
        SELECT '{p}' AS pattern,
               CAST(SUM((length(text) - length(replace(text, '{p}', '')))
                        // {len(p)}) AS BIGINT) AS n_occurrences,
               CAST(SUM(CASE WHEN position('{p}' IN text) > 0
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_docs
        FROM documents"""
        for p in _MATCH_LEXICON
    )
    return f"SELECT * FROM ({blocks}) ORDER BY pattern"


def _suffix_array(s: bytes) -> "np.ndarray":
    """Prefix-doubling suffix array over the CYCLIC rotations of s
    (classic O(n log^2 n), all numpy)."""
    import numpy as np

    n = len(s)
    rank = np.frombuffer(s, dtype=np.uint8).astype(np.int64)
    sa = np.argsort(rank, kind="stable")
    k = 1
    while k < n:
        key2 = rank[(np.arange(n) + k) % n]
        order = np.lexsort((key2, rank))
        new = np.zeros(n, dtype=np.int64)
        r_o, k_o = rank[order], key2[order]
        changed = np.r_[False, (r_o[1:] != r_o[:-1]) | (k_o[1:] != k_o[:-1])]
        new[order] = np.cumsum(changed)
        rank = new
        sa = order
        if rank[order[-1]] == n - 1:
            break
        k *= 2
    return sa


def bwt_compressibility(sf_dir: str) -> pd.DataFrame:
    """Burrows-Wheeler compressibility audit per document: the BWT
    clusters equal characters, so comparing the run count of the
    transformed text against the original measures how much a
    move-to-front/RLE stage would gain — the transform bzip2-family
    codecs are built on.  A sentinel byte 0 is appended (texts are
    ASCII) so the transform is invertible; the inverse-LF roundtrip is
    pinned in pytest.  Exact SQL twin (round-4 upgrade): the BWT is
    re-expressed as a per-doc ROTATION sort — n lateral rotation rows
    per doc keyed by substring(s||s, i+1, n), last-column chars read
    by LAG over that order; run counts for both the original and the
    transform are adjacent-inequality window sums.  The twin appends
    chr(1) where the engine appends byte 0: both are the unique
    strict minimum against ASCII text (asserted by the engine's
    .encode('ascii')), so the rotation order, the BWT permutation and
    every run boundary are identical.

    Distributed plan: embarrassingly parallel map_batches; each doc's
    suffix array is numpy prefix-doubling (O(n log^2 n)), no Python
    loop over characters."""
    import numpy as np

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        out = {"doc_id": [], "n_chars": [], "runs_orig": [], "runs_bwt": []}
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            raw = text.encode("ascii") + b"\x00"
            arr = np.frombuffer(raw, dtype=np.uint8)
            sa = _suffix_array(raw)
            bwt = arr[(sa - 1) % len(raw)]
            out["doc_id"].append(did)
            out["n_chars"].append(len(text))
            out["runs_orig"].append(int((arr[1:] != arr[:-1]).sum()) + 1)
            out["runs_bwt"].append(int((bwt[1:] != bwt[:-1]).sum()) + 1)
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "n_chars": pa.array(out["n_chars"], pa.int64()),
                "runs_orig": pa.array(out["runs_orig"], pa.int64()),
                "runs_bwt": pa.array(out["runs_bwt"], pa.int64()),
            }
        )

    return (
        ds.map_batches(stats, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def bwt_compressibility_sql() -> str:
    """Exact twin of bwt_compressibility via rotation-sort (see the
    engine docstring for the sentinel argument)."""
    return r"""
        WITH b AS (
          SELECT doc_id, text || chr(1) AS s,
                 CAST(length(text) + 1 AS BIGINT) AS n
          FROM documents
        ), rot AS (
          SELECT doc_id, n, i,
                 substring(s || s, CAST(i + 1 AS BIGINT), n) AS key,
                 substring(s || s, i + n, 1) AS last_ch,
                 substring(s, CAST(i + 1 AS BIGINT), 1) AS orig_ch
          FROM b, UNNEST(range(n)) AS t(i)
        ), bw AS (
          SELECT doc_id, last_ch,
                 LAG(last_ch) OVER (PARTITION BY doc_id ORDER BY key) AS prev_b
          FROM rot
        ), og AS (
          SELECT doc_id, orig_ch,
                 LAG(orig_ch) OVER (PARTITION BY doc_id ORDER BY i) AS prev_o
          FROM rot
        ), rb AS (
          SELECT doc_id,
                 CAST(1 + SUM(CASE WHEN prev_b IS NOT NULL AND last_ch <> prev_b
                                   THEN 1 ELSE 0 END) AS BIGINT) AS runs_bwt
          FROM bw GROUP BY 1
        ), ro AS (
          SELECT doc_id,
                 CAST(1 + SUM(CASE WHEN prev_o IS NOT NULL AND orig_ch <> prev_o
                                   THEN 1 ELSE 0 END) AS BIGINT) AS runs_orig
          FROM og GROUP BY 1
        )
        SELECT b.doc_id, CAST(b.n - 1 AS BIGINT) AS n_chars,
               ro.runs_orig, rb.runs_bwt
        FROM b JOIN ro USING (doc_id) JOIN rb USING (doc_id)
        ORDER BY b.doc_id
    """


def bwt_inverse(bwt: "np.ndarray") -> bytes:
    """Inverse BWT via the LF mapping (stable counting sort) — used by
    the roundtrip test, exported for symmetry."""
    import numpy as np

    order = np.argsort(bwt, kind="stable")
    n = len(bwt)
    out = np.empty(n, dtype=np.uint8)
    # start from the row whose rotation begins with the sentinel 0:
    # that row ENDS with the char preceding the sentinel; walking LF
    # from the sentinel's position reconstructs the text backwards --
    # equivalently walk forward from the row of the sentinel char.
    pos = int(np.flatnonzero(bwt == 0)[0])
    for i in range(n):
        pos = int(order[pos])
        out[i] = bwt[pos]
    return out.tobytes()


def doc_ngram_novelty(sf_dir: str, n: int = 3) -> pd.DataFrame:
    """Streaming-novelty audit: per document, how many of its DISTINCT
    word n-grams are globally novel — i.e. no smaller doc_id contains
    the gram.  The running measure a crawl-ingestion pipeline tracks to
    detect when new shards stop adding information (novelty rate decay).

    Distributed plan: distinct (gram, doc_id) rows explode inside
    map_batches; ONE gram-keyed groupby computes both min(doc_id)
    (whose count per min-doc IS the novelty credit — no join back to
    the corpus needed) and the per-doc distinct-gram totals come from a
    doc-keyed groupby of the same rows.  The driver merges two
    entity-sized tables.  Tokenization matches the SQL twin:
    string_split_regex(trim(text), '\\s+')."""
    from ray.data.aggregate import Count, Min

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        ids, grams = [], []
        for doc_id, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            for g in set(_word_ngrams(txt, n)):
                ids.append(doc_id)
                grams.append(g)
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "gram": pa.array(grams, pa.string())}
        )

    rows = ds.map_batches(explode, batch_format="pyarrow")
    mins = (
        rows.groupby("gram")
        .aggregate(Min("doc_id", alias_name="m"))
        .groupby("m")
        .aggregate(Count(alias_name="n_novel"))
        .to_pandas()
        .rename(columns={"m": "doc_id"})
    )
    totals = (
        rows.groupby("doc_id").aggregate(Count(alias_name="n_grams")).to_pandas()
    )
    out = totals.merge(mins, on="doc_id", how="left").fillna({"n_novel": 0})
    out = out.astype({"doc_id": "int64", "n_grams": "int64", "n_novel": "int64"})
    return out.sort_values("doc_id").reset_index(drop=True)


def doc_ngram_novelty_sql(n: int = 3) -> str:
    return f"""
        WITH w AS (
          SELECT doc_id, string_split_regex(trim(text), '\\s+') AS words
          FROM documents
        ), g AS (
          SELECT DISTINCT doc_id,
                 array_to_string(words[i:i+{n - 1}], ' ') AS gram
          FROM w CROSS JOIN unnest(range(1, greatest(len(words) - {n - 2}, 1))) AS t(i)
          WHERE len(words) >= {n}
        ),
        mins AS (SELECT gram, MIN(doc_id) AS m FROM g GROUP BY gram),
        novel AS (SELECT m AS doc_id, CAST(COUNT(*) AS BIGINT) AS n_novel
                  FROM mins GROUP BY m),
        tot AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_grams
                FROM g GROUP BY doc_id)
        SELECT tot.doc_id, tot.n_grams,
               CAST(COALESCE(novel.n_novel, 0) AS BIGINT) AS n_novel
        FROM tot LEFT JOIN novel USING (doc_id)
        ORDER BY doc_id
    """


_ADLER_MOD = 65521


def doc_adler32_audit(sf_dir: str) -> pd.DataFrame:
    """Adler-32-style rolling checksum per document, defined over the
    CODEPOINT stream (so the SQL twin's ord()/length() semantics match
    Python's exactly for any unicode text): a = (1 + sum c_i) mod
    65521, b = (n + sum (n-i+1)*c_i) mod 65521, checksum = b*65536+a —
    the cheap content-integrity fingerprint a shard-level data audit
    recomputes on both sides of a transfer.  Closed form, so the SQL
    oracle needs no recursion.

    Distributed plan: embarrassingly parallel map_batches (one numpy
    pass per text); no shuffle at all."""
    import numpy as np

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def check(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        sums = []
        for txt in t["text"].to_pylist():
            c = np.fromiter((ord(ch) for ch in txt), dtype=np.int64, count=len(txt))
            n = len(c)
            a = (1 + int(c.sum())) % _ADLER_MOD
            w = np.arange(n, 0, -1, dtype=np.int64)
            b = (n + int((w * c).sum())) % _ADLER_MOD
            sums.append(b * 65536 + a)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "adler32": pa.array(np.asarray(sums, np.int64)),
            }
        )

    out = ds.map_batches(check, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def doc_adler32_audit_sql() -> str:
    return f"""
        WITH chars AS (
            SELECT doc_id, length(text) AS n, i,
                   ord(substr(text, CAST(i AS INTEGER), 1)) AS c
            FROM documents
            CROSS JOIN unnest(range(1, length(text) + 1)) AS t(i)
        ),
        agg AS (
            SELECT doc_id,
                   MAX(n) AS n,
                   SUM(c) AS s,
                   SUM((n - i + 1) * c) AS ws
            FROM chars GROUP BY doc_id
        )
        -- LEFT JOIN: the empty document has no char rows but a defined
        -- checksum (a=1, b=0 -> 1), and the engine emits it
        SELECT d.doc_id,
               CAST(((COALESCE(a.n, 0) + COALESCE(a.ws, 0)) % {_ADLER_MOD})
                        * 65536
                    + (1 + COALESCE(a.s, 0)) % {_ADLER_MOD} AS BIGINT)
                   AS adler32
        FROM documents d LEFT JOIN agg a USING (doc_id)
        ORDER BY d.doc_id
    """


def doc_minimizer_sketch(sf_dir: str, k: int = 3, w: int = 4) -> pd.DataFrame:
    """Minimizer document sketch (the genomics-style (w,k)-minimizer
    scheme adopted by modern large-scale dedup): hash every word
    k-gram (first 8 md5 hex digits as an integer), slide a w-gram
    window and keep each window's minimum hash — the set of distinct
    minimizers is a sketch whose size adapts to content, with the
    guarantee that two documents sharing a long run of text share the
    run's minimizers.  Output per doc: n_grams, n_minimizers and the
    md5 of the sorted minimizer list (so the oracle check covers the
    full set without hauling it).

    Distributed plan: embarrassingly parallel map_batches (numpy
    sliding-window min per doc); no shuffle."""
    import hashlib

    import numpy as np

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def sketch(t: pa.Table) -> pa.Table:
        ids, ng, nm, dig = [], [], [], []
        for doc_id, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            grams = _word_ngrams(txt, k)
            if not grams:
                continue
            h = np.array(
                [int(hashlib.md5(g.encode()).hexdigest()[:8], 16) for g in grams],
                dtype=np.int64,
            )
            if len(h) <= w:
                mins = {int(h.min())}
            else:
                sw = np.lib.stride_tricks.sliding_window_view(h, w)
                mins = set(sw.min(axis=1).tolist())
            srt = sorted(mins)
            ids.append(doc_id)
            ng.append(len(grams))
            nm.append(len(srt))
            dig.append(hashlib.md5(",".join(str(m) for m in srt).encode()).hexdigest())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_grams": pa.array(ng, pa.int64()),
                "n_minimizers": pa.array(nm, pa.int64()),
                "minimizers_md5": pa.array(dig, pa.string()),
            }
        )

    out = ds.map_batches(sketch, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def doc_minimizer_sketch_sql(k: int = 3, w: int = 4) -> str:
    return f"""
        WITH words AS (
            SELECT doc_id, string_split_regex(trim(text), '\\s+') AS ws
            FROM documents
        ),
        g AS (
            SELECT doc_id, i AS pos,
                   CAST(('0x' || substr(md5(array_to_string(ws[i:i+{k - 1}], ' ')),
                         1, 8)) AS UBIGINT) AS h,
                   len(ws) - {k - 1} AS n_grams
            FROM words
            CROSS JOIN unnest(range(1, greatest(len(ws) - {k - 2}, 1))) AS t(i)
            WHERE len(ws) >= {k}
        ),
        winmin AS (
            SELECT doc_id, n_grams,
                   MIN(h) OVER (PARTITION BY doc_id ORDER BY pos
                       ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING) AS m,
                   pos,
                   MAX(pos) OVER (PARTITION BY doc_id) AS max_pos
            FROM g
        ),
        mins AS (
            SELECT DISTINCT doc_id, n_grams, m
            FROM winmin
            WHERE pos <= max_pos - {w - 1} OR (max_pos < {w} AND pos = 1)
        )
        SELECT doc_id,
               CAST(MAX(n_grams) AS BIGINT) AS n_grams,
               CAST(COUNT(*) AS BIGINT) AS n_minimizers,
               md5(string_agg(CAST(m AS VARCHAR), ',' ORDER BY m))
                   AS minimizers_md5
        FROM mins
        GROUP BY doc_id
        ORDER BY doc_id
    """


_SCRIPT_CLASSES = [
    ("ascii_letters", r"[A-Za-z]"),
    ("digits", r"[0-9]"),
    ("cjk", r"[\x{4e00}-\x{9fff}]"),
    ("whitespace", r"[ \t\r\n]"),
]


def doc_script_census(sf_dir: str) -> pd.DataFrame:
    """Per-language script census over the documents table: how many
    codepoints fall in each script class (ASCII letters, digits, CJK
    ideographs, whitespace, everything else) — the encoding/script
    audit that validates a language tag actually matches the text's
    script before the corpus enters language-specific cleaning.

    Distributed plan: per-doc counting vectorized inside map_batches,
    one lang-keyed groupby of integer partials."""
    import re

    from ray.data.aggregate import Sum

    pats = [(name, re.compile(rx.replace(r"\x{4e00}", "一").replace(r"\x{9fff}", "鿿")))
            for name, rx in _SCRIPT_CLASSES]

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def census(t: pa.Table) -> pa.Table:
        langs = t["lang"].to_pylist()
        texts = t["text"].to_pylist()
        cols: dict = {name: [] for name, _ in pats}
        other, total = [], []
        for s in texts:
            n = len(s)
            covered = 0
            for name, rx in pats:
                c = len(rx.findall(s))
                cols[name].append(c)
                covered += c
            other.append(n - covered)
            total.append(n)
        data = {"lang": pa.array(langs, pa.string())}
        for name, _ in pats:
            data[name] = pa.array(cols[name], pa.int64())
        data["other"] = pa.array(other, pa.int64())
        data["total_chars"] = pa.array(total, pa.int64())
        return pa.table(data)

    aggs = [Sum(name, alias_name=name) for name, _ in _SCRIPT_CLASSES]
    aggs += [Sum("other", alias_name="other"), Sum("total_chars", alias_name="total_chars")]
    out = (
        ds.map_batches(census, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(*aggs)
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    for c in out.columns:
        if c != "lang":
            out[c] = out[c].astype("int64")
    return out


def doc_script_census_sql() -> str:
    cls = ", ".join(
        f"""CAST(SUM(length(text) - length(regexp_replace(text, '{rx}', '', 'g')))
             AS BIGINT) AS {name}"""
        for name, rx in _SCRIPT_CLASSES
    )
    any_cls = "|".join(rx for _, rx in _SCRIPT_CLASSES)
    return f"""
        SELECT lang, {cls},
               CAST(SUM(length(regexp_replace(text, '{any_cls}', '', 'g')))
                    AS BIGINT) AS other,
               CAST(SUM(length(text)) AS BIGINT) AS total_chars
        FROM documents
        GROUP BY lang
        ORDER BY lang
    """


def doc_sentence_census(sf_dir: str) -> pd.DataFrame:
    """Naive sentence-segmentation census per language: terminal
    punctuation chars ([.!?]), maximal terminal RUNS (the naive
    sentence count: '...' is one boundary, not three), and documents
    with no terminal at all — the structural prose-vs-fragment profile
    a cleaning pipeline reads before sentence-level ops (splitting,
    per-sentence dedup) are worth running.

    Distributed plan: per-doc regex counting inside map_batches, one
    lang-keyed groupby of integer partials."""
    import re

    from ray.data.aggregate import Sum

    term = re.compile(r"[.!?]+")

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def census(t: pa.Table) -> pa.Table:
        langs = t["lang"].to_pylist()
        chars, runs, bare = [], [], []
        for s in t["text"].to_pylist():
            rs = term.findall(s)
            chars.append(sum(len(r) for r in rs))
            runs.append(len(rs))
            bare.append(0 if rs else 1)
        return pa.table(
            {
                "lang": pa.array(langs, pa.string()),
                "one": pa.array([1] * len(langs), pa.int64()),
                "chars": pa.array(chars, pa.int64()),
                "runs": pa.array(runs, pa.int64()),
                "bare": pa.array(bare, pa.int64()),
            }
        )

    out = (
        ds.map_batches(census, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("one", alias_name="n_docs"),
            Sum("chars", alias_name="n_terminal_chars"),
            Sum("runs", alias_name="n_sentence_runs"),
            Sum("bare", alias_name="n_docs_no_terminal"),
        )
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    for c in out.columns:
        if c != "lang":
            out[c] = out[c].astype("int64")
    return out


def doc_sentence_census_sql() -> str:
    return r"""
        SELECT lang,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(length(text)
                        - length(regexp_replace(text, '[.!?]', '', 'g')))
                    AS BIGINT) AS n_terminal_chars,
               CAST(SUM(length(regexp_replace(text, '[.!?]+', '#', 'g'))
                        - length(regexp_replace(text, '[.!?]+', '', 'g')))
                    AS BIGINT) AS n_sentence_runs,
               CAST(COUNT(*) FILTER (WHERE NOT regexp_matches(text, '[.!?]'))
                    AS BIGINT) AS n_docs_no_terminal
        FROM documents
        GROUP BY lang ORDER BY lang
    """


def t5_span_mask_plan(sf_dir: str) -> pd.DataFrame:
    """T5-style span-corruption budget plan, integer-exact: per doc,
    whitespace token count and the deterministic floor-arithmetic mask
    plan at noise_density=15% / mean_span=3 — n_masked = tokens*15//100
    (clamped to [1, tokens-1] once tokens >= 2), n_spans =
    max(1, n_masked//3), encoder length = tokens - n_masked + n_spans
    sentinels, decoder length = n_masked + n_spans + 1 (EOS). The same
    formulas run in SQL over the same token counts, so the plan is
    hash-verifiable end to end — the budget sheet a pretraining
    data-pipeline uses to size batches before doing any masking.

    Distributed plan: token counting is the module's standard
    vectorized re.split inside map_batches (per-row string op); the
    plan arithmetic is numpy on the counted column; no shuffle at all —
    output stays partitioned as read."""
    import re

    import numpy as np

    ws = re.compile(r"\s+")
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def plan(t: pa.Table) -> pa.Table:
        toks = np.array(
            [len(ws.split(s)) for s in t["text"].to_pylist()], dtype=np.int64
        )
        n_masked = toks * 15 // 100
        n_masked = np.where(toks >= 2, np.clip(n_masked, 1, toks - 1), 0)
        n_spans = np.where(n_masked >= 1, np.maximum(1, n_masked // 3), 0)
        enc_len = toks - n_masked + n_spans
        dec_len = np.where(n_masked >= 1, n_masked + n_spans + 1, 0)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(toks),
                "n_masked": pa.array(n_masked),
                "n_spans": pa.array(n_spans),
                "enc_len": pa.array(enc_len),
                "dec_len": pa.array(dec_len),
            }
        )

    out = ds.map_batches(plan, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def t5_span_mask_plan_sql() -> str:
    # token expression mirrors token_counts_sql (parity pinned there)
    return r"""
        WITH t AS (
            SELECT doc_id,
                   CAST(length(string_split_regex(text, '\s+')) AS BIGINT)
                       AS n_tokens
            FROM documents
        ), m AS (
            SELECT doc_id, n_tokens,
                   CASE WHEN n_tokens >= 2 THEN
                       LEAST(GREATEST(n_tokens * 15 // 100, 1), n_tokens - 1)
                   ELSE 0 END AS n_masked
            FROM t
        ), s AS (
            SELECT doc_id, n_tokens, n_masked,
                   CASE WHEN n_masked >= 1
                        THEN GREATEST(1, n_masked // 3) ELSE 0 END AS n_spans
            FROM m
        )
        SELECT doc_id,
               CAST(n_tokens AS BIGINT) AS n_tokens,
               CAST(n_masked AS BIGINT) AS n_masked,
               CAST(n_spans AS BIGINT) AS n_spans,
               CAST(n_tokens - n_masked + n_spans AS BIGINT) AS enc_len,
               CAST(CASE WHEN n_masked >= 1 THEN n_masked + n_spans + 1
                         ELSE 0 END AS BIGINT) AS dec_len
        FROM s ORDER BY doc_id
    """


def source_token_kl(sf_dir: str) -> pd.DataFrame:
    """Per-source corpus drift: KL(P_source || P_global) over the
    unigram token distribution with add-one smoothing across the
    GLOBAL vocabulary (so sources missing a token still pay for it).
    p = (c_s + 1) / (T_s + V), q = (C + 1) / (G + V); each term
    p * ln(p / q) is quantized to nano-nats BEFORE the sum (the
    value_tail_hill / bm25 precedent: one libm call per (source,
    token) from exact int inputs, identical in DuckDB), so kl_nano is
    an order-free int64 the SQL twin reproduces bit-exactly.  This is
    the standard source-vs-corpus divergence screen before mixing
    training sources.

    Distributed plan: per-batch (source, token) occurrence counts fold
    through one vocabulary-x-source groupby (the exchange is
    vocab-sized, never corpus-sized); the KL arithmetic runs on the
    driver over that tiny grid."""
    import math

    import numpy as np
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text", "source"])

    def partial(t: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {"source": t["source"].to_pylist(), "text": t["text"].to_pylist()}
        )
        ex = df.assign(token=df["text"].str.split(" ")).explode("token")
        ex = ex[ex["token"].notna() & (ex["token"] != "")]
        g = ex.groupby(["source", "token"], as_index=False).agg(c=("text", "size"))
        g["c"] = g["c"].astype("int64")
        return g

    grid = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "token"])
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
    )
    vocab = sorted(grid["token"].unique())
    v = len(vocab)
    c_tok = grid.groupby("token")["c"].sum().to_dict()  # global C(token)
    g_tot = int(grid["c"].sum())
    rows = []
    for src, g in grid.groupby("source", sort=True):
        t_s = int(g["c"].sum())
        by_tok = dict(zip(g["token"], g["c"].astype(int)))
        kl = 0
        for tok in vocab:
            c = by_tok.get(tok, 0)
            p = (c + 1) / (t_s + v)
            q = (int(c_tok[tok]) + 1) / (g_tot + v)
            kl += int(math.floor(p * math.log(p / q) * 1e9 + 0.5))
        rows.append(
            {"source": src, "n_tokens": t_s, "vocab": v, "kl_nano": kl}
        )
    out = pd.DataFrame(rows)
    for col in ("n_tokens", "vocab", "kl_nano"):
        out[col] = out[col].astype("int64")
    return out


def source_token_kl_sql() -> str:
    return """
        WITH ex AS (
            SELECT source, unnest(string_split(text, ' ')) AS token
            FROM documents
        ), tok AS (
            SELECT source, token, CAST(COUNT(*) AS BIGINT) AS c
            FROM ex WHERE token <> '' GROUP BY 1, 2
        ), vocab AS (
            SELECT token, CAST(SUM(c) AS BIGINT) AS ct FROM tok GROUP BY 1
        ), vn AS (
            SELECT CAST(COUNT(*) AS BIGINT) AS v,
                   CAST(SUM(ct) AS BIGINT) AS g
            FROM vocab
        ), st AS (
            SELECT source, CAST(SUM(c) AS BIGINT) AS ts FROM tok GROUP BY 1
        ), terms AS (
            SELECT st.source, st.ts, vn.v,
                   CAST(FLOOR(
                       (CAST(COALESCE(tk.c, 0) + 1 AS DOUBLE) / (st.ts + vn.v))
                       * ln((CAST(COALESCE(tk.c, 0) + 1 AS DOUBLE) / (st.ts + vn.v))
                            / (CAST(vb.ct + 1 AS DOUBLE) / (vn.g + vn.v)))
                       * 1e9 + 0.5) AS BIGINT) AS q
            FROM st CROSS JOIN vn CROSS JOIN vocab vb
            LEFT JOIN tok tk ON tk.source = st.source AND tk.token = vb.token
        )
        SELECT source,
               ts AS n_tokens,
               v AS vocab,
               CAST(SUM(q) AS BIGINT) AS kl_nano
        FROM terms
        GROUP BY source, ts, v
        ORDER BY source
    """


def heaps_law_fit(sf_dir: str) -> pd.DataFrame:
    """Heaps'-law exponent per source: the integer least-squares slope
    of qlog(cumulative vocab) on qlog(cumulative tokens) over the
    per-doc prefix curve (docs scanned in doc_id order), with logs
    quantized to MICRO-nats before any arithmetic (the
    brand_price_size_regression / value_tail_hill precedent) so the
    sufficient statistics are exact integers.  Both prefix series are
    nondecreasing and similarly ordered, so the slope numerator is
    provably >= 0 (Chebyshev's sum inequality) and DuckDB's
    truncating HUGEINT `//` equals Python floor division; the final
    slope_micro is bit-exact vs the SQL twin.  slope_micro ~ 1e6*beta
    estimates V ~ T^beta — the vocabulary-growth planning number for
    tokenizer and dedup sizing.

    Distributed plan: source-keyed groupby; per group one pandas
    first-occurrence scan + cumsums; the regression folds tiny
    per-source sums on the driver with Python big ints."""
    import math

    import numpy as np

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    def per_source(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        ex = g.assign(token=g["text"].str.split(" ")).explode("token")
        ex = ex[ex["token"].notna() & (ex["token"] != "")]
        tok_per_doc = ex.groupby("doc_id", sort=True).size()
        first_doc = ex.groupby("token", sort=False)["doc_id"].min()
        new_per_doc = first_doc.value_counts().reindex(
            tok_per_doc.index, fill_value=0
        )
        x = np.cumsum(tok_per_doc.to_numpy(np.int64))
        y = np.cumsum(new_per_doc.to_numpy(np.int64))
        qx = [int(math.floor(math.log(int(v)) * 1e6 + 0.5)) for v in x]
        qy = [int(math.floor(math.log(int(v)) * 1e6 + 0.5)) for v in y]
        n = len(qx)
        sx, sy = sum(qx), sum(qy)
        sxx = sum(a * a for a in qx)
        sxy = sum(a * b for a, b in zip(qx, qy))
        num = n * sxy - sx * sy  # >= 0: similarly ordered sequences
        den = n * sxx - sx * sx
        if den <= 0:
            # fewer than two distinct curve points (e.g. a source whose
            # docs are all token-less, or a single doc): the slope is
            # undefined — drop the source, mirroring the twin's HAVING
            return pd.DataFrame(
                {
                    "source": pd.Series([], dtype="object"),
                    "n_docs": pd.Series([], dtype="int64"),
                    "total_tokens": pd.Series([], dtype="int64"),
                    "vocab": pd.Series([], dtype="int64"),
                    "slope_micro": pd.Series([], dtype="int64"),
                }
            )
        assert num >= 0
        return pd.DataFrame(
            {
                "source": [g["source"].iloc[0]],
                "n_docs": [n],
                "total_tokens": [int(x[-1])],
                "vocab": [int(y[-1])],
                "slope_micro": [1_000_000 * num // den],
            }
        )

    out = (
        ds.groupby("source")
        .map_groups(per_source, batch_format="pandas")
        .to_pandas()
    )
    for c in ("n_docs", "total_tokens", "vocab", "slope_micro"):
        out[c] = out[c].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def heaps_law_fit_sql() -> str:
    return """
        WITH ex AS (
            SELECT source, doc_id, unnest(string_split(text, ' ')) AS token
            FROM documents
        ), tok AS (
            SELECT source, doc_id, token FROM ex WHERE token <> ''
        ), per_doc AS (
            SELECT source, doc_id, CAST(COUNT(*) AS BIGINT) AS n_tok
            FROM tok GROUP BY 1, 2
        ), firsts AS (
            SELECT source, token, MIN(doc_id) AS first_doc
            FROM tok GROUP BY 1, 2
        ), new_per_doc AS (
            SELECT source, first_doc AS doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_new
            FROM firsts GROUP BY 1, 2
        ), curve AS (
            SELECT p.source, p.doc_id,
                   SUM(p.n_tok) OVER w AS x,
                   SUM(COALESCE(np.n_new, 0)) OVER w AS y
            FROM per_doc p LEFT JOIN new_per_doc np USING (source, doc_id)
            WINDOW w AS (PARTITION BY p.source ORDER BY p.doc_id)
        ), q AS (
            SELECT source,
                   CAST(FLOOR(ln(CAST(x AS DOUBLE)) * 1e6 + 0.5) AS HUGEINT)
                       AS qx,
                   CAST(FLOOR(ln(CAST(y AS DOUBLE)) * 1e6 + 0.5) AS HUGEINT)
                       AS qy,
                   x, y
            FROM curve
        )
        SELECT source,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(MAX(x) AS BIGINT) AS total_tokens,
               CAST(MAX(y) AS BIGINT) AS vocab,
               CAST(1000000 * (COUNT(*) * SUM(qx * qy) - SUM(qx) * SUM(qy))
                    // (COUNT(*) * SUM(qx * qx) - SUM(qx) * SUM(qx))
                    AS BIGINT) AS slope_micro
        FROM q GROUP BY source
        HAVING (COUNT(*) * SUM(qx * qx) - SUM(qx) * SUM(qx)) > 0
        ORDER BY source
    """


def token_adaptation_stats(sf_dir: str) -> pd.DataFrame:
    """Church-Gale adaptation census: per token, the collection
    frequency cf, document frequency df, and df2 = documents where the
    token occurs AT LEAST TWICE.  The df2/df 'adaptation' ratio is the
    classic evidence that real words cluster in documents (P(k>=2 |
    k>=1) >> P(k>=1)) — the statistic term-weighting and stopword
    policies are calibrated on.  Pure counts; GROUP BY SQL twin.

    Distributed plan: per-batch per-doc occurrence counts (a document
    never spans batches) fold through one vocab-sized groupby — the
    exchange is vocabulary-sized, never corpus-sized."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {"doc_id": t["doc_id"].to_pylist(), "text": t["text"].to_pylist()}
        )
        ex = df.assign(token=df["text"].str.split(" ")).explode("token")
        ex = ex[ex["token"].notna() & (ex["token"] != "")]
        occ = ex.groupby(["token", "doc_id"], as_index=False).agg(
            k=("text", "size")
        )
        g = occ.groupby("token", as_index=False).agg(
            cf=("k", "sum"),
            df=("k", "size"),
            df2=("k", lambda s: int((s >= 2).sum())),
        )
        for c in ("cf", "df", "df2"):
            g[c] = g[c].astype("int64")
        return g

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(
            Sum("cf", alias_name="cf"),
            Sum("df", alias_name="df"),
            Sum("df2", alias_name="df2"),
        )
        .to_pandas()
    )
    for c in ("cf", "df", "df2"):
        out[c] = out[c].astype("int64")
    return out.sort_values("token").reset_index(drop=True)


def token_adaptation_stats_sql() -> str:
    return """
        WITH ex AS (
            SELECT doc_id, unnest(string_split(text, ' ')) AS token
            FROM documents
        ), occ AS (
            SELECT token, doc_id, CAST(COUNT(*) AS BIGINT) AS k
            FROM ex WHERE token <> '' GROUP BY 1, 2
        )
        SELECT token,
               CAST(SUM(k) AS BIGINT) AS cf,
               CAST(COUNT(*) AS BIGINT) AS df,
               CAST(SUM(CASE WHEN k >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS df2
        FROM occ GROUP BY token ORDER BY token
    """


_FUNNEL_RULES = (
    (1, "min_chars"),
    (2, "max_chars"),
    (3, "mean_word_short"),
    (4, "mean_word_long"),
    (5, "max_word_len"),
    (6, "no_stopword"),
)


def doc_filter_funnel(sf_dir: str) -> pd.DataFrame:
    """C4/Gopher-style quality-filter funnel with per-rule attrition:
    rules fire IN ORDER (a doc is charged to the FIRST rule it fails),
    so the funnel reads as sequential survivorship — length bounds,
    mean-word-length band 3..12 (compared as exact cross-multiplied
    integers, no division), max token length 50, and a stopword
    presence check ('the').  This is the pre-training curation report
    every corpus release publishes: how many documents each rule
    kills, in which order.  Pure counts; CASE-cascade SQL twin.

    Distributed plan: per-batch per-doc rule stats (one split pass) ->
    first-fail code -> a rules-sized count exchange; funnel cumsums on
    the driver."""
    import numpy as np
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def partial(t: pa.Table) -> pd.DataFrame:
        texts = t["text"].to_pylist()
        codes = []
        for s in texts:
            n_chars = len(s)
            toks = [w for w in s.split(" ") if w]
            n_tok = len(toks)
            sum_len = sum(len(w) for w in toks)
            max_len = max((len(w) for w in toks), default=0)
            n_the = sum(1 for w in toks if w == "the")
            if n_chars < 100:
                c = 1
            elif n_chars > 10_000:
                c = 2
            elif 3 * n_tok > sum_len:
                c = 3
            elif sum_len > 12 * n_tok:
                c = 4
            elif max_len > 50:
                c = 5
            elif n_the == 0:
                c = 6
            else:
                c = 0
            codes.append(c)
        df = pd.DataFrame({"first_fail": np.array(codes, dtype=np.int64)})
        g = df.groupby("first_fail", as_index=False).agg(n=("first_fail", "size"))
        g["n"] = g["n"].astype("int64")
        return g

    c = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("first_fail")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    drops = dict(zip(c["first_fail"].astype(int), c["n"].astype(int)))
    total = sum(drops.values())
    rows = []
    n_in = total
    for rid, rule in _FUNNEL_RULES:
        d = drops.get(rid, 0)
        rows.append(
            {"rule_id": rid, "rule": rule, "n_in": n_in, "n_dropped": d,
             "n_out": n_in - d}
        )
        n_in -= d
    out = pd.DataFrame(rows)
    for col in ("rule_id", "n_in", "n_dropped", "n_out"):
        out[col] = out[col].astype("int64")
    return out


def doc_filter_funnel_sql() -> str:
    rules_values = ", ".join(f"({rid}, '{name}')" for rid, name in _FUNNEL_RULES)
    return f"""
        WITH tok AS (
            SELECT doc_id, token FROM (
                SELECT doc_id, unnest(string_split(text, ' ')) AS token
                FROM documents)
            WHERE token <> ''
        ), ts AS (
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_tok,
                   CAST(SUM(length(token)) AS BIGINT) AS sum_len,
                   CAST(MAX(length(token)) AS BIGINT) AS max_len,
                   CAST(SUM(CASE WHEN token = 'the' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_the
            FROM tok GROUP BY 1
        ), d AS (
            SELECT doc.doc_id,
                   CAST(length(doc.text) AS BIGINT) AS n_chars,
                   COALESCE(ts.n_tok, 0) AS n_tok,
                   COALESCE(ts.sum_len, 0) AS sum_len,
                   COALESCE(ts.max_len, 0) AS max_len,
                   COALESCE(ts.n_the, 0) AS n_the
            FROM documents doc LEFT JOIN ts USING (doc_id)
        ), ff AS (
            SELECT CASE WHEN n_chars < 100 THEN 1
                        WHEN n_chars > 10000 THEN 2
                        WHEN 3 * n_tok > sum_len THEN 3
                        WHEN sum_len > 12 * n_tok THEN 4
                        WHEN max_len > 50 THEN 5
                        WHEN n_the = 0 THEN 6
                        ELSE 0 END AS first_fail
            FROM d
        ), c AS (
            SELECT first_fail, CAST(COUNT(*) AS BIGINT) AS n
            FROM ff GROUP BY 1
        ), grid(rule_id, rule) AS (VALUES {rules_values}),
        sel AS (
            SELECT g.rule_id, g.rule, COALESCE(c.n, 0) AS n_dropped
            FROM grid g LEFT JOIN c ON c.first_fail = g.rule_id
        ), tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents)
        SELECT CAST(rule_id AS BIGINT) AS rule_id, rule,
               CAST(tot.n - COALESCE(SUM(n_dropped) OVER (
                   ORDER BY rule_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                   AS BIGINT) AS n_in,
               CAST(n_dropped AS BIGINT) AS n_dropped,
               CAST(tot.n - SUM(n_dropped) OVER (ORDER BY rule_id)
                   AS BIGINT) AS n_out
        FROM sel CROSS JOIN tot ORDER BY rule_id
    """


def source_len_ks_matrix(sf_dir: str) -> pd.DataFrame:
    """Pairwise Kolmogorov-Smirnov distance between per-source
    document LENGTH distributions, in exact cross-multiplied integers:
    D_scaled = max over observed lengths of |cumA * nB - cumB * nA|
    (the true KS statistic times nA*nB) — the distribution-shift gate
    before mixing sources into one training pool.  Evaluating the sup
    over the union of observed lengths is exact because both EDFs are
    step functions with steps only there.

    Distributed plan: one (source, n_chars) count exchange
    (histogram-sized); the S^2/2 pairwise sup-scan folds on the driver
    over that tiny grid."""
    import numpy as np
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text"])

    def keys(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "source": t["source"],
                "len": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
            }
        )

    g = (
        ds.map_batches(keys, batch_format="pyarrow")
        .groupby(["source", "len"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    sources = sorted(g["source"].unique())
    lens = np.sort(g["len"].unique())
    pos = {int(v): i for i, v in enumerate(lens)}
    prof = {}
    for s in sources:
        v = np.zeros(len(lens), dtype=np.int64)
        sub = g[g["source"] == s]
        v[[pos[int(x)] for x in sub["len"]]] = sub["n"].to_numpy(np.int64)
        prof[s] = np.cumsum(v)
    rows = []
    for i, a in enumerate(sources):
        for b in sources[i + 1 :]:
            ca, cb = prof[a], prof[b]
            na, nb = int(ca[-1]), int(cb[-1])
            d = int(np.abs(ca * nb - cb * na).max())
            rows.append(
                {"source_a": a, "source_b": b, "n_a": na, "n_b": nb,
                 "ks_scaled": d}
            )
    out = pd.DataFrame(rows)
    for c in ("n_a", "n_b", "ks_scaled"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["source_a", "source_b"]).reset_index(drop=True)


def source_len_ks_matrix_sql() -> str:
    return """
        WITH d AS (
            SELECT source, CAST(length(text) AS BIGINT) AS len
            FROM documents
        ), c AS (
            SELECT source, len, CAST(COUNT(*) AS BIGINT) AS n
            FROM d GROUP BY 1, 2
        ), grid AS (
            SELECT s.source, l.len
            FROM (SELECT DISTINCT source FROM d) s
            CROSS JOIN (SELECT DISTINCT len FROM d) l
        ), cum AS (
            SELECT g.source, g.len,
                   SUM(COALESCE(c.n, 0)) OVER (
                       PARTITION BY g.source ORDER BY g.len) AS cn,
                   SUM(COALESCE(c.n, 0)) OVER (
                       PARTITION BY g.source) AS tot
            FROM grid g LEFT JOIN c USING (source, len)
        )
        SELECT a.source AS source_a, b.source AS source_b,
               CAST(MAX(a.tot) AS BIGINT) AS n_a,
               CAST(MAX(b.tot) AS BIGINT) AS n_b,
               CAST(MAX(ABS(a.cn * b.tot - b.cn * a.tot)) AS BIGINT)
                   AS ks_scaled
        FROM cum a JOIN cum b
          ON a.len = b.len AND a.source < b.source
        GROUP BY 1, 2 ORDER BY 1, 2
    """


def zipf_slope_fit(sf_dir: str) -> pd.DataFrame:
    """Zipf's-law slope per source: the least-squares slope of
    qlog(freq) on qlog(rank) over the source's token frequency table
    (rank 1 = most frequent; ties rank by token ascending), with logs
    quantized to micro-nats so the sufficient statistics are exact
    int64 and the slope is published as the EXACT rational
    (slope_num, slope_den) — no division, no floor-sign pitfalls (the
    numerator is negative by construction for a decreasing law).
    Together with heaps_law_fit this is the corpus-shape fingerprint
    tokenizer sizing reads.

    Distributed plan: per-batch (source, token) counts fold through a
    vocab-sized exchange; ranking + regression run on the driver over
    the tiny grid."""
    import math

    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text", "source"])

    def partial(t: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {"source": t["source"].to_pylist(), "text": t["text"].to_pylist()}
        )
        ex = df.assign(token=df["text"].str.split(" ")).explode("token")
        ex = ex[ex["token"].notna() & (ex["token"] != "")]
        g = ex.groupby(["source", "token"], as_index=False).agg(c=("text", "size"))
        g["c"] = g["c"].astype("int64")
        return g

    grid = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "token"])
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
    )
    rows = []
    for src, g in grid.groupby("source", sort=True):
        g = g.sort_values(["c", "token"], ascending=[False, True])
        freqs = g["c"].astype(int).tolist()
        n = len(freqs)
        qx = [int(math.floor(math.log(r) * 1e6 + 0.5)) for r in range(1, n + 1)]
        qy = [int(math.floor(math.log(f) * 1e6 + 0.5)) for f in freqs]
        sx, sy = sum(qx), sum(qy)
        sxx = sum(a * a for a in qx)
        sxy = sum(a * b for a, b in zip(qx, qy))
        rows.append(
            {
                "source": src,
                "vocab": n,
                "total_tokens": int(g["c"].sum()),
                "slope_num": n * sxy - sx * sy,
                "slope_den": n * sxx - sx * sx,
            }
        )
    out = pd.DataFrame(rows)
    for c in ("vocab", "total_tokens", "slope_num", "slope_den"):
        out[c] = out[c].astype("int64")
    return out


def zipf_slope_fit_sql() -> str:
    return """
        WITH ex AS (
            SELECT source, unnest(string_split(text, ' ')) AS token
            FROM documents
        ), tok AS (
            SELECT source, token, CAST(COUNT(*) AS BIGINT) AS c
            FROM ex WHERE token <> '' GROUP BY 1, 2
        ), ranked AS (
            SELECT source, c,
                   ROW_NUMBER() OVER (PARTITION BY source
                                      ORDER BY c DESC, token) AS rk
            FROM tok
        ), q AS (
            SELECT source,
                   CAST(FLOOR(ln(CAST(rk AS DOUBLE)) * 1e6 + 0.5) AS BIGINT)
                       AS qx,
                   CAST(FLOOR(ln(CAST(c AS DOUBLE)) * 1e6 + 0.5) AS BIGINT)
                       AS qy,
                   c
            FROM ranked
        )
        SELECT source,
               CAST(COUNT(*) AS BIGINT) AS vocab,
               CAST(SUM(c) AS BIGINT) AS total_tokens,
               CAST(COUNT(*) * SUM(qx * qy) - SUM(qx) * SUM(qy) AS BIGINT)
                   AS slope_num,
               CAST(COUNT(*) * SUM(qx * qx) - SUM(qx) * SUM(qx) AS BIGINT)
                   AS slope_den
        FROM q GROUP BY source ORDER BY source
    """


def nb_source_confusion(sf_dir: str) -> pd.DataFrame:
    """Naive-Bayes source identification, end to end in exact
    integers: train multinomial NB on the corpus itself (add-one
    smoothing over the global vocabulary), score every document with
    NANO-NAT-QUANTIZED per-token log-likelihoods + log-prior (one libm
    call per grid cell from exact int inputs — the value_tail_hill
    precedent), predict argmax (ties to the lexicographically smallest
    source) and publish the confusion matrix.  Because every score is
    an order-free int64 sum, the SQL twin — the same model written as
    joins and window argmax — is bit-exact: a full train+predict+eval
    ML loop under the hash gate.

    Distributed plan: the parameter grid (vocab x sources) folds
    through one vocab-sized exchange, broadcasts to the scoring stage;
    per-batch scoring is one gather+matvec per doc; the confusion fold
    is sources^2-sized."""
    import math

    import numpy as np
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    def counts(t: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {"source": t["source"].to_pylist(), "text": t["text"].to_pylist()}
        )
        ex = df.assign(token=df["text"].str.split(" ")).explode("token")
        ex = ex[ex["token"].notna() & (ex["token"] != "")]
        g = ex.groupby(["source", "token"], as_index=False).agg(c=("text", "size"))
        # doc counts ride along on a reserved key (token_lang_chi2 trick)
        d = df.groupby("source", as_index=False).agg(c=("text", "size"))
        d.insert(1, "token", "\x00__docs__")
        out = pd.concat([g, d], ignore_index=True)
        out["c"] = out["c"].astype("int64")
        return out

    grid = (
        ds.map_batches(counts, batch_format="pyarrow")
        .groupby(["source", "token"])
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
    )
    docs = grid[grid["token"] == "\x00__docs__"]
    d_s = dict(zip(docs["source"], docs["c"].astype(int)))
    d_tot = int(sum(d_s.values()))
    g = grid[grid["token"] != "\x00__docs__"]
    sources = sorted(d_s)
    vocab = sorted(set(g["token"]))
    v = len(vocab)
    tok_idx = {t: i for i, t in enumerate(vocab)}
    src_idx = {s: i for i, s in enumerate(sources)}
    t_s = g.groupby("source")["c"].sum().to_dict()
    like = np.zeros((v, len(sources)), dtype=np.int64)
    for s in sources:
        denom = int(t_s.get(s, 0)) + v
        base = int(math.floor(math.log(1.0 / denom) * 1e9 + 0.5))
        like[:, src_idx[s]] = base
    for s, t, c in zip(g["source"], g["token"], g["c"].astype(int)):
        denom = int(t_s[s]) + v
        like[tok_idx[t], src_idx[s]] = int(
            math.floor(math.log((c + 1) / denom) * 1e9 + 0.5)
        )
    prior = np.array(
        [int(math.floor(math.log(d_s[s] / d_tot) * 1e9 + 0.5)) for s in sources],
        dtype=np.int64,
    )
    import ray as _ray

    model_ref = _ray.put((like, prior, tok_idx))

    def score(t: pa.Table) -> pd.DataFrame:
        lk, pr, tix = _ray.get(model_ref)
        rows = {"true_source": [], "pred_source": []}
        for src, text in zip(t["source"].to_pylist(), t["text"].to_pylist()):
            acc = pr.copy()
            for tok in text.split(" "):
                if tok:
                    acc = acc + lk[tix[tok]]
            rows["true_source"].append(src)
            rows["pred_source"].append(sources[int(np.argmax(acc))])
        return pd.DataFrame(rows)

    from ray.data.aggregate import Count

    out = (
        ds.map_batches(score, batch_format="pyarrow")
        .groupby(["true_source", "pred_source"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    return (
        out.sort_values(["true_source", "pred_source"])
        .reset_index(drop=True)
    )


def nb_source_confusion_sql() -> str:
    return """
        WITH ex AS (
            SELECT doc_id, source AS true_source,
                   unnest(string_split(text, ' ')) AS token
            FROM documents
        ), tok AS (
            SELECT * FROM ex WHERE token <> ''
        ), cnt AS (
            SELECT true_source AS source, token,
                   CAST(COUNT(*) AS BIGINT) AS c
            FROM tok GROUP BY 1, 2
        ), st AS (
            SELECT source, CAST(SUM(c) AS BIGINT) AS ts FROM cnt GROUP BY 1
        ), vocab AS (SELECT DISTINCT token FROM cnt),
        vn AS (SELECT CAST(COUNT(*) AS BIGINT) AS v FROM vocab),
        srcs AS (
            SELECT source, CAST(COUNT(*) AS BIGINT) AS d
            FROM documents GROUP BY 1
        ), dn AS (SELECT CAST(SUM(d) AS BIGINT) AS dt FROM srcs),
        prior AS (
            SELECT source,
                   CAST(FLOOR(ln(CAST(d AS DOUBLE) / dn.dt) * 1e9 + 0.5)
                        AS BIGINT) AS qp
            FROM srcs CROSS JOIN dn
        ), lik AS (
            -- FROM srcs (every source with DOCS), not st (sources with
            -- tokens): a token-less candidate source still gets fully
            -- smoothed likelihoods ln(1/(0+V)) — the engine's matrix
            -- covers it and votes it down per token, it does not win
            -- by prior alone
            SELECT sr.source, vb.token,
                   CAST(FLOOR(ln(CAST(COALESCE(c.c, 0) + 1 AS DOUBLE)
                                 / (COALESCE(s.ts, 0) + vn.v)) * 1e9 + 0.5)
                        AS BIGINT) AS ql
            FROM srcs sr
            LEFT JOIN st s USING (source)
            CROSS JOIN vocab vb CROSS JOIN vn
            LEFT JOIN cnt c ON c.source = sr.source AND c.token = vb.token
        ), doc_tok AS (
            SELECT doc_id, true_source, token,
                   CAST(COUNT(*) AS BIGINT) AS m
            FROM tok GROUP BY 1, 2, 3
        ), tok_score AS (
            SELECT dt.doc_id, l.source AS cand,
                   CAST(SUM(dt.m * l.ql) AS BIGINT) AS ts_
            FROM doc_tok dt
            JOIN lik l USING (token)
            GROUP BY 1, 2
        ), scores AS (
            -- CROSS JOIN from documents: a token-less doc is scored by
            -- the prior alone (the engine does), not dropped
            SELECT d.doc_id, d.source AS true_source, p.source AS cand,
                   COALESCE(t.ts_, 0) + p.qp AS score
            FROM documents d
            CROSS JOIN prior p
            LEFT JOIN tok_score t
                   ON t.doc_id = d.doc_id AND t.cand = p.source
        ), pred AS (
            SELECT doc_id, true_source, cand AS pred_source,
                   ROW_NUMBER() OVER (PARTITION BY doc_id
                                      ORDER BY score DESC, cand) AS rn
            FROM scores
        )
        SELECT true_source, pred_source,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM pred WHERE rn = 1
        GROUP BY 1, 2 ORDER BY 1, 2
    """


# ISO 32000-1 Table A.1 content-stream operator lexicon (all 73) —
# shared between content_op_census and its DuckDB twin so both sides
# filter the same token set.
PDF_CONTENT_OPS = (
    "b B b* B* BDC BI BMC BT BX c cm CS cs d d0 d1 Do DP EI EMC ET EX f "
    "F f* G g gs h i ID j J K k l m M MP n q Q re RG rg ri s S SC sc SCN "
    "scn sh T* Tc Td TD Tf Tj TJ TL Tm Tr Ts Tw Tz v w W W* x y z '"
).split() + ['"']

# explicit ASCII class: Python's \s is Unicode-wide and includes \x0b,
# RE2's is ASCII — the shared class keeps both engines agreeing, and
# tokens glued to NUL padding (the Flate 10x quirk) fail the lexicon
# match identically on both sides.
_OP_SPLIT = "[ \\t\\r\\n\\f]"


def content_op_census(raw_ds) -> pd.DataFrame:
    """LEXICAL census of content-stream operators over raw-content
    extraction output: whitespace-split each decoded stream and count
    tokens that are standard PDF operators, plus the number of distinct
    documents using each.  Lexical, not parsed — a string literal
    containing ` Tj ` counts (documented; the SQL twin applies the
    identical rule), which is what you want for a quick fleet-wide
    profile of which operator families payloads use before deciding
    interpreter coverage priorities.

    Distributed plan: takes the raw-content extraction DATASET; each
    turn lives in exactly one batch so per-op (occurrences, docs)
    partials are additive; one lexicon-sized groupby(op) fold.

    `raw_ds`: Ray Dataset with extracted_text + parse_status columns
    (e.g. build_extraction(..., mode="raw-content"))."""
    import re

    from ray.data.aggregate import Sum

    rx = re.compile(_OP_SPLIT + "+")
    ops = set(PDF_CONTENT_OPS)

    def partial(t: pa.Table) -> pd.DataFrame:
        occ: dict[str, int] = {}
        docs: dict[str, int] = {}
        for s, st in zip(
            t["extracted_text"].to_pylist(), t["parse_status"].to_pylist()
        ):
            if st != "ok":
                continue
            seen = set()
            for tok in rx.split(s):
                if tok in ops:
                    occ[tok] = occ.get(tok, 0) + 1
                    seen.add(tok)
            for tok in seen:
                docs[tok] = docs.get(tok, 0) + 1
        keys = sorted(occ)
        return pd.DataFrame(
            {
                "op": keys,
                "occ": pd.Series([occ[o] for o in keys], dtype="int64"),
                "docs": pd.Series([docs[o] for o in keys], dtype="int64"),
            }
        )

    out = (
        raw_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("op")
        .aggregate(
            Sum("occ", alias_name="n_occurrences"),
            Sum("docs", alias_name="n_docs"),
        )
        .to_pandas()
    )
    for c in ("n_occurrences", "n_docs"):
        out[c] = out[c].astype("int64")
    return out.sort_values("op").reset_index(drop=True)


def content_op_census_sql(golden_parquet: str, mode: str) -> str:
    ops = ", ".join(
        "('" + o.replace("'", "''") + "')" for o in PDF_CONTENT_OPS
    )
    return f"""
        WITH raw AS (
            SELECT conv_id || '/' || CAST(turn_idx AS VARCHAR) AS dk,
                   unnest(string_split_regex(extracted_text,
                                             '{_OP_SPLIT}+')) AS tok
            FROM read_parquet('{golden_parquet}')
            WHERE mode = '{mode}' AND parse_status = 'ok'
        ), lex(op) AS (VALUES {ops})
        SELECT l.op,
               CAST(COUNT(*) AS BIGINT) AS n_occurrences,
               CAST(COUNT(DISTINCT r.dk) AS BIGINT) AS n_docs
        FROM raw r JOIN lex l ON r.tok = l.op
        GROUP BY 1 ORDER BY 1
    """


CONTAMINATION_LEXICON: tuple = (
    "fast merge",
    "customer query",
    "big vector",
    "spark a",
    "agg row",
    "the line sort",
    "window table",
    "slow filter",
)


def lexicon_match_census(
    sf_dir: str, lexicon: tuple = CONTAMINATION_LEXICON
) -> pd.DataFrame:
    """Multi-phrase substring census over the corpus — the
    benchmark-contamination / canary-phrase screen a training-data
    pipeline runs before release: for every lexicon phrase, how many
    documents contain it and how many NON-OVERLAPPING occurrences
    exist in total. Substring semantics (not token-bounded), counted
    greedily left-to-right — exactly what str.count and DuckDB's
    replace-length identity both compute, so the SQL twin is
    value-exact.

    Distributed plan: stateless map_batches — each batch scans its
    documents once per phrase (Python str.count; an Aho-Corasick
    automaton is the constant-factor upgrade when the lexicon grows
    to thousands) and emits one (phrase, n_docs, n_occurrences)
    partial row per phrase; a phrase-keyed Sum folds partials. Text
    never leaves the task; the exchange is O(batches x |lexicon|)."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    phrases = list(lexicon)

    def census(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        rows_p, rows_d, rows_o = [], [], []
        for p in phrases:
            counts = [s.count(p) for s in texts]
            rows_p.append(p)
            rows_d.append(sum(1 for c in counts if c))
            rows_o.append(sum(counts))
        return pa.table(
            {
                "phrase": pa.array(rows_p, pa.string()),
                "n_docs": pa.array(rows_d, pa.int64()),
                "n_occurrences": pa.array(rows_o, pa.int64()),
            }
        )

    out = (
        ds.map_batches(census, batch_format="pyarrow")
        .groupby("phrase")
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("n_occurrences", alias_name="n_occurrences"))
        .to_pandas()
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_occurrences"] = out["n_occurrences"].astype("int64")
    return out.sort_values("phrase").reset_index(drop=True)


def lexicon_match_census_sql(lexicon: tuple = CONTAMINATION_LEXICON) -> str:
    """EXACT DuckDB twin of lexicon_match_census via the replace-length
    identity: occurrences(p) = (length(t) - length(replace(t, p, '')))
    / length(p) — the same greedy non-overlapping count as
    Python str.count."""
    vals = ", ".join("(" + "'" + p.replace("'", "''") + "')" for p in lexicon)
    return f"""
        WITH lex(phrase) AS (VALUES {vals}),
        per_doc AS (
            SELECT l.phrase,
                   (length(d.text) - length(replace(d.text, l.phrase, '')))
                       // length(l.phrase) AS c
            FROM documents d CROSS JOIN lex l
        )
        SELECT phrase,
               CAST(SUM(CASE WHEN c > 0 THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_docs,
               CAST(SUM(c) AS BIGINT) AS n_occurrences
        FROM per_doc GROUP BY 1 ORDER BY 1
    """
