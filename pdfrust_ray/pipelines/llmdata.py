"""LLM training-data construction ops over the documents table.

  - bpe_train: distributed BPE vocabulary learning. The corpus-sized
    work (word frequency counting) is distributed with a per-batch
    combiner so the exchange carries vocabulary-sized rows; the merge
    loop then runs over the (bounded) word-frequency table on the
    driver — exactly how production BPE trainers work (the vocab is
    orders of magnitude smaller than the corpus at any scale).
  - pack_sequences: greedy fixed-budget sequence packing — the
    pretraining batch-construction op. Hash-bucketed so packing is
    embarrassingly parallel across buckets; deterministic first-fit in
    doc_id order inside each bucket; exact recursive-CTE SQL oracle.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..functions.textstats import greedy_pack, token_count
from ..stages.broadcast import worker_value


def _word_counts(sf_dir: str) -> pd.DataFrame:
    """Distributed word-frequency table: per-batch Counter combiner ->
    groupby(word) Sum. The shuffle moves (word, partial_count) rows —
    vocabulary-sized, bounded by language, not corpus."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def combine(t: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for txt in t["text"].to_pylist():
            c.update(txt.split())
        words = sorted(c)
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                "n": pa.array([c[w] for w in words], pa.int64()),
            }
        )

    out = (
        ds.map_batches(combine, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    return out.sort_values("word").reset_index(drop=True)


def bpe_merge_loop(word_counts: dict[str, int], n_merges: int) -> list[tuple[str, str, int]]:
    """Sennrich-style BPE merge loop over a word-frequency dict.
    Deterministic: the most frequent adjacent symbol pair wins, ties
    broken by the lexicographically smallest (left, right). Returns
    [(left, right, pair_count), ...] in merge order."""
    from collections import Counter

    vocab = {tuple(w) + ("</w>",): n for w, n in word_counts.items()}
    merges: list[tuple[str, str, int]] = []
    for _ in range(n_merges):
        pairs: Counter = Counter()
        for sym, n in vocab.items():
            for a, b in zip(sym, sym[1:]):
                pairs[(a, b)] += n
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        (left, right), cnt = best
        merges.append((left, right, int(cnt)))
        joined = left + right
        new_vocab = {}
        for sym, n in vocab.items():
            out = []
            i = 0
            while i < len(sym):
                if i + 1 < len(sym) and sym[i] == left and sym[i + 1] == right:
                    out.append(joined)
                    i += 2
                else:
                    out.append(sym[i])
                    i += 1
            new_vocab[tuple(out)] = new_vocab.get(tuple(out), 0) + n
        vocab = new_vocab
    return merges


def bpe_train_sql(n_merges: int = 50) -> str:
    """EXACT DuckDB twin of bpe_train: the Sennrich merge loop runs
    inside one recursive CTE over the round-tagged symbolized
    vocabulary ('v' rows; words are character lists + '</w>'); each
    iteration counts weighted adjacent pairs, picks the
    (count DESC, left, right) argmin exactly like the Python
    tie-break, applies the merge with leftmost-non-overlapping
    semantics (run-parity windowing handles left==right runs), folds
    identical symbol lists, and emits one 'm' row — the accumulated
    'm' rows ARE the merge table, rank = round."""
    return f"""
WITH RECURSIVE wc AS (
    SELECT word, COUNT(*)::BIGINT AS n FROM (
        SELECT UNNEST(list_filter(string_split_regex(trim(text), '\\s+'),
                                  w -> w <> '')) AS word
        FROM documents
    ) GROUP BY word
),
init AS (
    SELECT list_append(list_transform(range(1, length(word) + 1),
                                      i -> word[i]), '</w>') AS sym,
           n
    FROM wc
),
state(r, kind, sym, n, l, rt, cnt) AS (
    SELECT 0, 'v', sym, n, NULL::VARCHAR, NULL::VARCHAR, NULL::BIGINT FROM init
    UNION ALL
    (
      WITH prev AS (SELECT * FROM state),
      rr AS (SELECT MAX(r) AS r FROM prev),
      v AS (SELECT sym, n FROM prev WHERE kind = 'v'),
      vid AS (
          SELECT row_number() OVER (ORDER BY sym) AS wid, sym, n FROM v
      ),
      pairs AS (
          SELECT sym[i] AS a, sym[i + 1] AS b, SUM(n) AS cnt
          FROM vid, UNNEST(range(1, len(sym))) t(i)
          GROUP BY 1, 2
      ),
      best AS (
          SELECT a, b, cnt FROM pairs
          ORDER BY cnt DESC, a, b LIMIT 1
      ),
      ex AS (
          SELECT wid, n, i AS pos, sym[i] AS tok, len(sym) AS ln
          FROM vid, UNNEST(range(1, len(sym) + 1)) t(i)
      ),
      mk AS (
          SELECT e.*, (e.tok = best.a AND
                       lead(e.tok) OVER (PARTITION BY e.wid ORDER BY e.pos)
                           = best.b) AS m
          FROM ex e CROSS JOIN best
      ),
      isl AS (
          SELECT mk.*,
                 CASE WHEN m THEN pos - row_number() OVER
                     (PARTITION BY wid, m ORDER BY pos) END AS grp
          FROM mk
      ),
      tk AS (
          SELECT isl.*,
                 m AND (pos - MIN(pos) OVER (PARTITION BY wid, grp)) % 2 = 0
                     AS taken
          FROM isl
      ),
      rebuilt AS (
          SELECT wid, n, pos,
                 CASE WHEN taken THEN tok ||
                     lead(tok) OVER (PARTITION BY wid ORDER BY pos)
                 ELSE tok END AS tok,
                 taken,
                 lag(taken) OVER (PARTITION BY wid ORDER BY pos) AS prev_taken
          FROM tk
      ),
      newv AS (
          SELECT wid, list(tok ORDER BY pos) AS sym, MIN(n) AS wn
          FROM rebuilt
          WHERE NOT COALESCE(prev_taken, false)
          GROUP BY wid
      ),
      folded AS (
          SELECT sym, SUM(wn) AS n FROM newv GROUP BY sym
      )
      SELECT rr.r + 1, x.kind, x.sym, x.n, x.l, x.rt, x.cnt
      FROM rr, (
          SELECT 'v' AS kind, sym, n, NULL::VARCHAR AS l, NULL::VARCHAR AS rt, NULL::BIGINT AS cnt
          FROM folded
          UNION ALL
          SELECT 'm', NULL::VARCHAR[], NULL::BIGINT, a, b, cnt FROM best
      ) x
      WHERE rr.r < {n_merges} AND EXISTS (SELECT 1 FROM best)
    )
)
SELECT CAST(r AS BIGINT) AS merge_rank, l AS "left", rt AS "right",
       CAST(cnt AS BIGINT) AS pair_count
FROM state WHERE kind = 'm' ORDER BY merge_rank
"""


def bpe_train(sf_dir: str, n_merges: int = 50) -> pd.DataFrame:
    """Learn a BPE merge table from the corpus: distributed word
    counting feeds the deterministic driver-side merge loop. Returns
    (merge_rank, left, right, pair_count). Value-exact SQL twin
    (bpe_train_sql, the recursive merge loop in SQL); also pinned by
    the serial-reference-equality pytest (an independent single-pass
    implementation recounting from the raw parquet)."""
    wc = _word_counts(sf_dir)
    merges = bpe_merge_loop(dict(zip(wc["word"], wc["n"])), n_merges)
    return pd.DataFrame(
        {
            "merge_rank": pd.Series(range(1, len(merges) + 1), dtype="int64"),
            "left": pd.Series([m[0] for m in merges], dtype="str"),
            "right": pd.Series([m[1] for m in merges], dtype="str"),
            "pair_count": pd.Series([m[2] for m in merges], dtype="int64"),
        }
    )


def pack_sequences(sf_dir: str, budget: int = 128, n_buckets: int = 16) -> pd.DataFrame:
    """Greedy sequence packing: assign documents to fixed-token-budget
    training packs. Docs are hash-bucketed (md5(doc_id) % n_buckets) so
    packing parallelizes across buckets with NO coordination; inside a
    bucket, docs pack first-fit in doc_id order — a new pack starts
    whenever adding the doc would exceed `budget` (oversized docs get
    their own pack). Token counts use the whitespace-split rule shared
    with the SQL oracle. One key-partitioned shuffle; the sequential
    scan is per bucket, never global."""

    def prep(t: pa.Table) -> pa.Table:
        from ..functions.md5vec import md5_prefix_u32

        ids = t["doc_id"].to_pylist()
        toks = [token_count(s) for s in t["text"].to_pylist()]
        buckets = md5_prefix_u32([str(i).encode() for i in ids]) % n_buckets
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "bucket": pa.array(buckets.astype("int64"), pa.int64()),
                "n_tokens": pa.array(toks, pa.int64()),
            }
        )

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id").reset_index(drop=True)
        g["pack_id"], g["pack_pos"] = greedy_pack(g["n_tokens"], budget)
        return g[["doc_id", "bucket", "n_tokens", "pack_id", "pack_pos"]]

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pack, batch_format="pandas")
        .to_pandas()
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def pack_sequences_sql(budget: int = 128, n_buckets: int = 16) -> str:
    """Exact SQL twin: the greedy reset is a linear recurrence, so the
    oracle walks each bucket with a recursive CTE over row_number."""
    return f"""
        WITH RECURSIVE t AS (
          SELECT doc_id,
                 CAST(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
                      % {n_buckets} AS BIGINT) AS bucket,
                 CAST(length(string_split_regex(text, '\\s+')) AS BIGINT) AS n_tokens
          FROM documents
        ), o AS (
          SELECT doc_id, bucket, n_tokens,
                 row_number() OVER (PARTITION BY bucket ORDER BY doc_id) AS rn
          FROM t
        ), s AS (
          SELECT doc_id, bucket, n_tokens, rn,
                 CAST(0 AS BIGINT) AS pack_id,
                 CAST(0 AS BIGINT) AS pack_pos,
                 n_tokens AS acc
          FROM o WHERE rn = 1
          UNION ALL
          SELECT o.doc_id, o.bucket, o.n_tokens, o.rn,
                 CASE WHEN s.acc + o.n_tokens > {budget}
                      THEN s.pack_id + 1 ELSE s.pack_id END,
                 CASE WHEN s.acc + o.n_tokens > {budget}
                      THEN 0 ELSE s.pack_pos + 1 END,
                 CASE WHEN s.acc + o.n_tokens > {budget}
                      THEN o.n_tokens ELSE s.acc + o.n_tokens END
          FROM s JOIN o ON o.bucket = s.bucket AND o.rn = s.rn + 1
        )
        SELECT doc_id, bucket, n_tokens, pack_id, pack_pos
        FROM s ORDER BY doc_id
    """


def lang_rebalanced_sample(sf_dir: str, scale: int = 1000) -> pd.DataFrame:
    """Data mixing: downsample every language to (approximately) the
    size of the smallest one — the uniform-mix curriculum primitive.

    Two passes: (1) a tiny distributed groupby(lang) count; (2) the
    per-lang keep-threshold floor(scale * min_n / n_lang) is broadcast
    and each batch keeps rows with md5(doc_id) % scale < threshold —
    deterministic, embarrassingly parallel, integer math shared with
    the SQL twin so the sample is bit-identical."""
    from ray.data.aggregate import Count

    import ray

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    counts = ds.groupby("lang").aggregate(Count(alias_name="n")).to_pandas()
    min_n = int(counts["n"].min())
    thresholds = {
        str(r.lang): (scale * min_n) // int(r.n) for r in counts.itertuples(index=False)
    }
    tref = ray.put(thresholds)

    def keep(t: pa.Table) -> pa.Table:
        from ..functions.md5vec import md5_prefix_u32

        th = ray.get(tref)
        ids = t["doc_id"].to_pylist()
        langs = t["lang"].to_pylist()
        h = md5_prefix_u32([str(i).encode() for i in ids]) % scale
        mask = [int(hv) < th[lg] for hv, lg in zip(h, langs)]
        return t.filter(pa.array(mask))

    out = ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    if "doc_id" not in out.columns:
        out = pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"), "lang": pd.Series([], dtype="str")}
        )
    return out.sort_values("doc_id").reset_index(drop=True)


def lang_rebalanced_sample_sql(scale: int = 1000) -> str:
    md5u32 = "CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)"
    return f"""
        WITH c AS (
          SELECT lang, COUNT(*) AS n FROM documents GROUP BY lang
        ), m AS (
          SELECT MIN(n) AS min_n FROM c
        ), th AS (
          SELECT c.lang, ({scale} * m.min_n) // c.n AS keep_lt FROM c, m
        )
        SELECT d.doc_id, d.lang
        FROM documents d JOIN th ON d.lang = th.lang
        WHERE {md5u32} % {scale} < th.keep_lt
        ORDER BY d.doc_id
    """


def _bpe_apply(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Apply learned merges to one word: repeatedly merge the
    lowest-rank adjacent pair present (the standard BPE encoder)."""
    sym = list(word) + ["</w>"]
    while len(sym) > 1:
        best_rank, best_i = None, -1
        for i in range(len(sym) - 1):
            r = ranks.get((sym[i], sym[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_rank is None:
            break
        sym[best_i : best_i + 2] = [sym[best_i] + sym[best_i + 1]]
    return sym


def bpe_encode_counts_sql(n_merges: int = 50, rmax: int = 40) -> str:
    """EXACT DuckDB twin of bpe_encode_counts: the trained merge table
    comes from the nested bpe_train_sql recursion; a second recursive
    CTE applies merges per DISTINCT word — each round every word
    merges its single lowest-rank (first-position) adjacent pair, the
    standard BPE encoder step — and per-document counts attach by
    word multiplicity."""
    train = bpe_train_sql(n_merges)
    return f"""
WITH RECURSIVE ranks AS (
    SELECT "left" AS l, "right" AS rt, merge_rank AS rk
    FROM ({train}) tr
),
words AS (
    SELECT DISTINCT word FROM (
        SELECT UNNEST(list_filter(string_split_regex(trim(text), '\\s+'),
                                  w -> w <> '')) AS word
        FROM documents
    )
),
enc(r, word, sym) AS (
    SELECT 0, word,
           list_append(list_transform(range(1, length(word) + 1),
                                      i -> word[i]), '</w>')
    FROM words
    UNION ALL
    (
      WITH prev AS (SELECT * FROM enc),
      rr AS (SELECT MAX(r) AS r FROM prev),
      cand AS (
          SELECT p.word, i, rk.rk
          FROM prev p, UNNEST(range(1, len(p.sym))) t(i)
          JOIN ranks rk ON rk.l = p.sym[i] AND rk.rt = p.sym[i + 1]
      ),
      best AS (
          SELECT word, i FROM (
              SELECT word, i,
                     row_number() OVER (PARTITION BY word
                                        ORDER BY rk, i) AS rn
              FROM cand
          ) WHERE rn = 1
      ),
      nxt AS (
          SELECT p.word,
                 CASE WHEN b.word IS NULL THEN p.sym
                 ELSE list_cat(
                     p.sym[1 : b.i - 1],
                     list_cat([p.sym[b.i] || p.sym[b.i + 1]],
                              p.sym[b.i + 2 : len(p.sym)]))
                 END AS sym
          FROM prev p LEFT JOIN best b ON b.word = p.word
      ),
      go AS (SELECT EXISTS (SELECT 1 FROM best) AS more)
      SELECT rr.r + 1, nxt.word, nxt.sym
      FROM nxt, rr, go WHERE go.more AND rr.r < {rmax}
    )
),
fin AS (SELECT MAX(r) AS r FROM enc),
-- convergence gate: if the recursion stopped at rmax with merge
-- candidates still present, fail loudly instead of silently
-- under-merging (ADVICE r3: rmax=40 backstop must not truncate)
chk AS (
    SELECT CASE WHEN EXISTS (
        SELECT 1
        FROM enc e, fin, UNNEST(range(1, len(e.sym))) t(i)
        JOIN ranks rk ON rk.l = e.sym[i] AND rk.rt = e.sym[i + 1]
        WHERE e.r = fin.r
    ) THEN error('bpe_encode_counts_sql: rmax={rmax} exhausted with unmerged candidates')
    ELSE 1 END AS ok
),
wlen AS (
    SELECT word, len(sym) AS n FROM enc, fin, chk
    WHERE enc.r = fin.r AND chk.ok = 1
),
dw AS (
    SELECT doc_id::BIGINT AS doc_id, UNNEST(
        list_filter(string_split_regex(trim(text), '\\s+'), w -> w <> '')
    ) AS word
    FROM documents
)
-- LEFT JOIN from documents: a token-less doc (empty/whitespace text)
-- encodes to 0 BPE tokens and must still get a row — the engine
-- emits one (edge-corpus probe, round 5)
SELECT d.doc_id, CAST(COALESCE(SUM(wlen.n), 0) AS BIGINT) AS n_bpe_tokens
FROM (SELECT doc_id::BIGINT AS doc_id FROM documents) d
LEFT JOIN dw ON dw.doc_id = d.doc_id
LEFT JOIN wlen ON wlen.word = dw.word
GROUP BY 1 ORDER BY 1
"""


def bpe_encode_counts(sf_dir: str, n_merges: int = 50) -> pd.DataFrame:
    """Apply the learned BPE merge table: per-document token count
    under the trained vocabulary (train + apply = the full tokenizer
    lifecycle). The merge-rank dict is broadcast once; each worker
    process fetches it once and caches word->tokens encodings next to
    it (so the per-word merge loop runs once per DISTINCT word per
    worker, not per occurrence). Value-exact SQL twin
    (bpe_encode_counts_sql); also pinned by the round-trip/monotonicity
    pytest."""
    import ray

    merges = bpe_train(sf_dir, n_merges=n_merges)
    ranks = {
        (l, r): i for i, (l, r) in enumerate(zip(merges["left"], merges["right"]))
    }
    rref = ray.put(ranks)

    def encode(t: pa.Table) -> pa.Table:
        ranks, cache = worker_value(rref, lambda r: (r, {}))
        counts = []
        for txt in t["text"].to_pylist():
            n = 0
            for w in txt.split():
                c = cache.get(w)
                if c is None:
                    c = cache[w] = len(_bpe_apply(w, ranks))
                n += c
            counts.append(n)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_bpe_tokens": pa.array(counts, pa.int64()),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(encode, batch_format="pyarrow", batch_size=1024).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def temperature_mix_sample(
    sf_dir: str, alpha: float = 0.5, frac: float = 0.5, scale: int = 1_000_000
) -> pd.DataFrame:
    """Temperature-based mixture sampling (the multilingual-pretraining
    standard: sample language l with probability proportional to
    n_l^alpha — alpha=1 keeps the natural mix, alpha=0 the uniform
    mix; see mBERT / XLM-R exponential smoothing).

    Integer-exact so the SQL twin is bit-identical: the ONLY float op
    is w_l = floor(power(n_l, alpha) * 1e6 + 0.5) per language (libm
    pow on both sides, half-away rounding); targets and keep-thresholds
    are pure int64 arithmetic from there, and membership is the
    deterministic md5(doc_id) predicate. Downsampling only: a language
    whose target exceeds n_l keeps every row (threshold saturates at
    `scale`). Same two-pass shape as lang_rebalanced_sample: tiny
    distributed lang count -> broadcast thresholds -> streaming keep
    filter. Returns the sampled (doc_id, lang) rows."""
    import math

    from ray.data.aggregate import Count

    import ray

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    counts = ds.groupby("lang").aggregate(Count(alias_name="n")).to_pandas()
    n_total = int(counts["n"].sum())
    # explicit floor(x + 0.5): Python int() truncates while DuckDB
    # CAST(double AS BIGINT) rounds — write the same op on both sides
    n_target = int(math.floor(n_total * frac + 0.5))
    w = {
        str(r.lang): int(math.floor(math.pow(float(r.n), alpha) * 1_000_000.0 + 0.5))
        for r in counts.itertuples(index=False)
    }
    sum_w = sum(w.values())
    n_by_lang = {str(r.lang): int(r.n) for r in counts.itertuples(index=False)}
    thresholds = {
        lg: min(scale, (scale * ((n_target * w[lg]) // sum_w)) // n_by_lang[lg])
        for lg in w
    }
    tref = ray.put(thresholds)

    def keep(t: pa.Table) -> pa.Table:
        from ..functions.md5vec import md5_prefix_u32

        th = ray.get(tref)
        ids = t["doc_id"].to_pylist()
        langs = t["lang"].to_pylist()
        h = md5_prefix_u32([str(i).encode() for i in ids]) % scale
        mask = [int(hv) < th[lg] for hv, lg in zip(h, langs)]
        return t.filter(pa.array(mask))

    out = ds.map_batches(keep, batch_format="pyarrow").to_pandas()
    if "doc_id" not in out.columns:
        out = pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"), "lang": pd.Series([], dtype="str")}
        )
    return out.sort_values("doc_id").reset_index(drop=True)


def temperature_mix_sample_sql(
    alpha: float = 0.5, frac: float = 0.5, scale: int = 1_000_000
) -> str:
    md5u32 = "CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)"
    return f"""
        WITH c AS (
          SELECT lang, CAST(COUNT(*) AS BIGINT) AS n FROM documents GROUP BY lang
        ), w AS (
          SELECT lang, n,
                 CAST(FLOOR(POWER(CAST(n AS DOUBLE), {alpha}) * 1000000.0 + 0.5)
                      AS BIGINT) AS wq
          FROM c
        ), g AS (
          SELECT SUM(wq) AS sum_w,
                 CAST(FLOOR(SUM(n) * {frac} + 0.5) AS BIGINT) AS n_target
          FROM w
        ), th AS (
          SELECT w.lang,
                 LEAST({scale},
                       ({scale} * ((g.n_target * w.wq) // g.sum_w)) // w.n) AS keep_lt
          FROM w, g
        )
        SELECT d.doc_id, d.lang
        FROM documents d JOIN th ON d.lang = th.lang
        WHERE {md5u32} % {scale} < th.keep_lt
        ORDER BY d.doc_id
    """


def clean_pack_pipeline(
    sf_dir: str, budget: int = 128, n_buckets: int = 16, scale: int = 1000
) -> pd.DataFrame:
    """The END-TO-END corpus-preparation pipeline, composed as one
    deterministic graph — what a real training-data run chains:

      1. Gopher repetition filter (drop repetitive docs);
      2. exact dedup (keep the min-doc_id copy of identical texts);
      3. near-dup drop: docs that are the LARGER side of any verified
         shingle-Jaccard >= 0.8 pair are dropped ("keep the earliest
         representative" — the corpus-wide pair relation is reused
         as-is, so this stage composes with the filters above without
         recomputing shingles per stage);
      4. language rebalance (downsample every language to the smallest
         SURVIVING one, md5 predicate);
      5. greedy fixed-budget sequence packing of the survivors.

    Ray shape: stages 1-2 are one streaming pass + one md5-keyed
    groupby (text never crosses a shuffle; stats/hash travel); stage 3
    broadcasts the sparse verified pair set (same sparsity assumption
    as dedup_clusters' driver union-find); stage 4 is a tiny lang
    count + broadcast thresholds; stage 5 the bucket-keyed packing
    groupby. Every stage's math is shared verbatim with the composed
    SQL twin, so the FINAL packed manifest is bit-identical — the
    strongest end-to-end evidence the driver contract can express.

    Returns (doc_id, lang, bucket, n_tokens, pack_id, pack_pos)."""
    import hashlib

    import numpy as np

    from collections import Counter

    import ray

    from ..stages.dedup import minhash_lsh_dedup
    from ray.data.aggregate import Count

    # stage-3 relation first: the corpus-wide verified near-dup pairs
    pairs = minhash_lsh_dedup(sf_dir)
    drop_b = set(pairs["doc_b"].tolist()) if len(pairs) else set()
    dref = ray.put(drop_b)

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )

    def stats(t: pa.Table) -> pa.Table:
        """Stages 1+3 per-row: gopher keep + near-dup drop; emit
        (doc_id, lang, md5, n_tokens) — text never leaves the task."""
        drops = ray.get(dref)
        ids, langs, hashes, toks = [], [], [], []
        for doc_id, lang, txt in zip(
            t["doc_id"].to_pylist(), t["lang"].to_pylist(), t["text"].to_pylist()
        ):
            if doc_id in drops:
                continue
            ws = txt.lower().split()
            nw, nd = len(ws), len(set(ws))
            dup = (nw - nd) / nw if nw else 0.0
            topb = max(Counter(zip(ws, ws[1:])).values()) if nw > 1 else 0
            share = topb / (nw - 1) if nw > 1 else 0.0
            if dup > 0.6 or share > 0.08:
                continue
            ids.append(doc_id)
            langs.append(lang)
            hashes.append(hashlib.md5(txt.encode()).hexdigest())
            toks.append(token_count(txt))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "lang": pa.array(langs, pa.string()),
                "th": pa.array(hashes, pa.string()),
                "n_tokens": pa.array(toks, pa.int64()),
            }
        )

    def keep_min(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values("doc_id").head(1)

    survivors = (
        ds.map_batches(stats, batch_format="pyarrow")
        .groupby("th")
        .map_groups(keep_min, batch_format="pandas")
    )

    counts = survivors.groupby("lang").aggregate(Count(alias_name="n")).to_pandas()
    min_n = int(counts["n"].min())
    thresholds = {
        str(r.lang): (scale * min_n) // int(r.n) for r in counts.itertuples(index=False)
    }
    tref = ray.put(thresholds)

    def rebalance_and_bucket(t: pa.Table) -> pa.Table:
        from ..functions.md5vec import md5_prefix_u32

        th = ray.get(tref)
        ids = t["doc_id"].to_pylist()
        langs = t["lang"].to_pylist()
        h = md5_prefix_u32([str(i).encode() for i in ids])
        keep = [int(hv % scale) < th[lg] for hv, lg in zip(h, langs)]
        t = t.filter(pa.array(keep))
        ids2 = t["doc_id"].to_pylist()
        b = md5_prefix_u32([str(i).encode() for i in ids2]) % n_buckets
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "bucket": pa.array(b.astype(np.int64), pa.int64()),
                "n_tokens": t["n_tokens"],
            }
        )

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id").reset_index(drop=True)
        g["pack_id"], g["pack_pos"] = greedy_pack(g["n_tokens"], budget)
        return g[["doc_id", "lang", "bucket", "n_tokens", "pack_id", "pack_pos"]]

    out = (
        survivors.map_batches(rebalance_and_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pack, batch_format="pandas")
        .to_pandas()
    )
    for c in ("doc_id", "bucket", "n_tokens", "pack_id", "pack_pos"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def clean_pack_pipeline_sql(
    budget: int = 128, n_buckets: int = 16, scale: int = 1000
) -> str:
    """The composed oracle: every stage's SQL fragment chained as CTEs
    (gopher expressions, md5-min dedup, the exact shingle-Jaccard pair
    relation, integer rebalance thresholds, recursive-CTE packing)."""
    from ..stages.dedup import minhash_lsh_dedup_sql

    md5u32 = "CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)"
    pairs = minhash_lsh_dedup_sql()
    return f"""
        WITH RECURSIVE pr AS MATERIALIZED (
          SELECT doc_b FROM ({pairs})
        ), w0 AS (
          SELECT doc_id, lang, text, md5(text) AS th,
                 CAST(length(string_split_regex(text, '\\s+')) AS BIGINT) AS n_tokens,
                 list_filter(string_split_regex(lower(text), '\\s+'), x -> x <> '') AS ws
          FROM documents
        ), gs AS (
          SELECT doc_id, CAST(len(ws) AS BIGINT) AS nw,
                 CAST(len(list_distinct(ws)) AS BIGINT) AS nd, ws
          FROM w0
        ), bg AS (
          SELECT doc_id, unnest([ws[x] || ' ' || ws[x + 1] FOR x IN range(1, len(ws))]) AS b
          FROM gs
        ), bm AS (
          SELECT doc_id, MAX(c) AS top_cnt
          FROM (SELECT doc_id, b, COUNT(*) AS c FROM bg GROUP BY doc_id, b)
          GROUP BY doc_id
        ), s1 AS (
          SELECT w0.doc_id, w0.lang, w0.th, w0.n_tokens
          FROM w0 JOIN gs ON w0.doc_id = gs.doc_id
          LEFT JOIN bm ON w0.doc_id = bm.doc_id
          WHERE NOT (
            (CASE WHEN gs.nw > 0 THEN (gs.nw - gs.nd) / gs.nw ELSE 0.0 END) > 0.6
            OR (CASE WHEN gs.nw > 1
                     THEN COALESCE(bm.top_cnt, 0) / (gs.nw - 1) ELSE 0.0 END) > 0.08)
          AND w0.doc_id NOT IN (SELECT doc_b FROM pr)
        ), s2 AS (
          SELECT doc_id, lang, n_tokens
          FROM (SELECT *, row_number() OVER (PARTITION BY th ORDER BY doc_id) AS rn
                FROM s1)
          WHERE rn = 1
        ), c AS (
          SELECT lang, CAST(COUNT(*) AS BIGINT) AS n FROM s2 GROUP BY lang
        ), m AS (
          SELECT MIN(n) AS min_n FROM c
        ), kth AS (
          SELECT c.lang, ({scale} * m.min_n) // c.n AS keep_lt FROM c, m
        ), s3 AS (
          SELECT s2.doc_id, s2.lang, s2.n_tokens,
                 CAST({md5u32} % {n_buckets} AS BIGINT) AS bucket
          FROM s2 JOIN kth ON s2.lang = kth.lang
          WHERE {md5u32} % {scale} < kth.keep_lt
        ), o AS (
          SELECT doc_id, lang, bucket, n_tokens,
                 row_number() OVER (PARTITION BY bucket ORDER BY doc_id) AS rn
          FROM s3
        ), pk AS (
          SELECT doc_id, lang, bucket, n_tokens, rn,
                 CAST(0 AS BIGINT) AS pack_id, CAST(0 AS BIGINT) AS pack_pos,
                 n_tokens AS acc
          FROM o WHERE rn = 1
          UNION ALL
          SELECT o.doc_id, o.lang, o.bucket, o.n_tokens, o.rn,
                 CASE WHEN pk.acc + o.n_tokens > {budget}
                      THEN pk.pack_id + 1 ELSE pk.pack_id END,
                 CASE WHEN pk.acc + o.n_tokens > {budget}
                      THEN 0 ELSE pk.pack_pos + 1 END,
                 CASE WHEN pk.acc + o.n_tokens > {budget}
                      THEN o.n_tokens ELSE pk.acc + o.n_tokens END
          FROM pk JOIN o ON o.bucket = pk.bucket AND o.rn = pk.rn + 1
        )
        SELECT doc_id, lang, bucket, n_tokens, pack_id, pack_pos
        FROM pk ORDER BY doc_id
    """


# ---------------------------------------------------------------------------
# Corpus-level frequent-segment removal (RefinedWeb-style line dedup,
# adapted to chunk granularity because the fixture docs are single-line)
# ---------------------------------------------------------------------------

_SEG_WORDS = 10


def _segments(text: str, width: int = _SEG_WORDS) -> list[str]:
    """Consecutive width-word chunks, split on single spaces (DuckDB
    string_split(text, ' ') parity — NOT .split(), which collapses
    runs)."""
    words = text.split(" ")
    return [" ".join(words[i : i + width]) for i in range(0, len(words), width)]


def _seg_hash63(seg: str) -> int:
    import hashlib as _h

    return int.from_bytes(_h.md5(seg.encode()).digest()[:8], "big") & ((1 << 63) - 1)


def segment_dedup(sf_dir: str, min_docs: int = 2) -> pd.DataFrame:
    """Corpus-wide duplicated-passage removal: any 10-word segment that
    appears in >= min_docs DISTINCT documents is removed from every
    document (the RefinedWeb / CCNet repeated-line filter, at fixed
    chunk granularity). Output per doc: segment counts and the md5 of
    the cleaned text, so the full rewrite is hash-pinned by the SQL
    twin.

    Scale shape: pass 1 ships (segment-hash, doc_id) DISTINCT pairs —
    never segment text — through a coarse-shard distinct-count; the
    banned set (duplicated passages are the small minority of a real
    corpus) is collected once and broadcast via ray.put; pass 2 is an
    embarrassingly parallel map_batches rewrite. 63-bit md5-prefix
    collisions would remove a false-positive segment (~2^-63 per pair;
    documented, not material at 10^12 segments vs the oracle's exact
    strings)."""
    import numpy as np

    import ray

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pairs(t: pa.Table) -> pa.Table:
        out_h, out_d = [], []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            hs = {_seg_hash63(s) for s in _segments(txt)}
            out_h.extend(hs)
            out_d.extend([did] * len(hs))
        return pa.table(
            {
                "h": pa.array(out_h, pa.int64()),
                "doc_id": pa.array(out_d, pa.int64()),
            }
        )

    def banned_in_shard(g: pd.DataFrame) -> pd.DataFrame:
        # pairs are per-doc distinct already; count docs per hash
        h = g["h"].to_numpy()
        uniq, counts = np.unique(h, return_counts=True)
        return pd.DataFrame({"h": pd.Series(uniq[counts >= min_docs], dtype="int64")})

    def shard(t: pa.Table) -> pa.Table:
        h = t["h"].to_numpy()
        return t.append_column("_shard", pa.array((h % 64).astype(np.int32), pa.int32()))

    banned = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .map_batches(shard, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(banned_in_shard, batch_format="pandas")
        .to_pandas()
    )
    banned_ref = ray.put(frozenset(int(x) for x in banned["h"]))

    def rewrite(t: pa.Table, *, banned_ref) -> pa.Table:
        import hashlib as _h

        bset = ray.get(banned_ref)
        ids, n_segs, n_removed, clean_md5 = [], [], [], []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            segs = _segments(txt)
            kept = [s for s in segs if _seg_hash63(s) not in bset]
            ids.append(did)
            n_segs.append(len(segs))
            n_removed.append(len(segs) - len(kept))
            clean_md5.append(_h.md5(" ".join(kept).encode()).hexdigest())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_segs": pa.array(n_segs, pa.int64()),
                "n_removed": pa.array(n_removed, pa.int64()),
                "clean_md5": pa.array(clean_md5, pa.string()),
            }
        )

    out = (
        ds.map_batches(rewrite, batch_format="pyarrow", fn_kwargs={"banned_ref": banned_ref})
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for c in ("doc_id", "n_segs", "n_removed"):
        out[c] = out[c].astype("int64")
    return out


def segment_dedup_sql(min_docs: int = 2) -> str:
    return f"""
        WITH w AS (
            SELECT doc_id,
                   generate_subscripts(string_split(text, ' '), 1) AS ord,
                   unnest(string_split(text, ' ')) AS word
            FROM documents
        ), ch AS (
            SELECT doc_id, (ord - 1) // {_SEG_WORDS} AS chunk,
                   string_agg(word, ' ' ORDER BY ord) AS seg
            FROM w GROUP BY doc_id, (ord - 1) // {_SEG_WORDS}
        ), banned AS (
            SELECT seg FROM ch GROUP BY seg
            HAVING COUNT(DISTINCT doc_id) >= {min_docs}
        ), k AS (
            SELECT c.doc_id, c.chunk, c.seg, (b.seg IS NOT NULL) AS is_banned
            FROM ch c LEFT JOIN banned b ON c.seg = b.seg
        )
        SELECT doc_id,
               CAST(COUNT(*) AS BIGINT) AS n_segs,
               CAST(SUM(CASE WHEN is_banned THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_removed,
               md5(COALESCE(string_agg(seg, ' ' ORDER BY chunk)
                            FILTER (WHERE NOT is_banned), '')) AS clean_md5
        FROM k GROUP BY doc_id ORDER BY doc_id
    """


def lang_class_weights(sf_dir: str) -> pd.DataFrame:
    """Inverse-frequency class weights over the language column — the
    rebalancing coefficients a multilingual training mix multiplies
    into its sampling probabilities (weight ∝ total / (n_classes *
    class_count), reported in exact integer ppm via truncating
    division so the distributed fold is bit-stable). Per-batch lang
    counts fold through one |langs|-cardinality aggregate."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])

    def counts(t: pa.Table) -> pd.DataFrame:
        vc = pd.Series(t["lang"].to_pylist()).value_counts()
        return pd.DataFrame({"lang": vc.index, "n": vc.to_numpy().astype("int64")})

    per_lang = (
        ds.map_batches(counts, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n", alias_name="n_docs"))
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    total = int(per_lang["n_docs"].sum())
    k = len(per_lang)
    per_lang["n_docs"] = per_lang["n_docs"].astype("int64")
    per_lang["weight_ppm"] = (
        total * 1_000_000 // (k * per_lang["n_docs"].to_numpy())
    ).astype("int64")
    return per_lang


def lang_class_weights_sql() -> str:
    return """
        WITH c AS (SELECT lang, COUNT(*) AS n_docs FROM documents GROUP BY 1),
        t AS (SELECT SUM(n_docs) AS total, COUNT(*) AS k FROM c)
        SELECT lang, n_docs,
               CAST((t.total * 1000000) // (t.k * n_docs) AS BIGINT) AS weight_ppm
        FROM c, t ORDER BY lang
    """


def boilerplate_segments(sf_dir: str, k: int = 10, min_docs: int = 2) -> pd.DataFrame:
    """Boilerplate mining: the top-k most widely duplicated 10-word
    segments (ranked by distinct-document count desc, then segment
    text) — the triage list a corpus-cleaning run reviews before
    committing to removal. Per-doc distinct (segment, doc) pairs feed
    a coarse text-shard distinct-count; the global top-k finalize runs
    over the banned-minority set only. At 10^12 docs the first
    exchange would carry (hash, doc) with a winner-text recovery scan
    (the segment_dedup shape); the fixture-scale query carries the
    segment text directly so the rank's text tie-break is exact."""
    import numpy as np

    import ray

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pairs(t: pa.Table) -> pd.DataFrame:
        out_s, out_d = [], []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            for s in set(_segments(txt)):
                out_s.append(s)
                out_d.append(did)
        df = pd.DataFrame({"seg": out_s, "doc_id": out_d})
        df["_shard"] = pd.Series(
            [_seg_hash63(s) % 64 for s in out_s], dtype="int32"
        )
        return df

    def count_in_shard(g: pd.DataFrame) -> pd.DataFrame:
        c = g.drop_duplicates(["seg", "doc_id"]).groupby("seg", as_index=False).size()
        c = c.rename(columns={"size": "n_docs"})
        return c[c["n_docs"] >= min_docs]

    counts = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(count_in_shard, batch_format="pandas")
        .to_pandas()
    )
    out = (
        counts.sort_values(["n_docs", "seg"], ascending=[False, True], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    out = out[["rank", "seg", "n_docs"]]
    out["n_docs"] = out["n_docs"].astype("int64")
    return out


def boilerplate_segments_sql(k: int = 10, min_docs: int = 2) -> str:
    return f"""
        WITH w AS (
            SELECT doc_id,
                   generate_subscripts(string_split(text, ' '), 1) AS ord,
                   unnest(string_split(text, ' ')) AS word
            FROM documents
        ), ch AS (
            SELECT doc_id, (ord - 1) // {_SEG_WORDS} AS chunk,
                   string_agg(word, ' ' ORDER BY ord) AS seg
            FROM w GROUP BY doc_id, (ord - 1) // {_SEG_WORDS}
        ), c AS (
            SELECT seg, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_docs
            FROM ch GROUP BY seg HAVING COUNT(DISTINCT doc_id) >= {min_docs}
        )
        SELECT CAST(row_number() OVER (ORDER BY n_docs DESC, seg) AS BIGINT)
                   AS rank,
               seg, n_docs
        FROM c ORDER BY n_docs DESC, seg LIMIT {k}
    """


def coverage_selection(sf_dir: str, target_coverage_pct: int = 95) -> pd.DataFrame:
    """Coverage-driven data selection (greedy set cover): pick
    documents one at a time, each round choosing the document adding
    the most UNCOVERED bigrams (ties by doc_id), until
    target_coverage_pct of the corpus bigram universe is covered — the
    data-selection primitive for building small high-coverage training
    subsets. Distributed shape per round: the tokenized (doc, bigram
    hash) table is materialized ONCE; every round maps it against the
    broadcast covered-set, emits per-block argmax candidates, and the
    driver picks the global winner (same iterative-argmax skeleton as
    MMR). Value-exact SQL twin (coverage_selection_sql): recursive CTE
    carrying the covered md5-hash set, terminating on the same
    universe*pct//100 target; also pinned by a serial-recompute
    pytest."""
    import hashlib

    import numpy as np

    import ray

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def tokenize(t: pa.Table) -> pa.Table:
        ids, lists = [], []
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            words = [w for w in txt.split(" ") if w != ""]
            hs = {
                int.from_bytes(hashlib.md5(f"{a} {b}".encode()).digest()[:8], "big") >> 1
                for a, b in zip(words, words[1:])
            }
            ids.append(did)
            lists.append(sorted(hs))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "hs": pa.array(lists, pa.list_(pa.int64())),
            }
        )

    # ONE list row per doc (a block boundary can never split a doc's
    # hash set), coalesced before materializing: every greedy round
    # schedules one task per block, so block count is pure per-round
    # latency here
    table = (
        ds.map_batches(tokenize, batch_format="pyarrow").repartition(8).materialize()
    )

    def block_unique(t: pa.Table) -> pa.Table:
        u = np.unique(t["hs"].combine_chunks().flatten().to_numpy(zero_copy_only=False))
        return pa.table({"h": pa.array(u, pa.int64())})

    # universe size from per-block uniques (at 10^12 docs this fold
    # would be an HLL; the exact union is fine at query scale)
    uniq = table.map_batches(block_unique, batch_format="pyarrow").to_pandas()
    universe = uniq["h"].nunique()
    target = universe * target_coverage_pct // 100

    covered: set[int] = set()
    picked: list[tuple[int, int, int]] = []
    while len(covered) < target:
        cov_ref = ray.put(frozenset(covered))

        def local_best(t: pa.Table, *, cov_ref) -> pd.DataFrame:
            cov = ray.get(cov_ref)
            best_doc, best_gain = -1, -1
            for did, hs in zip(t["doc_id"].to_pylist(), t["hs"].to_pylist()):
                gain = sum(1 for h in hs if h not in cov)
                if gain > best_gain or (gain == best_gain and did < best_doc):
                    best_doc, best_gain = did, gain
            if best_gain <= 0:
                return pd.DataFrame({"doc_id": [], "gain": []})
            return pd.DataFrame(
                {"doc_id": pd.Series([best_doc], dtype="int64"),
                 "gain": pd.Series([best_gain], dtype="int64")}
            )

        cands = table.map_batches(
            local_best, batch_format="pyarrow", fn_kwargs={"cov_ref": cov_ref}
        ).to_pandas()
        if not len(cands):
            break
        cands = cands.sort_values(["gain", "doc_id"], ascending=[False, True], kind="mergesort")
        best = int(cands.iloc[0]["doc_id"])
        # winner's hashes via a PUSHED-DOWN one-row parquet read +
        # local re-tokenize (never rescans the corpus table)
        import pyarrow.parquet as _pq

        win_t = _pq.read_table(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text"],
            filters=[("doc_id", "==", best)],
        )
        words = [w for w in win_t["text"][0].as_py().split(" ") if w != ""]
        new = {
            int.from_bytes(hashlib.md5(f"{a} {b}".encode()).digest()[:8], "big") >> 1
            for a, b in zip(words, words[1:])
        } - covered
        covered |= new
        picked.append((best, len(new), len(covered)))
    out = pd.DataFrame(picked, columns=["doc_id", "new_bigrams", "cum_covered"])
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    out = out[["rank", "doc_id", "new_bigrams", "cum_covered"]]
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def kfold_assignment(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Deterministic k-fold split audit: every document is assigned
    fold = md5(doc_id) mod k (reproducible, coordination-free — any
    worker can recompute any row's fold), and the audit reports the
    (lang, fold) population with its total characters, the table a
    cross-validation harness checks for stratification skew before
    training. The assignment is embarrassingly parallel; the audit is
    one (lang, fold)-keyed aggregate of per-batch partials."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from ..functions.md5vec import md5_prefix_u32

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )

    def partial(t: pa.Table) -> pd.DataFrame:
        keys = [str(d).encode() for d in t["doc_id"].to_pylist()]
        fold = (md5_prefix_u32(keys) % k).astype("int64")
        df = pd.DataFrame(
            {
                "lang": t["lang"].to_pylist(),
                "fold": fold,
                "n_chars": pc.cast(t["n_chars"], pa.int64()).to_numpy(zero_copy_only=False),
            }
        )
        return df.groupby(["lang", "fold"], as_index=False).agg(
            n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum")
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "fold"])
        .aggregate(
            Sum("n_docs", alias_name="n_docs"), Sum("sum_chars", alias_name="sum_chars")
        )
        .to_pandas()
        .sort_values(["lang", "fold"])
        .reset_index(drop=True)
    )
    for c in ("fold", "n_docs", "sum_chars"):
        out[c] = out[c].astype("int64")
    return out


def kfold_assignment_sql(k: int = 5) -> str:
    return f"""
        SELECT lang,
               CAST(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                    AS UBIGINT) % {k} AS BIGINT) AS fold,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_chars) AS BIGINT) AS sum_chars
        FROM documents GROUP BY 1, 2 ORDER BY 1, 2
    """


def quality_budget_selection(sf_dir: str) -> pd.DataFrame:
    """Token-budget curriculum: rank every document by an integer
    quality score (distinct-token ratio in per-mille: the lexical-
    diversity proxy CCNet-style curations sort by), then take the
    quality-ordered PREFIX whose cumulative token count fits half the
    corpus budget, and report what the selected set looks like per
    language — the 'what actually makes the training mix under a
    token budget' question every data-curation run answers.

    Distributed plan: a global ordered prefix-sum without a global
    sort — the quality score (0..1000) IS the range-partition key:
      up-sweep: one groupby(quality) Sum(tokens) -> <= 1001 rows;
      driver: exclusive prefix over quality DESC (tiny) + the budget;
      down-sweep: groupby(quality).map_groups orders its docs by
        doc_id, adds the bucket offset, keeps cum <= budget and emits
        per-lang partials.
    Same two-phase Blelloch scan as running_global_total, with the
    bounded score domain replacing the id-bucket key."""
    import numpy as np

    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"])

    def score(t: pa.Table) -> pa.Table:
        qs, nt = [], []
        for txt in t["text"].to_pylist():
            ws = txt.split()
            nt.append(len(ws))
            qs.append((len(set(ws)) * 1000) // len(ws) if ws else 0)
        out = pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "lang": t["lang"],
                "n_tokens": pa.array(nt, pa.int64()),
                "q": pa.array(qs, pa.int64()),
            }
        )
        return out.filter(pc.greater(out["n_tokens"], 0))

    # used by both sweep phases: cache the per-doc score table (4 thin
    # columns, corpus-row-sized) instead of re-running the string pass
    scored = ds.map_batches(score, batch_format="pyarrow").materialize()

    sums = (
        scored.groupby("q")
        .aggregate(Sum("n_tokens", alias_name="s"))
        .to_pandas()
        .sort_values("q", ascending=False)
        .reset_index(drop=True)
    )
    budget = int(sums["s"].sum()) // 2
    excl = sums["s"].cumsum().shift(1, fill_value=0)
    offsets = dict(zip(sums["q"].astype(int), excl.astype(int)))
    oref = ray.put((offsets, budget))

    def select(g: pd.DataFrame) -> pd.DataFrame:
        offs, b = ray.get(oref)
        off = offs[int(g["q"].iloc[0])]
        g = g.sort_values("doc_id").reset_index(drop=True)
        cum = g["n_tokens"].cumsum() + off
        kept = g[cum <= b]
        return (
            kept.groupby("lang", as_index=False)
            .agg(n_docs=("doc_id", "size"), n_tokens=("n_tokens", "sum"))
        )

    out = (
        scored.groupby("q")
        .map_groups(select, batch_format="pandas")
        .groupby("lang")
        .aggregate(Sum("n_docs", alias_name="n_docs"), Sum("n_tokens", alias_name="n_tokens"))
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    for c in ("n_docs", "n_tokens"):
        out[c] = out[c].astype("int64")
    return out


def quality_budget_selection_sql() -> str:
    return r"""
        WITH scored AS (
            SELECT doc_id, lang,
                   len(list_filter(string_split_regex(text, '\s+'),
                                   w -> w <> '')) AS n_tokens,
                   len(list_distinct(list_filter(string_split_regex(text, '\s+'),
                                                 w -> w <> ''))) AS n_distinct
            FROM documents
        ), q AS (
            SELECT doc_id, lang, n_tokens,
                   (n_distinct * 1000) // n_tokens AS q
            FROM scored WHERE n_tokens > 0
        ), ranked AS (
            SELECT *, SUM(n_tokens) OVER (ORDER BY q DESC, doc_id
                                          ROWS UNBOUNDED PRECEDING) AS cum
            FROM q
        )
        SELECT lang,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(n_tokens) AS BIGINT) AS n_tokens
        FROM ranked
        WHERE cum <= (SELECT SUM(n_tokens) FROM q) // 2
        GROUP BY 1 ORDER BY 1
    """


def doc_len_quality_corr(sf_dir: str) -> pd.DataFrame:
    """Length-bias audit: the exact integer sufficient statistics of
    Pearson correlation between document length (tokens) and lexical
    quality (distinct-token per-mille) — the first check before using
    either as a curation filter (a strong correlation means one filter
    silently implements the other). One row of pure int64 sums; the
    float r never appears, so the SQL twin is bit-exact.

    Distributed plan: per-row scoring is embarrassingly parallel; the
    five sums fold through per-batch partials and one tiny aggregate."""
    import numpy as np

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def stats(t: pa.Table) -> pa.Table:
        xs, ys = [], []
        for txt in t["text"].to_pylist():
            ws = txt.split()
            if not ws:
                continue
            xs.append(len(ws))
            ys.append((len(set(ws)) * 1000) // len(ws))
        x = np.asarray(xs, dtype=np.int64)
        y = np.asarray(ys, dtype=np.int64)
        return pa.table(
            {
                "n": pa.array([len(x)], pa.int64()),
                "sx": pa.array([int(x.sum())], pa.int64()),
                "sy": pa.array([int(y.sum())], pa.int64()),
                "sxx": pa.array([int((x * x).sum())], pa.int64()),
                "syy": pa.array([int((y * y).sum())], pa.int64()),
                "sxy": pa.array([int((x * y).sum())], pa.int64()),
            }
        )

    parts = ds.map_batches(stats, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({c: [int(parts[c].sum())] for c in ("n", "sx", "sy", "sxx", "syy", "sxy")})


def doc_len_quality_corr_sql() -> str:
    return r"""
        WITH q AS (
            SELECT len(list_filter(string_split_regex(text, '\s+'),
                                   w -> w <> '')) AS x,
                   len(list_distinct(list_filter(string_split_regex(text, '\s+'),
                                                 w -> w <> ''))) * 1000
                   // len(list_filter(string_split_regex(text, '\s+'),
                                      w -> w <> '')) AS y
            FROM documents
            WHERE len(list_filter(string_split_regex(text, '\s+'), w -> w <> '')) > 0
        )
        SELECT CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
               CAST(SUM(x * x) AS BIGINT) AS sxx,
               CAST(SUM(y * y) AS BIGINT) AS syy,
               CAST(SUM(x * y) AS BIGINT) AS sxy
        FROM q
    """


def token_nucleus_share(sf_dir: str, pct_num: int = 9, pct_den: int = 10) -> pd.DataFrame:
    """Vocabulary nucleus: the smallest set of word types — taken in
    (frequency DESC, word ASC) order — covering >= 90% of all token
    occurrences, and what that says about the tail (the Zipf head a
    tokenizer budget keeps vs the tail it spells out). Threshold
    arithmetic exact: cum * pct_den >= total * pct_num.

    Distributed plan: the corpus folds to the vocabulary-sized word
    frequency table (per-batch Counter combiner, same exchange as
    bpe_train); the sorted prefix scan runs over that bounded table."""
    import numpy as np

    wc = _word_counts(sf_dir)
    wc = wc.sort_values(["n", "word"], ascending=[False, True], kind="mergesort")
    c = wc["n"].to_numpy(np.int64)
    total = int(c.sum())
    cum = np.cumsum(c)
    k = int(np.searchsorted(cum * pct_den, total * pct_num, side="left")) + 1
    return pd.DataFrame(
        {
            "n_types_nucleus": [k],
            "n_types_total": [len(c)],
            "n_tokens_total": [total],
            "nucleus_tokens": [int(cum[k - 1])],
        }
    )


def token_nucleus_share_sql(pct_num: int = 9, pct_den: int = 10) -> str:
    return rf"""
        WITH w AS (
            SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                                      x -> x <> '')) AS word
            FROM documents
        ), f AS (
            SELECT word, COUNT(*) AS n FROM w GROUP BY 1
        ), ranked AS (
            SELECT n,
                   SUM(n) OVER (ORDER BY n DESC, word
                                ROWS UNBOUNDED PRECEDING) AS cum,
                   SUM(n) OVER () AS total
            FROM f
        )
        SELECT CAST(SUM(CASE WHEN (cum - n) * {pct_den} < total * {pct_num}
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_types_nucleus,
               CAST(COUNT(*) AS BIGINT) AS n_types_total,
               CAST(MAX(total) AS BIGINT) AS n_tokens_total,
               CAST(MAX(CASE WHEN (cum - n) * {pct_den} < total * {pct_num}
                             THEN cum ELSE 0 END) AS BIGINT) AS nucleus_tokens
        FROM ranked
    """


def doc_knapsack_curve(sf_dir: str, budget: int = 500, step: int = 50) -> pd.DataFrame:
    """Optimal token-budget curation curve: the 0/1-knapsack maximum of
    total quality score over English documents (weight = whitespace
    token count, value = the same distinct-token-per-mille score
    quality_budget_selection greedily ranks by) at every budget
    checkpoint 0..budget — the exact upper bound that tells you how
    much the greedy prefix leaves on the table.  The DP VALUE curve is
    unique (selection sets are not), so it is exactly comparable.

    Distributed plan: 0/1-knapsack DP composes — each shard folds its
    items into a local (budget+1) DP vector inside map_batches
    (numpy shift-max per item), and shard vectors combine by max-plus
    convolution, a budget²-sized associative reduce of
    partition-count-many tiny vectors (never the documents)."""
    import numpy as np

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def shard_dp(t: pa.Table) -> pa.Table:
        dp = np.zeros(budget + 1, dtype=np.int64)
        langs = t["lang"].to_pylist()
        for lang, txt in zip(langs, t["text"].to_pylist()):
            if lang != "en":
                continue
            ws = txt.split()
            w = len(ws)
            if w == 0 or w > budget:
                continue
            v = (len(set(ws)) * 1000) // w
            # RHS evaluates on the pre-update vector: each item once
            dp[w:] = np.maximum(dp[w:], dp[: budget + 1 - w] + v)
        return pa.table({"dp": pa.array([dp.tolist()], pa.list_(pa.int64()))})

    def maxplus(a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
        out = np.full(budget + 1, np.iinfo(np.int64).min, dtype=np.int64)
        for k in range(budget + 1):
            np.maximum(out[k:], a[k] + b[: budget + 1 - k], out=out[k:])
        return out

    shards = [
        np.asarray(row["dp"], dtype=np.int64)
        for row in ds.map_batches(shard_dp, batch_format="pyarrow").take_all()
    ]
    acc = np.zeros(budget + 1, dtype=np.int64)
    for s in shards:
        acc = maxplus(acc, s)
    bs = list(range(0, budget + 1, step))
    return pd.DataFrame(
        {
            "budget": pd.Series(bs, dtype="int64"),
            "best_quality": pd.Series([int(acc[b]) for b in bs], dtype="int64"),
        }
    )


def doc_knapsack_curve_sql(budget: int = 500, step: int = 50) -> str:
    return rf"""
        WITH RECURSIVE scored AS (
            SELECT doc_id,
                   len(list_filter(string_split_regex(text, '\s+'),
                                   w -> w <> '')) AS w,
                   len(list_distinct(list_filter(string_split_regex(text, '\s+'),
                                                 w -> w <> ''))) AS nd
            FROM documents WHERE lang = 'en'
        ), items AS (
            SELECT ROW_NUMBER() OVER (ORDER BY doc_id) AS i, w,
                   (nd * 1000) // w AS v
            FROM scored WHERE w > 0 AND w <= {budget}
        ), dp AS (
            SELECT 0 AS i,
                   list_transform(generate_series(0, {budget}),
                                  x -> CAST(0 AS BIGINT)) AS d
            UNION ALL
            SELECT dp.i + 1,
                   list_transform(generate_series(0, {budget}),
                       b -> CASE WHEN b >= t.w
                                  AND dp.d[b - t.w + 1] + t.v > dp.d[b + 1]
                                 THEN dp.d[b - t.w + 1] + t.v
                                 ELSE dp.d[b + 1] END)
            FROM dp JOIN items t ON t.i = dp.i + 1
        ), fin AS (
            SELECT d FROM dp WHERE i = (SELECT COALESCE(MAX(i), 0) FROM items)
        )
        SELECT CAST(b AS BIGINT) AS budget,
               CAST(fin.d[b + 1] AS BIGINT) AS best_quality
        FROM fin, generate_series(0, {budget}, {step}) g(b)
        ORDER BY b
    """


def vocab_cover_greedy(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Coverage-driven document selection: greedily pick k documents
    maximizing NEW word-bigram coverage at each step (ties by doc_id) —
    the max-coverage curation pass that seeds a tokenizer corpus or a
    few-shot pool (bigrams, not unigrams: BPE merges learn from
    adjacencies, and the unigram vocabulary saturates after one doc).  Greedy is the canonical (1-1/e)-approximation;
    each step's argmax is exact and deterministic, so the output is
    reproducible and pytest certifies per-step optimality by brute
    force.  Value-exact SQL twin (vocab_cover_greedy_sql): the covered
    set rides as rows inside a recursive CTE.

    Distributed plan: k rounds; each round broadcasts the covered
    vocabulary (ray.put) and scores every document's marginal gain
    inside map_batches, reducing to a per-batch local argmax so the
    driver sees partition-count candidates only.  Scale path: the
    covered set is vocabulary-bounded (not corpus-bounded); for
    100-TB corpora it ships as a hash-bucketed Bloom/roaring side
    table instead of a Python set."""
    import ray

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def tokenize(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        vocabs = []
        for txt in t["text"].to_pylist():
            ws = txt.split()
            vocabs.append(sorted({f"{a} {b}" for a, b in zip(ws, ws[1:])}))
        return pa.table(
            {
                "doc_id": pa.array([int(i) for i in ids], pa.int64()),
                "vocab": pa.array(vocabs, pa.list_(pa.string())),
            }
        )

    toks = ds.map_batches(tokenize, batch_format="pyarrow").materialize()

    covered: set = set()
    picks = []
    for step in range(k):
        cref = ray.put(covered)

        def local_best(t: pa.Table, *, cref) -> pa.Table:
            cov = ray.get(cref)
            best_gain, best_id = -1, None
            for i, v in zip(t["doc_id"].to_pylist(), t["vocab"].to_pylist()):
                gain = sum(1 for w in v if w not in cov)
                if gain > best_gain or (gain == best_gain and (best_id is None or i < best_id)):
                    best_gain, best_id = gain, int(i)
            return pa.table(
                {
                    "doc_id": pa.array([best_id], pa.int64()),
                    "gain": pa.array([best_gain], pa.int64()),
                }
            )

        cands = toks.map_batches(
            local_best, batch_format="pyarrow", fn_kwargs={"cref": cref}
        ).to_pandas()
        cands = cands.sort_values(["gain", "doc_id"], ascending=[False, True])
        pick = int(cands.iloc[0]["doc_id"])
        gain = int(cands.iloc[0]["gain"])
        if gain <= 0:
            break
        vocab_row = toks.filter(expr=f"doc_id == {pick}").take_all()
        covered.update(vocab_row[0]["vocab"])
        picks.append(
            {
                "step": step,
                "doc_id": pick,
                "gain": gain,
                "covered_total": len(covered),
            }
        )
    out = pd.DataFrame(picks, columns=["step", "doc_id", "gain", "covered_total"])
    return out.astype("int64")


def coverage_selection_sql(target_coverage_pct: int = 95) -> str:
    """EXACT DuckDB twin of coverage_selection: greedy set cover as a
    recursive CTE over md5-hashed bigrams — '0x'||substr(md5,1,16)
    cast to UBIGINT reproduces Python's int.from_bytes(digest[:8],
    'big'), and >>1 matches the engine's sign-safe shift. Tokens split
    on single spaces (the engine's text.split(' ')), and the recursion
    stops once the covered count reaches universe * pct // 100."""
    return f"""
        WITH RECURSIVE docbi AS (
            SELECT DISTINCT doc_id::BIGINT AS doc_id,
                   CAST(CAST(('0x' || substr(md5(bigram), 1, 16)) AS UBIGINT)
                        >> 1 AS BIGINT) AS h
            FROM (
                SELECT doc_id,
                       list_transform(range(1, len(toks)),
                                      i -> toks[i] || ' ' || toks[i+1]) AS bis
                FROM (SELECT doc_id,
                             list_filter(string_split(text, ' '),
                                         w -> w <> '') AS toks
                      FROM documents)
            ), UNNEST(bis) AS u(bigram)
        ),
        tgt AS (SELECT COUNT(DISTINCT h) * {target_coverage_pct} // 100
                       AS target FROM docbi),
        first_pick AS (
            SELECT doc_id, COUNT(*) AS gain FROM docbi GROUP BY 1
            ORDER BY gain DESC, doc_id LIMIT 1
        ),
        state(step, kind, doc_id, gain, h) AS (
            SELECT 1, 'pick', doc_id, gain, NULL FROM first_pick
            UNION ALL
            SELECT 1, 'cov', NULL, NULL, d.h
            FROM docbi d JOIN first_pick f USING (doc_id)
            UNION ALL
            (
              WITH prev AS (SELECT * FROM state),
              r AS (SELECT MAX(step) AS r FROM prev),
              cov AS (SELECT h FROM prev WHERE kind = 'cov'),
              go AS (SELECT (SELECT COUNT(*) FROM cov)
                            < (SELECT target FROM tgt) AS more),
              gains AS (
                  SELECT d.doc_id, COUNT(*) AS gain
                  FROM docbi d LEFT JOIN cov c ON c.h = d.h
                  WHERE c.h IS NULL GROUP BY 1
              ),
              best AS (
                  SELECT doc_id, gain FROM gains, go WHERE go.more
                  ORDER BY gain DESC, doc_id LIMIT 1
              )
              SELECT r.r + 1, 'pick', b.doc_id, b.gain, NULL FROM best b, r
              UNION ALL
              SELECT r.r + 1, 'cov', NULL, NULL, x.h FROM r, (
                  SELECT h FROM cov
                  UNION
                  SELECT d.h FROM docbi d JOIN best USING (doc_id)
              ) x WHERE EXISTS (SELECT 1 FROM best)
            )
        )
        SELECT CAST(p.step AS BIGINT) AS rank,
               CAST(p.doc_id AS BIGINT) AS doc_id,
               CAST(p.gain AS BIGINT) AS new_bigrams,
               CAST((SELECT COUNT(*) FROM state c
                     WHERE c.kind = 'cov' AND c.step = p.step) AS BIGINT)
                   AS cum_covered
        FROM state p WHERE p.kind = 'pick' ORDER BY rank
    """


def vocab_cover_greedy_sql(k: int = 10) -> str:
    """EXACT DuckDB twin of vocab_cover_greedy: the greedy covered-set
    state rides inside one recursive CTE — each iteration carries the
    full covered-bigram set as ('cov', bigram) rows plus one
    ('pick', doc_id, gain) row, recomputes every document's marginal
    gain against the previous iteration's cov rows, and stops when the
    best gain hits zero or step k. trim + regex-split matches Python
    str.split() whitespace semantics."""
    return f"""
        WITH RECURSIVE docbi AS (
            SELECT DISTINCT doc_id::BIGINT AS doc_id, bigram FROM (
                SELECT doc_id,
                       list_transform(
                           range(1, len(string_split_regex(trim(text), '\\s+'))),
                           i -> string_split_regex(trim(text), '\\s+')[i]
                                || ' ' ||
                                string_split_regex(trim(text), '\\s+')[i+1]) AS bis
                FROM documents
            ), UNNEST(bis) AS u(bigram)
        ),
        first_pick AS (
            SELECT doc_id, COUNT(*) AS gain FROM docbi GROUP BY 1
            ORDER BY gain DESC, doc_id LIMIT 1
        ),
        state(step, kind, doc_id, gain, bigram) AS (
            SELECT 1, 'pick', doc_id, gain, NULL FROM first_pick
            UNION ALL
            SELECT 1, 'cov', NULL, NULL, d.bigram
            FROM docbi d JOIN first_pick f USING (doc_id)
            UNION ALL
            (
              WITH prev AS (SELECT * FROM state),
              r AS (SELECT MAX(step) AS r FROM prev),
              cov AS (SELECT bigram FROM prev WHERE kind = 'cov'),
              gains AS (
                  SELECT d.doc_id, COUNT(*) AS gain
                  FROM docbi d LEFT JOIN cov c ON c.bigram = d.bigram
                  WHERE c.bigram IS NULL GROUP BY 1
              ),
              best AS (
                  SELECT doc_id, gain FROM gains WHERE gain > 0
                  ORDER BY gain DESC, doc_id LIMIT 1
              )
              SELECT r.r + 1, 'pick', b.doc_id, b.gain, NULL
              FROM best b, r WHERE r.r < {k}
              UNION ALL
              SELECT r.r + 1, 'cov', NULL, NULL, x.bigram FROM r, (
                  SELECT bigram FROM cov
                  UNION
                  SELECT d.bigram FROM docbi d JOIN best USING (doc_id)
              ) x WHERE r.r < {k} AND EXISTS (SELECT 1 FROM best)
            )
        )
        SELECT CAST(p.step - 1 AS BIGINT) AS step,
               CAST(p.doc_id AS BIGINT) AS doc_id,
               CAST(p.gain AS BIGINT) AS gain,
               CAST((SELECT COUNT(*) FROM state c
                     WHERE c.kind = 'cov' AND c.step = p.step) AS BIGINT)
                   AS covered_total
        FROM state p WHERE p.kind = 'pick' ORDER BY p.step
    """


def cross_source_contamination(sf_dir: str, k: int = 25) -> pd.DataFrame:
    """Cross-source contamination matrix: for each pair of sources,
    how many DISTINCT word 5-grams they share — the source-level
    copying / syndication signal that tells a mixing planner two
    'independent' sources are actually the same feed. Top-k pairs by
    shared grams (tie: source names).

    Scale shape: docs reduce to DISTINCT (gram-hash63, source) pairs
    inside map_batches (gram text never leaves the task; md5-63bit
    hashes ship instead), one groupby(gram) folds the source sets, and
    each gram emits only its C(s,2) <= C(|sources|,2) pair partials —
    the SQL twin carries raw grams (same parity precedent as
    segment_dedup: hash collisions are the 2^-63 caveat)."""
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text"])

    def prep(t: pa.Table) -> pa.Table:
        seen = set()
        for src, txt in zip(t["source"].to_pylist(), t["text"].to_pylist()):
            w = txt.split(" ")
            for i in range(len(w) - 4):
                seen.add((_seg_hash63(" ".join(w[i : i + 5])), src))
        if not seen:
            return pa.table(
                {"gram": pa.array([], pa.int64()), "source": pa.array([], pa.string())}
            )
        g, s = zip(*seen)
        return pa.table({"gram": pa.array(g, pa.int64()), "source": pa.array(s)})

    pairs_per_gram = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["gram", "source"])
        .aggregate(Count(alias_name="dummy"))  # distinct (gram, source)
    )

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        src = sorted(g["source"].unique())
        if len(src) < 2:
            return pd.DataFrame(
                {"source_a": pd.Series([], dtype="object"),
                 "source_b": pd.Series([], dtype="object"),
                 "n": pd.Series([], dtype="int64")}
            )
        rows = [
            {"source_a": a, "source_b": b, "n": 1}
            for i, a in enumerate(src)
            for b in src[i + 1 :]
        ]
        return pd.DataFrame(rows)

    folded = (
        pairs_per_gram.groupby("gram")
        .map_groups(emit_pairs, batch_format="pandas")
        .groupby(["source_a", "source_b"])
        .aggregate(Sum("n", alias_name="shared_grams"))
        .to_pandas()
    )
    folded["shared_grams"] = folded["shared_grams"].astype("int64")
    out = (
        folded.sort_values(
            ["shared_grams", "source_a", "source_b"], ascending=[False, True, True]
        )
        .head(k)
        .reset_index(drop=True)
    )
    return out[["source_a", "source_b", "shared_grams"]]


def cross_source_contamination_sql(k: int = 25) -> str:
    return f"""
        WITH w AS (
            SELECT source,
                   string_split(text, ' ') AS ws
            FROM documents
        ), grams AS (
            SELECT DISTINCT source,
                   ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' ' ||
                   ws[i+3] || ' ' || ws[i+4] AS g
            FROM w, UNNEST(generate_series(1, len(ws) - 4)) AS t(i)
        )
        SELECT a.source AS source_a, b.source AS source_b,
               CAST(COUNT(*) AS BIGINT) AS shared_grams
        FROM grams a JOIN grams b
          ON a.g = b.g AND a.source < b.source
        GROUP BY 1, 2
        ORDER BY shared_grams DESC, source_a, source_b LIMIT {k}
    """


def dsir_select(
    sf_dir: str, target_source: str = "src0", n_buckets: int = 1024, m: int = 100
) -> pd.DataFrame:
    """Data Selection via Importance Resampling (DSIR, Xie et al.
    NeurIPS 2023): rank raw documents by a hashed bag-of-words
    importance weight log(p_target(x)/p_raw(x)) and keep the top-m —
    the standard domain-targeting selection for pretraining mixes
    (target here: documents from `target_source`).

    Exact integer discipline (the bigram_lm_scores recipe):

      features: word -> md5-prefix-u64 % n_buckets (the engine's
        vectorized md5 kernel is bit-identical to DuckDB's
        ('0x' || substr(md5(w), 1, 16))::UBIGINT);
      train: one distributed pass folds per-batch (bucket, raw/target)
        count partials through an n_buckets-bounded groupby Sum — the
        exchange carries bucket rows, never tokens;
      quantize: per-bucket q = floor((ln((ct+0.5)/(Ct+0.5B)) -
        ln((cr+0.5)/(Cr+0.5B))) * 1e6 + 0.5) micro-nats, computed once
        on the driver over the bounded bucket table with libm ln
        (bit-identical to DuckDB) and broadcast via ray.put;
      score: a second zero-shuffle scan sums int64 q over each doc's
        tokens (multiplicity included, order-free);
      select: per-block local top-m partials (block-bounded) merged on
        the driver — no global sort.

    Output: (doc_id, n_tokens, weight_q), top-m by weight_q desc with
    doc_id tie-break; weight_q/1e6 is the DSIR log-importance in nats.
    """
    import math

    import numpy as np

    import ray
    from ray.data.aggregate import Sum

    from ..functions.md5vec import md5_prefix_u64

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )

    def count_partial(t: pa.Table) -> pa.Table:
        cr = np.zeros(n_buckets, dtype=np.int64)
        ct = np.zeros(n_buckets, dtype=np.int64)
        texts = t["text"].to_pylist()
        # hash each DISTINCT word once per batch (the corpus vocabulary
        # is tiny next to its token count — measured 8.3s -> sub-second
        # on the bench corpus vs hashing every token occurrence)
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
            if not words:
                continue
            b = np.fromiter(
                (bucket_of[w] for w in words), dtype=np.int64, count=len(words)
            )
            binc = np.bincount(b, minlength=n_buckets)
            cr += binc
            if src == target_source:
                ct += binc
        nz = np.flatnonzero(cr)
        return pa.table(
            {
                "bucket": pa.array(nz, pa.int64()),
                "c_raw": pa.array(cr[nz], pa.int64()),
                "c_tgt": pa.array(ct[nz], pa.int64()),
            }
        )

    counts = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("c_raw", alias_name="c_raw"), Sum("c_tgt", alias_name="c_tgt"))
        .to_pandas()
    )
    c_raw = np.zeros(n_buckets, dtype=np.int64)
    c_tgt = np.zeros(n_buckets, dtype=np.int64)
    c_raw[counts["bucket"].to_numpy()] = counts["c_raw"].to_numpy()
    c_tgt[counts["bucket"].to_numpy()] = counts["c_tgt"].to_numpy()
    tot_raw = int(c_raw.sum())
    tot_tgt = int(c_tgt.sum())
    q = np.array(
        [
            math.floor(
                (
                    math.log((int(c_tgt[b]) + 0.5) / (tot_tgt + 0.5 * n_buckets))
                    - math.log((int(c_raw[b]) + 0.5) / (tot_raw + 0.5 * n_buckets))
                )
                * 1000000.0
                + 0.5
            )
            for b in range(n_buckets)
        ],
        dtype=np.int64,
    )
    q_ref = ray.put(q)

    def score(t: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        ids, ntok, wq = [], [], []
        texts = t["text"].to_pylist()
        vocab = sorted({w for txt in texts for w in txt.split(" ") if w})
        qw = dict(
            zip(
                vocab,
                q[(md5_prefix_u64([w.encode() for w in vocab]) % n_buckets).astype(np.int64)],
            )
        )
        for doc_id, txt in zip(t["doc_id"].to_pylist(), texts):
            words = [w for w in txt.split(" ") if w]
            if not words:
                continue
            ids.append(doc_id)
            ntok.append(len(words))
            wq.append(int(sum(qw[w] for w in words)))
        df = pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_tokens": pd.Series(ntok, dtype="int64"),
                "weight_q": pd.Series(wq, dtype="int64"),
            }
        )
        # local top-m partial: bounded rows per block
        return pa.Table.from_pandas(
            df.sort_values(["weight_q", "doc_id"], ascending=[False, True]).head(m),
            preserve_index=False,
        )

    parts = ds.map_batches(score, batch_format="pyarrow", batch_size=1024).to_pandas()
    out = (
        parts.sort_values(["weight_q", "doc_id"], ascending=[False, True])
        .head(m)
        .reset_index(drop=True)
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def dsir_select_sql(
    target_source: str = "src0", n_buckets: int = 1024, m: int = 100
) -> str:
    """Exact twin: identical hash-bucket expression, smoothing, ln and
    micro-nat floor-quantization per bucket; per-doc integer sums."""
    return f"""
        WITH tok AS (
            SELECT doc_id, source,
                   CAST(CAST(('0x' || substr(md5(u.w), 1, 16)) AS UBIGINT)
                        % {n_buckets} AS BIGINT) AS bucket
            FROM documents,
                 UNNEST(list_filter(string_split(text, ' '), x -> x <> '')) AS u(w)
        ), raw AS (
            SELECT bucket, CAST(COUNT(*) AS BIGINT) AS cr FROM tok GROUP BY 1
        ), tgt AS (
            SELECT bucket, CAST(COUNT(*) AS BIGINT) AS ct
            FROM tok WHERE source = '{target_source}' GROUP BY 1
        ), tots AS (
            SELECT (SELECT SUM(cr) FROM raw) AS tr,
                   (SELECT COALESCE(SUM(ct), 0) FROM tgt) AS tt
        ), q AS (
            SELECT raw.bucket,
                   CAST(FLOOR((ln((COALESCE(tgt.ct, 0) + 0.5)
                                  / (tots.tt + 0.5 * {n_buckets}))
                               - ln((raw.cr + 0.5)
                                    / (tots.tr + 0.5 * {n_buckets})))
                              * 1000000.0 + 0.5) AS BIGINT) AS qv
            FROM raw LEFT JOIN tgt ON raw.bucket = tgt.bucket, tots
        )
        SELECT tok.doc_id,
               CAST(COUNT(*) AS BIGINT) AS n_tokens,
               CAST(SUM(q.qv) AS BIGINT) AS weight_q
        FROM tok JOIN q ON tok.bucket = q.bucket
        GROUP BY tok.doc_id
        ORDER BY weight_q DESC, tok.doc_id
        LIMIT {m}
    """


def unimax_allocation(sf_dir: str, epoch_cap: int = 2) -> pd.DataFrame:
    """UniMax budget allocation (Chung et al., ICLR 2023): distribute a
    total token budget across languages as uniformly as possible while
    capping every language at `epoch_cap` epochs of its corpus — the
    published fix for temperature sampling's over-epoching of tail
    languages.

    Exact integer water-filling: languages ascend by capacity
    (epoch_cap * n_tokens, language tie-break); at each step the
    language receives min(capacity, remaining_budget //
    remaining_languages) (floor division, bit-stable). The budget is
    3/2 of the corpus total (a multi-epoch training run; at the
    fixture this pins BOTH branches — tail languages hit the epoch
    cap, the head language water-fills), derived from the same
    counts. Token counts
    fold through one |langs|-bounded distributed aggregate; the
    water-filling loop runs over that bounded table on the driver
    (same driver-bounded-loop contract as bpe_train's merge table).
    The SQL twin replays the identical recursion as a recursive CTE.

    Output: (lang, n_tokens, capacity, alloc) ORDER BY lang."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def partial(t: pa.Table) -> pd.DataFrame:
        langs, ntok = [], []
        for lang, txt in zip(t["lang"].to_pylist(), t["text"].to_pylist()):
            langs.append(lang)
            ntok.append(sum(1 for w in txt.split(" ") if w))
        df = pd.DataFrame({"lang": langs, "n_tokens": ntok})
        return df.groupby("lang", as_index=False)["n_tokens"].sum()

    per_lang = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n_tokens", alias_name="n_tokens"))
        .to_pandas()
    )
    per_lang["n_tokens"] = per_lang["n_tokens"].astype("int64")
    per_lang["capacity"] = (per_lang["n_tokens"] * epoch_cap).astype("int64")
    per_lang = per_lang.sort_values(["capacity", "lang"]).reset_index(drop=True)
    budget = int(per_lang["n_tokens"].sum()) * 3 // 2
    allocs = []
    remaining = budget
    k = len(per_lang)
    for i, cap in enumerate(per_lang["capacity"]):
        share = remaining // (k - i)
        a = min(int(cap), share)
        allocs.append(a)
        remaining -= a
    per_lang["alloc"] = pd.Series(allocs, dtype="int64")
    return (
        per_lang[["lang", "n_tokens", "capacity", "alloc"]]
        .sort_values("lang")
        .reset_index(drop=True)
    )


def unimax_allocation_sql(epoch_cap: int = 2) -> str:
    return f"""
        WITH counts AS (
            SELECT lang,
                   CAST(SUM(len(list_filter(string_split(text, ' '),
                                            x -> x <> ''))) AS BIGINT) AS n_tokens
            FROM documents GROUP BY 1
        ), caps AS (
            SELECT lang, n_tokens,
                   CAST({epoch_cap} * n_tokens AS BIGINT) AS capacity,
                   CAST(ROW_NUMBER() OVER (ORDER BY {epoch_cap} * n_tokens, lang)
                        AS BIGINT) AS rn,
                   CAST(COUNT(*) OVER () AS BIGINT) AS k,
                   CAST((SELECT SUM(n_tokens) * 3 FROM counts) // 2 AS BIGINT) AS budget
            FROM counts
        ), rec AS (
            WITH RECURSIVE w AS (
                SELECT CAST(0 AS BIGINT) AS rn,
                       (SELECT ANY_VALUE(budget) FROM caps) AS rem,
                       CAST(NULL AS VARCHAR) AS lang,
                       CAST(0 AS BIGINT) AS alloc
                UNION ALL
                SELECT c.rn,
                       w.rem - LEAST(c.capacity, w.rem // (c.k - w.rn)),
                       c.lang,
                       LEAST(c.capacity, w.rem // (c.k - w.rn))
                FROM w JOIN caps c ON c.rn = w.rn + 1
            )
            SELECT lang, alloc FROM w WHERE rn > 0
        )
        SELECT caps.lang, caps.n_tokens, caps.capacity,
               CAST(rec.alloc AS BIGINT) AS alloc
        FROM caps JOIN rec ON caps.lang = rec.lang
        ORDER BY caps.lang
    """


def ccnet_head_middle_mix(sf_dir: str) -> pd.DataFrame:
    """CCNet-style corpus-prep capstone (Wenzek et al. 2020 composed
    with soft dedup): score every document with the corpus-trained
    bigram LM, bucket into head/middle/tail perplexity tertiles, KEEP
    head+middle (the CCNet curation cut), weight each kept document by
    its near-dup soft-dedup weight, and report the resulting training
    mix per (lang, tile): document count, raw token count, and the
    soft-dedup-weighted token count the sampler would actually draw
    from.

    Everything is exact int64: tertiles from perplexity_buckets
    (micro-nat integer surprisal + NTILE), weights from
    soft_dedup_reweight (ppm reciprocals over the verified near-dup
    components), token counts from one distributed
    |langs x tiles|-bounded aggregate; weighted tokens are
    n_tokens * weight_ppm sums (ppm-scaled, no floats anywhere).
    The SQL twin chains the same three exact twins, so the capstone's
    output hashes bit-for-bit.

    Scale shape: composition of already-scale-shaped stages; the final
    join of (doc -> tile) and (doc -> weight) onto the token scan is
    doc-keyed — here via the driver-resident per-doc frames the
    constituent ops return (their documented contract), at 100 TB via
    a doc_id-bucketed zip of the three scans.

    Output: (lang, tile, n_docs, sum_tokens, weighted_tokens_ppm)
    ORDER BY lang, tile; tiles 1-2 only (tail dropped)."""
    from pdfrust_ray.pipelines.quality import perplexity_buckets
    from pdfrust_ray.stages.dedup import soft_dedup_reweight

    from ray.data.aggregate import Sum

    tiles = perplexity_buckets(sf_dir).set_index("doc_id")
    weights = soft_dedup_reweight(sf_dir).set_index("doc_id")

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"])

    import numpy as np

    import ray

    lut_ref = ray.put(
        (
            tiles["tile"].to_dict(),
            weights["weight_ppm"].to_dict(),
        )
    )

    def tag(t: pa.Table) -> pd.DataFrame:
        tile_of, w_of = worker_value(lut_ref)
        rows = []
        for doc_id, lang, txt in zip(
            t["doc_id"].to_pylist(), t["lang"].to_pylist(), t["text"].to_pylist()
        ):
            tile = tile_of.get(int(doc_id))
            if tile is None or tile > 2:
                continue  # tail dropped
            ntok = sum(1 for w in txt.split(" ") if w)
            w = w_of.get(int(doc_id), 1_000_000)
            rows.append((lang, tile, 1, ntok, ntok * w))
        df = pd.DataFrame(
            rows, columns=["lang", "tile", "n_docs", "sum_tokens", "weighted_tokens_ppm"]
        )
        return df.groupby(["lang", "tile"], as_index=False).sum()

    out = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby(["lang", "tile"])
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_tokens", alias_name="sum_tokens"),
            Sum("weighted_tokens_ppm", alias_name="weighted_tokens_ppm"),
        )
        .to_pandas()
        .sort_values(["lang", "tile"])
        .reset_index(drop=True)
    )
    for c in ("tile", "n_docs", "sum_tokens", "weighted_tokens_ppm"):
        out[c] = out[c].astype("int64")
    return out


def ccnet_head_middle_mix_sql() -> str:
    from pdfrust_ray.pipelines.quality import perplexity_buckets_sql
    from pdfrust_ray.stages.dedup import soft_dedup_reweight_sql

    return f"""
        WITH tiles AS ({perplexity_buckets_sql()}),
        weights AS ({soft_dedup_reweight_sql()}),
        toks AS (
            SELECT doc_id, lang,
                   CAST(len(list_filter(string_split(text, ' '),
                                        x -> x <> '')) AS BIGINT) AS n_tokens
            FROM documents
        )
        SELECT t.lang, ti.tile,
               CAST(COUNT(*) AS BIGINT) AS n_docs,
               CAST(SUM(t.n_tokens) AS BIGINT) AS sum_tokens,
               CAST(SUM(t.n_tokens * w.weight_ppm) AS BIGINT)
                   AS weighted_tokens_ppm
        FROM toks t
        JOIN tiles ti ON t.doc_id = ti.doc_id
        JOIN weights w ON t.doc_id = w.doc_id
        WHERE ti.tile <= 2
        GROUP BY 1, 2 ORDER BY 1, 2
    """


def pretrain_mix_plan(sf_dir: str, epoch_cap: int = 2) -> pd.DataFrame:
    """The full pretraining-mix PLAN: UniMax per-language token budgets
    split across CCNet perplexity tertiles by a 3:2:1 head:middle:tail
    curriculum weighting, with per-tile epoch caps and deterministic
    spill — the one table a data-loading curriculum actually consumes.

    Exact integer pipeline, composing three already-oracled stages:

      1. unimax_allocation gives each language its budget A_l
         (integer water-filling, budget 3/2 corpus, epoch_cap);
      2. perplexity_buckets + one token scan give avail(l, t) = tokens
         available per (lang, tile);
      3. the curriculum split: target(l,1..3) = A_l weighted 3:2:1
         (floor division, rounding remainder folded into head so the
         targets sum to A_l exactly); tiles fill in head->tail order,
         each capped at epoch_cap * avail, overflow SPILLING to the
         next tile; whatever tile 3 cannot absorb is reported as
         unallocated on its row.

    All arithmetic is int64 floor math, so the SQL twin (which chains
    the same two oracles plus an explicit 3-step spill) hashes
    bit-for-bit. Output: (lang, tile, avail_tokens, capacity, target,
    alloc, spill_out) ORDER BY lang, tile."""
    from pdfrust_ray.pipelines.quality import perplexity_buckets

    from ray.data.aggregate import Sum

    import ray

    uni = unimax_allocation(sf_dir, epoch_cap=epoch_cap)
    tiles = perplexity_buckets(sf_dir)
    tile_ref = ray.put(tiles.set_index("doc_id")["tile"].to_dict())

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"])

    def tokens_by_tile(t: pa.Table) -> pd.DataFrame:
        tile_of = worker_value(tile_ref)
        rows = []
        for doc_id, lang, txt in zip(
            t["doc_id"].to_pylist(), t["lang"].to_pylist(), t["text"].to_pylist()
        ):
            ntok = sum(1 for w in txt.split(" ") if w)
            rows.append((lang, tile_of[int(doc_id)], ntok))
        df = pd.DataFrame(rows, columns=["lang", "tile", "avail_tokens"])
        return df.groupby(["lang", "tile"], as_index=False).sum()

    avail = (
        ds.map_batches(tokens_by_tile, batch_format="pyarrow")
        .groupby(["lang", "tile"])
        .aggregate(Sum("avail_tokens", alias_name="avail_tokens"))
        .to_pandas()
    )
    # dense (lang, tile) grid — a missing tile has 0 available tokens
    import itertools

    grid = pd.DataFrame(
        list(itertools.product(sorted(uni["lang"]), (1, 2, 3))),
        columns=["lang", "tile"],
    )
    avail = grid.merge(avail, on=["lang", "tile"], how="left").fillna(0)
    avail["avail_tokens"] = avail["avail_tokens"].astype("int64")
    avail["capacity"] = (avail["avail_tokens"] * epoch_cap).astype("int64")
    alloc_of = dict(zip(uni["lang"], uni["alloc"].astype(int)))

    out_rows = []
    for lang, g in avail.groupby("lang", sort=True):
        g = g.sort_values("tile")
        a_l = alloc_of[lang]
        t2 = a_l * 2 // 6
        t3 = a_l * 1 // 6
        t1 = a_l - t2 - t3  # rounding remainder folds into head
        targets = {1: t1, 2: t2, 3: t3}
        spill = 0
        for _, r in g.iterrows():
            want = targets[int(r.tile)] + spill
            alloc = min(int(r.capacity), want)
            spill = want - alloc
            out_rows.append(
                (
                    lang,
                    int(r.tile),
                    int(r.avail_tokens),
                    int(r.capacity),
                    targets[int(r.tile)],
                    alloc,
                    spill,
                )
            )
    out = pd.DataFrame(
        out_rows,
        columns=[
            "lang",
            "tile",
            "avail_tokens",
            "capacity",
            "target",
            "alloc",
            "spill_out",
        ],
    )
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return out.sort_values(["lang", "tile"]).reset_index(drop=True)


def pretrain_mix_plan_sql(epoch_cap: int = 2) -> str:
    from pdfrust_ray.pipelines.quality import perplexity_buckets_sql

    return f"""
        WITH uni AS ({unimax_allocation_sql(epoch_cap)}),
        tiles AS ({perplexity_buckets_sql()}),
        toks AS (
            SELECT d.lang, ti.tile,
                   CAST(SUM(len(list_filter(string_split(d.text, ' '),
                                            x -> x <> ''))) AS BIGINT)
                       AS avail_tokens
            FROM documents d JOIN tiles ti ON d.doc_id = ti.doc_id
            GROUP BY 1, 2
        ), grid AS (
            SELECT u.lang, t.tile,
                   COALESCE(tk.avail_tokens, 0) AS avail_tokens,
                   CAST({epoch_cap} * COALESCE(tk.avail_tokens, 0) AS BIGINT)
                       AS capacity,
                   u.alloc AS a_l
            FROM uni u
            CROSS JOIN (SELECT UNNEST([1, 2, 3]) AS tile) t
            LEFT JOIN toks tk ON tk.lang = u.lang AND tk.tile = t.tile
        ), tgt AS (
            SELECT lang, tile, avail_tokens, capacity,
                   CASE tile
                        WHEN 2 THEN a_l * 2 // 6
                        WHEN 3 THEN a_l * 1 // 6
                        ELSE a_l - (a_l * 2 // 6) - (a_l * 1 // 6)
                   END AS target
            FROM grid
        ), s1 AS (
            SELECT lang, target AS want1,
                   LEAST(capacity, target) AS alloc1,
                   target - LEAST(capacity, target) AS spill1
            FROM tgt WHERE tile = 1
        ), s2 AS (
            SELECT t.lang, t.target + s1.spill1 AS want2,
                   LEAST(t.capacity, t.target + s1.spill1) AS alloc2,
                   t.target + s1.spill1
                       - LEAST(t.capacity, t.target + s1.spill1) AS spill2
            FROM tgt t JOIN s1 ON s1.lang = t.lang WHERE t.tile = 2
        ), s3 AS (
            SELECT t.lang, t.target + s2.spill2 AS want3,
                   LEAST(t.capacity, t.target + s2.spill2) AS alloc3,
                   t.target + s2.spill2
                       - LEAST(t.capacity, t.target + s2.spill2) AS spill3
            FROM tgt t JOIN s2 ON s2.lang = t.lang WHERE t.tile = 3
        )
        SELECT t.lang, t.tile, t.avail_tokens, t.capacity, t.target,
               CAST(CASE t.tile WHEN 1 THEN s1.alloc1
                                WHEN 2 THEN s2.alloc2
                                ELSE s3.alloc3 END AS BIGINT) AS alloc,
               CAST(CASE t.tile WHEN 1 THEN s1.spill1
                                WHEN 2 THEN s2.spill2
                                ELSE s3.spill3 END AS BIGINT) AS spill_out
        FROM tgt t
        JOIN s1 ON s1.lang = t.lang
        JOIN s2 ON s2.lang = t.lang
        JOIN s3 ON s3.lang = t.lang
        ORDER BY t.lang, t.tile
    """


def tokenizer_fertility(sf_dir: str, n_merges: int = 50) -> pd.DataFrame:
    """Per-language tokenizer fertility — characters per BPE token,
    the standard multilingual-tokenizer equity metric (ByT5 / UniMax
    discussions): languages a tokenizer serves poorly burn more tokens
    per character and get silently under-trained at a fixed token
    budget.

    Composes the corpus-trained BPE encoder (bpe_encode_counts — the
    distributed count + driver merge-table contract) with one
    |langs|-bounded (lang, chars) fold; fertility is reported as
    chars_per_token_milli = sum_chars * 1000 // sum_tokens (truncating
    int64 division, bit-stable). The SQL twin chains the exact
    recursive-CTE BPE encode twin, so the metric is value-exact.

    Output: (lang, sum_chars, sum_tokens, chars_per_token_milli)
    ORDER BY lang."""
    from ray.data.aggregate import Sum

    enc = bpe_encode_counts(sf_dir, n_merges=n_merges).set_index("doc_id")[
        "n_bpe_tokens"
    ]
    meta = (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"])
        .groupby("lang")
        .aggregate(Sum("n_chars", alias_name="sum_chars"))
        .to_pandas()
    )
    # per-doc lang for the token rollup (bounded: the per-doc token
    # table is already driver-resident by bpe_encode_counts' contract)
    doc_lang = (
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
        .to_pandas()
        .set_index("doc_id")["lang"]
    )
    tok = (
        pd.DataFrame({"lang": doc_lang, "n_bpe_tokens": enc})
        .groupby("lang", as_index=False)["n_bpe_tokens"]
        .sum()
        .rename(columns={"n_bpe_tokens": "sum_tokens"})
    )
    out = meta.merge(tok, on="lang")
    out["sum_chars"] = out["sum_chars"].astype("int64")
    # Zero-token docs (e.g. whitespace-only) contribute chars but no
    # tokens; a lang made ONLY of such docs has sum_tokens == 0 and no
    # defined fertility — drop it on both sides (the twin mirrors with
    # HAVING) so neither side divides by zero.
    out["sum_tokens"] = out["sum_tokens"].fillna(0).astype("int64")
    out = out[out["sum_tokens"] > 0].copy()
    out["chars_per_token_milli"] = (
        out["sum_chars"] * 1000 // out["sum_tokens"]
    ).astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


def tokenizer_fertility_sql(n_merges: int = 50) -> str:
    return f"""
        WITH enc AS ({bpe_encode_counts_sql(n_merges)})
        SELECT d.lang,
               CAST(SUM(d.n_chars) AS BIGINT) AS sum_chars,
               CAST(SUM(COALESCE(enc.n_bpe_tokens, 0)) AS BIGINT) AS sum_tokens,
               CAST(SUM(d.n_chars) * 1000
                    // SUM(COALESCE(enc.n_bpe_tokens, 0)) AS BIGINT)
                   AS chars_per_token_milli
        FROM documents d LEFT JOIN enc ON d.doc_id = enc.doc_id
        GROUP BY 1
        HAVING SUM(COALESCE(enc.n_bpe_tokens, 0)) > 0
        ORDER BY 1
    """


def corpus_datasheet(sf_dir: str) -> pd.DataFrame:
    """The dataset card in one table — the (metric, value) summary a
    curation run publishes next to a release (Datasheets for Datasets,
    Gebru et al. 2021, the quantitative half): corpus size, token and
    character volume, language/source diversity, document length
    extremes, and the near-duplicate footprint.

    All metrics are exact int64 and fold through one distributed
    documents pass (per-batch partials -> bounded aggregate) plus the
    verified near-dup component labeling (dedup_clusters). The SQL
    twin is a union of scalar aggregates over the same expressions,
    chained with the dedup_clusters recursive CTE — bit-for-bit.

    Output: (metric, value) ORDER BY metric."""
    from ray.data.aggregate import Max, Sum

    from pdfrust_ray.stages.dedup import dedup_clusters

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source", "n_chars"])

    def partial(t: pa.Table) -> pd.DataFrame:
        toks = [sum(1 for w in txt.split(" ") if w) for txt in t["text"].to_pylist()]
        return pd.DataFrame(
            {
                "n_docs": [len(toks)],
                "n_tokens": [int(sum(toks))],
                "n_chars": [int(sum(t["n_chars"].to_pylist()))],
                "max_doc_tokens": [int(max(toks)) if toks else 0],
            }
        )

    sums = (
        ds.map_batches(partial, batch_format="pyarrow")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_tokens", alias_name="n_tokens"),
            Sum("n_chars", alias_name="n_chars"),
            Max("max_doc_tokens", alias_name="max_doc_tokens"),
        )
    )
    n_langs = int(ds.select_columns(["lang"]).groupby("lang").count().count())
    n_sources = int(ds.select_columns(["source"]).groupby("source").count().count())
    neardup_docs = int(len(dedup_clusters(sf_dir)))
    n_docs = int(sums["sum(n_docs)"]) if "sum(n_docs)" in sums else int(sums["n_docs"])
    n_tokens = int(sums.get("n_tokens", 0))
    metrics = {
        "max_doc_tokens": int(sums.get("max_doc_tokens", 0)),
        "mean_doc_tokens_milli": n_tokens * 1000 // max(n_docs, 1),
        "n_chars": int(sums.get("n_chars", 0)),
        "n_docs": n_docs,
        "n_langs": n_langs,
        "n_sources": n_sources,
        "n_tokens": n_tokens,
        "neardup_docs": neardup_docs,
    }
    out = pd.DataFrame(
        {"metric": list(metrics.keys()), "value": pd.Series(list(metrics.values()), dtype="int64")}
    )
    return out.sort_values("metric").reset_index(drop=True)


def corpus_datasheet_sql() -> str:
    from pdfrust_ray.stages.dedup import dedup_clusters_sql

    return f"""
        WITH toks AS (
            SELECT doc_id, lang, source, n_chars,
                   len(list_filter(string_split(text, ' '), x -> x <> ''))
                       AS n_tok
            FROM documents
        ), labels AS ({dedup_clusters_sql()})
        SELECT 'max_doc_tokens' AS metric, CAST(MAX(n_tok) AS BIGINT) AS value FROM toks
        UNION ALL
        SELECT 'mean_doc_tokens_milli',
               CAST(SUM(n_tok) * 1000 // GREATEST(COUNT(*), 1) AS BIGINT) FROM toks
        UNION ALL
        SELECT 'n_chars', CAST(SUM(n_chars) AS BIGINT) FROM toks
        UNION ALL
        SELECT 'n_docs', CAST(COUNT(*) AS BIGINT) FROM toks
        UNION ALL
        SELECT 'n_langs', CAST(COUNT(DISTINCT lang) AS BIGINT) FROM toks
        UNION ALL
        SELECT 'n_sources', CAST(COUNT(DISTINCT source) AS BIGINT) FROM toks
        UNION ALL
        SELECT 'n_tokens', CAST(SUM(n_tok) AS BIGINT) FROM toks
        UNION ALL
        SELECT 'neardup_docs', CAST(COUNT(*) AS BIGINT) FROM labels
        ORDER BY metric
    """


def length_bucketed_batch_plan(
    sf_dir: str, token_budget: int = 512, n_buckets: int = 16
) -> pd.DataFrame:
    """Padding-aware dynamic batching — the training-side sibling of
    pack_sequences: instead of concatenating docs into fixed token
    packs, group docs into BATCHES whose padded cost
    (max_len_in_batch * n_seqs) stays under `token_budget`, the rule a
    dataloader uses to keep GPU-step cost constant while minimizing
    pad waste.

    Deterministic plan: docs hash-bucket by md5(doc_id) % n_buckets
    (coordination-free parallelism, the pack_sequences shape); inside
    a bucket docs are taken longest-first (n_tokens desc, doc_id asc —
    so a batch's max_len is fixed by its first member) and the batch
    closes when admitting the next doc would push padded cost over
    budget. An oversized doc gets its own batch. The greedy state is a
    linear recurrence, so the SQL twin replays it with the same
    per-bucket recursive CTE as the pack oracle.

    Output: (doc_id, bucket, n_tokens, batch_id, batch_pos,
    padded_cost) int64 ORDER BY doc_id — padded_cost is the closed
    cost max_len * n_seqs the batch has reached as of that member
    (the final member's row carries the batch's true cost)."""

    def prep(t: pa.Table) -> pa.Table:
        from ..functions.md5vec import md5_prefix_u32

        ids = t["doc_id"].to_pylist()
        toks = [token_count(s) for s in t["text"].to_pylist()]
        buckets = md5_prefix_u32([str(i).encode() for i in ids]) % n_buckets
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "bucket": pa.array(buckets.astype("int64"), pa.int64()),
                "n_tokens": pa.array(toks, pa.int64()),
            }
        )

    def plan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["n_tokens", "doc_id"], ascending=[False, True], kind="mergesort"
        ).reset_index(drop=True)
        bid, pos, cur_max, cnt = 0, 0, 0, 0
        bids, poss, costs = [], [], []
        for n in g["n_tokens"]:
            n = int(n)
            if cnt > 0 and cur_max * (cnt + 1) > token_budget:
                bid += 1
                cur_max, cnt, pos = n, 1, 0
            else:
                cur_max = max(cur_max, n) if cnt else n
                cnt += 1
                pos = cnt - 1
            bids.append(bid)
            poss.append(pos)
            costs.append(cur_max * cnt)
        g["batch_id"] = pd.Series(bids, dtype="int64")
        g["batch_pos"] = pd.Series(poss, dtype="int64")
        g["padded_cost"] = pd.Series(costs, dtype="int64")
        return g[
            ["doc_id", "bucket", "n_tokens", "batch_id", "batch_pos", "padded_cost"]
        ]

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(plan, batch_format="pandas")
        .to_pandas()
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def length_bucketed_batch_plan_sql(
    token_budget: int = 512, n_buckets: int = 16
) -> str:
    """Exact twin: longest-first order per bucket, the padded-cost
    close rule replayed one doc per recursive round."""
    return f"""
        WITH RECURSIVE t AS (
          SELECT doc_id,
                 CAST(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
                      % {n_buckets} AS BIGINT) AS bucket,
                 CAST(length(string_split_regex(text, '\\s+')) AS BIGINT) AS n_tokens
          FROM documents
        ), o AS (
          SELECT doc_id, bucket, n_tokens,
                 row_number() OVER (PARTITION BY bucket
                                    ORDER BY n_tokens DESC, doc_id) AS rn
          FROM t
        ), s AS (
          SELECT doc_id, bucket, n_tokens, rn,
                 CAST(0 AS BIGINT) AS batch_id,
                 CAST(0 AS BIGINT) AS batch_pos,
                 n_tokens AS cur_max,
                 CAST(1 AS BIGINT) AS cnt
          FROM o WHERE rn = 1
          UNION ALL
          SELECT o.doc_id, o.bucket, o.n_tokens, o.rn,
                 CASE WHEN s.cur_max * (s.cnt + 1) > {token_budget}
                      THEN s.batch_id + 1 ELSE s.batch_id END,
                 CASE WHEN s.cur_max * (s.cnt + 1) > {token_budget}
                      THEN 0 ELSE s.batch_pos + 1 END,
                 CASE WHEN s.cur_max * (s.cnt + 1) > {token_budget}
                      THEN o.n_tokens ELSE s.cur_max END,
                 CASE WHEN s.cur_max * (s.cnt + 1) > {token_budget}
                      THEN 1 ELSE s.cnt + 1 END
          FROM s JOIN o ON o.bucket = s.bucket AND o.rn = s.rn + 1
        )
        SELECT doc_id, bucket, n_tokens, batch_id, batch_pos,
               CAST(cur_max * cnt AS BIGINT) AS padded_cost
        FROM s ORDER BY doc_id
    """


def pad_efficiency_report(
    sf_dir: str, token_budget: int = 512, n_buckets: int = 16
) -> pd.DataFrame:
    """The report a dataloader owner reads off the dynamic-batching
    plan: per hash bucket, how many batches the budget produces and
    what fraction of the padded tensor is real tokens
    (efficiency_ppm = real * 1e6 // padded).

    Scale shape: the greedy plan AND its reduction both run inside the
    per-bucket group task, so the exchange is the same skinny
    (doc_id, n_tokens) rows as the planner and the driver sees exactly
    n_buckets result rows — no per-doc table ever leaves the cluster.

    Output: (bucket, n_docs, n_batches, real_tokens, padded_tokens,
    efficiency_ppm) int64 ORDER BY bucket."""

    def prep(t: pa.Table) -> pa.Table:
        from ..functions.md5vec import md5_prefix_u32

        ids = t["doc_id"].to_pylist()
        toks = [token_count(s) for s in t["text"].to_pylist()]
        buckets = md5_prefix_u32([str(i).encode() for i in ids]) % n_buckets
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "bucket": pa.array(buckets.astype("int64"), pa.int64()),
                "n_tokens": pa.array(toks, pa.int64()),
            }
        )

    def report(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["n_tokens", "doc_id"], ascending=[False, True], kind="mergesort"
        ).reset_index(drop=True)
        n_batches, cur_max, cnt, padded = 0, 0, 0, 0
        for n in g["n_tokens"]:
            n = int(n)
            if cnt > 0 and cur_max * (cnt + 1) > token_budget:
                padded += cur_max * cnt
                n_batches += 1
                cur_max, cnt = n, 1
            else:
                cur_max = cur_max if cnt else n
                cnt += 1
        if cnt:
            padded += cur_max * cnt
            n_batches += 1
        real = int(g["n_tokens"].sum())
        return pd.DataFrame(
            {
                "bucket": [int(g["bucket"].iloc[0])],
                "n_docs": [len(g)],
                "n_batches": [n_batches],
                "real_tokens": [real],
                "padded_tokens": [padded],
                "efficiency_ppm": [real * 1_000_000 // padded if padded else 0],
            }
        ).astype("int64")

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(report, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("bucket").reset_index(drop=True).astype("int64")


def pad_efficiency_report_sql(token_budget: int = 512, n_buckets: int = 16) -> str:
    """Exact twin: the batch-plan recursion, then one aggregate per
    bucket (a batch's true cost is its last member's running cost)."""
    plan = length_bucketed_batch_plan_sql(token_budget, n_buckets)
    return f"""
        WITH plan AS MATERIALIZED (
            SELECT * FROM ({plan})
        ), batch_cost AS (
            SELECT bucket, batch_id,
                   MAX(n_tokens) * COUNT(*) AS cost,
                   SUM(n_tokens) AS real_t,
                   COUNT(*) AS nd
            FROM plan GROUP BY 1, 2
        )
        SELECT CAST(bucket AS BIGINT) AS bucket,
               CAST(SUM(nd) AS BIGINT) AS n_docs,
               CAST(COUNT(*) AS BIGINT) AS n_batches,
               CAST(SUM(real_t) AS BIGINT) AS real_tokens,
               CAST(SUM(cost) AS BIGINT) AS padded_tokens,
               CAST(SUM(real_t) * 1000000 // SUM(cost) AS BIGINT)
                   AS efficiency_ppm
        FROM batch_cost GROUP BY 1 ORDER BY 1
    """
