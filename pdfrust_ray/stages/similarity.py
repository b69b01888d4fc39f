"""Similarity search over an embedding column (list<float>).

  - brute-force cosine top-k: the baseline. The (small) query matrix is
    broadcast once with ray.put; every batch computes a [batch, Q]
    similarity block with one numpy matmul and emits only its local
    top-k per query; the driver merges the tiny partials. No shuffle.
  - IVF variant (scale path): deterministic centroids (first C vectors),
    vectors bucketed by nearest centroid; queries probe the P nearest
    buckets only — the bucket assignment is a plain column, so at 100 TB
    the probe is a partition-pruned read instead of a full scan.
"""

from __future__ import annotations

import heapq

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..functions.vectors import embedding_matrix, int_column


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _query_matrix(sf_dir: str, query_ids: list[int]) -> np.ndarray:
    """Normalized [Q, D] matrix for the requested vec_ids via a
    PUSHED-DOWN `vec_id IN (...)` read — only matching row groups are
    decoded at the storage layer, never the whole table (at 10^9+
    vectors this is a handful of row-group reads)."""
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", list(query_ids))],
    )
    ids = int_column(t["vec_id"])
    mat = embedding_matrix(t["embedding"])
    pos = {int(v): i for i, v in enumerate(ids)}
    missing = [q for q in query_ids if q not in pos]
    if missing:
        raise KeyError(f"query vec_ids not found: {missing}")
    return _normalize(mat[[pos[q] for q in query_ids]])


def centroid_matrix(sf_dir: str, n_centroids: int) -> np.ndarray:
    """Deterministic IVF centroids: the first n_centroids vectors by
    vec_id, read with a STREAMING limit (Ray stops the read after the
    first blocks) instead of a driver scan of the whole table. The
    embeddings fixtures are written vec_id-ascending, so file order ==
    id order; the defensive sort keeps the set stable either way."""
    t = (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .limit(n_centroids)
        .to_pandas()
        .sort_values("vec_id")
    )
    return _normalize(np.asarray(list(t["embedding"]), dtype=np.float64))


def brute_force_topk(sf_dir: str, query_ids=(0, 1, 2, 3, 4), k: int = 10) -> pd.DataFrame:
    """Exact cosine top-k: returns (query_id, rank, vec_id, cosine).

    Ties break by vec_id ascending (same in the SQL oracle).
    """
    query_ids = list(query_ids)
    q = _query_matrix(sf_dir, query_ids)
    ref = ray.put(q)

    def topk_block(batch: pa.Table) -> pa.Table:
        vid = int_column(batch["vec_id"])
        v = _normalize(embedding_matrix(batch["embedding"]))
        sims = v @ ray.get(ref).T  # [batch, Q]; a zero-copy plasma read per batch
        out_q, out_v, out_s = [], [], []
        for qi in range(sims.shape[1]):
            col = sims[:, qi]
            take = min(k, len(col))
            # local top-k by (sim desc, vec_id asc)
            idx = np.lexsort((vid, -col))[:take]
            out_q.extend([qi] * take)
            out_v.extend(vid[idx].tolist())
            out_s.extend(col[idx].tolist())
        return pa.table(
            {
                "qi": pa.array(out_q, pa.int32()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    partials = ds.map_batches(topk_block, batch_format="pyarrow", batch_size=4096).to_pandas()

    rows = []
    for qi, qid in enumerate(query_ids):
        sub = partials[partials["qi"] == qi]
        best = heapq.nsmallest(k, zip(-sub["cosine"], sub["vec_id"]))
        for rank, (negs, vec_id) in enumerate(best, start=1):
            rows.append((qid, rank, int(vec_id)))
    # NOTE: the similarity value itself is intentionally not returned —
    # DuckDB computes list_cosine_similarity in float32 on FLOAT[] input
    # while numpy uses float64, so the *values* differ in the 7th digit;
    # the (query_id, rank, vec_id) ordering is the comparable result.
    return pd.DataFrame(rows, columns=["query_id", "rank", "vec_id"])


def brute_force_topk_sql(query_ids=(0, 1, 2, 3, 4), k: int = 10) -> str:
    """EXACT DuckDB twin of brute_force_topk: cosine over every
    embedding, ties by vec_id ascending."""
    ids = ",".join(str(int(q)) for q in query_ids)
    return f"""
        WITH q AS (
            SELECT vec_id AS query_id, embedding AS qe
            FROM embeddings WHERE vec_id IN ({ids})
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
        FROM r WHERE rank <= {int(k)} ORDER BY query_id, rank
    """


def ivf_topk(sf_dir: str, query_ids=(0, 1, 2, 3, 4), k: int = 10, n_centroids: int = 16, n_probe: int = 4) -> pd.DataFrame:
    """IVF-bucketed approximate top-k (deterministic centroids).

    Scale path: assignment adds a `bucket` column (a cheap map_batches);
    the query scans only the n_probe closest buckets. Centroids here are
    the first C vectors for determinism; at 10^12 scale bootstrap them
    from ds.random_sample (or a k-means pass over a sample) and the
    assignment/probe stages are unchanged. Persisting the bucket column
    in the parquet layout turns the probe into a partition-pruned read.
    """
    query_ids = list(query_ids)
    centroids = centroid_matrix(sf_dir, n_centroids)
    cref = ray.put(centroids)
    q = _query_matrix(sf_dir, query_ids)

    def assign_bucket(batch: pa.Table) -> pa.Table:
        v = _normalize(embedding_matrix(batch["embedding"]))
        bucket = (v @ ray.get(cref).T).argmax(axis=1).astype(np.int32)
        return batch.append_column("bucket", pa.array(bucket, pa.int32()))

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    assigned = ds.map_batches(assign_bucket, batch_format="pyarrow")

    probe = {qi: set((q[qi] @ centroids.T).argsort()[::-1][:n_probe].tolist()) for qi in range(len(query_ids))}
    qref = ray.put((q, probe))

    def probe_topk(batch: pa.Table) -> pa.Table:
        q, probe = ray.get(qref)
        vid = int_column(batch["vec_id"])
        bucket = int_column(batch["bucket"], dtype=np.int32)
        v = _normalize(embedding_matrix(batch["embedding"]))
        out_q, out_v, out_s = [], [], []
        for qi in range(q.shape[0]):
            mask = np.isin(bucket, list(probe[qi]))
            if not mask.any():
                continue
            col = v[mask] @ q[qi]
            sub_ids = vid[mask]
            take = min(k, len(col))
            idx = np.lexsort((sub_ids, -col))[:take]
            out_q.extend([qi] * take)
            out_v.extend(sub_ids[idx].tolist())
            out_s.extend(col[idx].tolist())
        return pa.table(
            {
                "qi": pa.array(out_q, pa.int32()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )

    partials = assigned.map_batches(probe_topk, batch_format="pyarrow", batch_size=4096).to_pandas()
    rows = []
    for qi, qid in enumerate(query_ids):
        sub = partials[partials["qi"] == qi]
        best = heapq.nsmallest(k, zip(-sub["cosine"], sub["vec_id"]))
        for rank, (negs, vec_id) in enumerate(best, start=1):
            rows.append((qid, rank, int(vec_id)))
    return pd.DataFrame(rows, columns=["query_id", "rank", "vec_id"])


def kmeans_embeddings(
    sf_dir: str, k: int = 10, iters: int = 5, round_to: int = 6
) -> pd.DataFrame:
    """Distributed spherical k-means (Lloyd's iterations) over the
    embeddings table — the iterative-algorithm shape on Ray Data:

      assignment: broadcast the k x D centroid matrix with ray.put and
        argmax-cosine per batch (a cheap map_batches);
      update: per batch, COMBINE to one (bucket, sum, count, inertia)
        partial row per bucket — the per-round exchange is
        O(batches x k x D), never the vectors — then groupby(bucket)
        reduces the partials and the k new centroids return to the
        driver (k x D, tiny).

    Deterministic: centroids bootstrap from the first k vectors by
    vec_id, partials carry their batch's min vec_id and the reduce
    sums in that order, and the returned means are rounded, so two
    runs produce identical output. Returns one row per cluster:
    (bucket, n_members, inertia) with inertia = sum of (1 - cosine)
    to the assigned centroid. No SQL twin (iterative float
    algorithm); pinned by monotone-inertia / determinism /
    label-recovery tests."""
    _, result = _kmeans_rounds(sf_dir, k, iters)
    result["bucket"] = result["bucket"].astype("int64")
    result["n"] = result["n"].astype("int64")
    result["inertia"] = result["inertia"].round(round_to)
    return result.reset_index(drop=True)


def _kmeans_rounds(sf_dir: str, k: int, iters: int):
    """The Lloyd loop of kmeans_embeddings; returns (final centroid
    matrix, last-round per-cluster stats). Shared with semantic_dedup,
    which needs the trained centroids, not just the stats."""
    centroids = centroid_matrix(sf_dir, k)
    # materialize ONCE before the Lloyd loop: every round re-consumes
    # the same blocks from the object store instead of re-reading and
    # re-decoding parquet per iteration — the standard Ray iterative-ML
    # pattern. Bounded by the embeddings table (spills if needed).
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()

    result = None
    for _ in range(iters):
        cref = ray.put(centroids)

        def partials(batch: pa.Table, _cref=cref) -> pa.Table:
            c = ray.get(_cref)
            v = _normalize(embedding_matrix(batch["embedding"]))
            vid = int_column(batch["vec_id"])
            sims = v @ c.T
            bucket = sims.argmax(axis=1)
            best = sims[np.arange(len(v)), bucket]
            rows_b, rows_n, rows_i, rows_s, rows_lo = [], [], [], [], []
            lo = int(vid.min()) if len(vid) else -1
            for bkt in np.unique(bucket):
                mask = bucket == bkt
                rows_b.append(int(bkt))
                rows_n.append(int(mask.sum()))
                rows_i.append(float((1.0 - best[mask]).sum()))
                rows_s.append(v[mask].sum(axis=0).tolist())
                rows_lo.append(lo)
            return pa.table(
                {
                    "bucket": pa.array(rows_b, pa.int32()),
                    "n": pa.array(rows_n, pa.int64()),
                    "inertia": pa.array(rows_i, pa.float64()),
                    "vec_sum": pa.array(rows_s, pa.list_(pa.float64())),
                    "lo_vid": pa.array(rows_lo, pa.int64()),
                }
            )

        def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values("lo_vid", kind="mergesort")  # deterministic sum order
            s = np.sum(np.stack(g["vec_sum"].to_list()), axis=0)
            return pd.DataFrame(
                {
                    "bucket": [int(g["bucket"].iloc[0])],
                    "n": [int(g["n"].sum())],
                    "inertia": [float(g["inertia"].sum())],
                    "vec_sum": [s.tolist()],
                }
            )

        agg = (
            ds.map_batches(partials, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(reduce_bucket, batch_format="pandas")
            .to_pandas()
        )
        agg = agg.sort_values("bucket").reset_index(drop=True)
        new_centroids = centroids.copy()
        for r in agg.itertuples(index=False):
            mean = np.asarray(r.vec_sum) / r.n
            norm = np.linalg.norm(mean)
            if norm > 0:
                new_centroids[int(r.bucket)] = mean / norm
        centroids = new_centroids
        result = agg[["bucket", "n", "inertia"]].copy()
    return centroids, result


def _pq_train(train: np.ndarray, m: int, k_sub: int, iters: int) -> np.ndarray:
    """Per-subspace Lloyd k-means on the (bounded, sample-sized)
    training matrix — driver-side by design, exactly like production
    PQ indexes train on a sample. Deterministic init: the first k_sub
    training rows. Returns [m, k_sub, D/m] float64 codebooks."""
    n, dim = train.shape
    d = dim // m
    books = np.empty((m, k_sub, d), dtype=np.float64)
    for j in range(m):
        x = train[:, j * d : (j + 1) * d]
        c = x[:k_sub].copy()
        for _ in range(iters):
            # [n, k_sub] squared distances via the expansion trick
            d2 = (x * x).sum(1)[:, None] - 2.0 * (x @ c.T) + (c * c).sum(1)[None, :]
            assign = d2.argmin(axis=1)
            for ci in range(k_sub):
                mask = assign == ci
                if mask.any():
                    c[ci] = x[mask].mean(axis=0)
        books[j] = c
    return books


def pq_encode(sf_dir: str, m: int = 8, k_sub: int = 32, train_n: int = 512, iters: int = 8):
    """Product-quantization encode stage: normalized vectors -> m uint8
    codes (here 64 float32 dims -> 8 bytes: 32x compression — the
    memory lever that makes billion-scale ANN fit in RAM).

    Codebooks train driver-side on a deterministic bounded sample
    (streaming `limit`, never a full-table read) and broadcast ONCE;
    encoding is an embarrassingly-parallel map_batches. Returns
    (codebooks, Dataset[vec_id, code:list<uint8>])."""
    train = (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .limit(train_n)
        .to_pandas()
        .sort_values("vec_id")
    )
    tmat = _normalize(np.asarray(list(train["embedding"]), dtype=np.float64))
    books = _pq_train(tmat, m, k_sub, iters)
    bref = ray.put(books)
    d = tmat.shape[1] // m

    def encode(batch: pa.Table) -> pa.Table:
        books = ray.get(bref)
        v = _normalize(embedding_matrix(batch["embedding"]))
        codes = np.empty((len(v), m), dtype=np.uint8)
        for j in range(m):
            x = v[:, j * d : (j + 1) * d]
            c = books[j]
            d2 = (x * x).sum(1)[:, None] - 2.0 * (x @ c.T) + (c * c).sum(1)[None, :]
            codes[:, j] = d2.argmin(axis=1).astype(np.uint8)
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "code": pa.array(list(codes), pa.list_(pa.uint8())),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    codes = ds.map_batches(encode, batch_format="pyarrow", batch_size=4096)
    return books, codes


def pq_topk(
    sf_dir: str,
    query_ids=(0, 1, 2, 3, 4),
    k: int = 10,
    m: int = 8,
    k_sub: int = 32,
) -> pd.DataFrame:
    """Asymmetric-distance (ADC) top-k over the PQ codes: per query,
    an [m, k_sub] lookup table of subspace inner products is broadcast
    and every batch scores its codes with m fancy-indexed adds — the
    full-precision vectors are never touched after encoding. Scan cost
    per vector drops from D multiplies to m table lookups; memory from
    4D bytes to m. Approximate by construction (rows-only in the
    driver gate); pinned by the recall>=0.8-vs-exact pytest."""
    query_ids = list(query_ids)
    books, codes = pq_encode(sf_dir, m=m, k_sub=k_sub)
    q = _query_matrix(sf_dir, query_ids)
    d = q.shape[1] // m
    # ADC tables: lut[qi, j, c] = q_j . codebook[j][c]
    lut = np.stack([q[:, j * d : (j + 1) * d] @ books[j].T for j in range(m)], axis=1)
    lref = ray.put(lut)

    def score_codes(batch: pa.Table) -> pa.Table:
        lut = ray.get(lref)  # [Q, m, k_sub]
        vid = int_column(batch["vec_id"])
        codes_np = np.stack(batch["code"].to_pylist()).astype(np.int64)  # [n, m]
        out_q, out_v, out_s = [], [], []
        for qi in range(lut.shape[0]):
            t = lut[qi]  # [m, k_sub]
            score = t[np.arange(m)[None, :], codes_np].sum(axis=1)
            take = min(k, len(score))
            idx = np.lexsort((vid, -score))[:take]
            out_q.extend([qi] * take)
            out_v.extend(vid[idx].tolist())
            out_s.extend(score[idx].tolist())
        return pa.table(
            {
                "qi": pa.array(out_q, pa.int32()),
                "vec_id": pa.array(out_v, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )

    partials = codes.map_batches(score_codes, batch_format="pyarrow", batch_size=4096).to_pandas()
    rows = []
    for qi, qid in enumerate(query_ids):
        sub = partials[partials["qi"] == qi]
        best = heapq.nsmallest(k, zip(-sub["score"], sub["vec_id"]))
        for rank, (negs, vec_id) in enumerate(best, start=1):
            rows.append((qid, rank, int(vec_id)))
    return pd.DataFrame(rows, columns=["query_id", "rank", "vec_id"])


def pq_rerank_topk(
    sf_dir: str,
    query_ids=(0, 1, 2, 3, 4),
    k: int = 10,
    shortlist: int = 100,
    m: int = 16,
    k_sub: int = 64,
) -> pd.DataFrame:
    """PQ shortlist + exact re-rank (the production IVFADC+refine
    pattern): the compressed-code scan produces a `shortlist`-sized
    candidate set per query, then ONLY those candidate rows are
    re-read full-precision via a pushed-down `vec_id IN (...)` filter
    and scored exactly. At design scale the expensive full-vector
    touches drop from N to Q x shortlist rows; everything else stays
    the 32x-compressed scan. Approximate by construction, but at the
    fixture's defaults (shortlist=100, m=16, k_sub=64) the measured
    recall is 1.0 and the pipeline is fully deterministic, so the
    driver gate runs it against the SAME exact SQL oracle as ann_topk
    (the ann_ivf_full_probe treatment); the pytest additionally pins
    equality to brute_force_topk."""
    query_ids = list(query_ids)
    cand = pq_topk(sf_dir, query_ids=query_ids, k=shortlist, m=m, k_sub=k_sub)
    cand_ids = sorted(set(cand["vec_id"].tolist()))
    q = _query_matrix(sf_dir, query_ids)
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", cand_ids)],
    )
    vid = int_column(t["vec_id"])
    v = _normalize(embedding_matrix(t["embedding"]))
    pos = {int(x): i for i, x in enumerate(vid)}
    rows = []
    for qi, qid in enumerate(query_ids):
        ids = np.array(
            sorted(cand[cand["query_id"] == qid]["vec_id"].tolist()), dtype=np.int64
        )
        sims = v[[pos[int(i)] for i in ids]] @ q[qi]
        idx = np.lexsort((ids, -sims))[:k]
        for rank, i in enumerate(idx, start=1):
            rows.append((qid, rank, int(ids[i])))
    return pd.DataFrame(rows, columns=["query_id", "rank", "vec_id"])


def embedding_second_moment(sf_dir: str) -> pd.DataFrame:
    """Distributed Gram / second-moment matrix of the embedding table —
    the statistic behind PCA whitening, covariance shrinkage, and
    embedding-drift monitoring at corpus scale.

    Every block contributes ONE [D, D] int64 partial (each per-vector
    product is quantized to pico-units BEFORE summation:
    floor(v_i*v_j*1e12 + 0.5), so the reduce is an order-free integer
    sum and the result is exact) merged by a single tiny groupby — the
    exchange is O(blocks x D^2), independent of row count, the same
    combiner shape as the sketches. float32 inputs are widened to
    float64 (exact), matching the SQL twin's CAST(... AS DOUBLE).

    Returns the upper triangle as (i, j, m_q) — D*(D+1)/2 rows."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
    dim_holder = {}

    def partial(t: pa.Table) -> pd.DataFrame:
        v = embedding_matrix(t["embedding"])  # float64, exact widening
        prod = v[:, :, None] * v[:, None, :]
        q = np.floor(prod * 1e12 + 0.5).astype(np.int64).sum(axis=0)
        return pd.DataFrame({"part": pd.Series([0], dtype="int64"), "blob": [q.tobytes()],
                             "dim": pd.Series([v.shape[1]], dtype="int64")})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        d = int(g["dim"].iloc[0])
        acc = np.zeros(d * d, dtype=np.int64)
        for blob in g["blob"]:
            acc += np.frombuffer(blob, dtype=np.int64)
        m = acc.reshape(d, d)
        iu, ju = np.triu_indices(d)
        return pd.DataFrame(
            {
                "i": pd.Series(iu, dtype="int64"),
                "j": pd.Series(ju, dtype="int64"),
                "m_q": pd.Series(m[iu, ju], dtype="int64"),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values(["i", "j"]).reset_index(drop=True)


def embedding_second_moment_sql() -> str:
    """Exact twin: unnest with ordinality, dim-pair self-join, the same
    pico-quantization per product, BIGINT sum."""
    return """
        WITH d AS (
          SELECT len(embedding) AS nd FROM embeddings LIMIT 1
        ), idx AS (
          SELECT CAST(unnest(range(1, (SELECT nd FROM d) + 1)) AS INTEGER) AS i
        )
        SELECT CAST(a.i - 1 AS BIGINT) AS i, CAST(b.i - 1 AS BIGINT) AS j,
               CAST(SUM(CAST(FLOOR(CAST(e.embedding[a.i] AS DOUBLE)
                                   * CAST(e.embedding[b.i] AS DOUBLE)
                                   * 1e12 + 0.5) AS BIGINT)) AS BIGINT) AS m_q
        FROM embeddings e, idx a, idx b
        WHERE a.i <= b.i
        GROUP BY a.i, b.i
        ORDER BY i, j
    """


def embedding_pca_topk(sf_dir: str, k: int = 8, round_to: int = 6) -> pd.DataFrame:
    """Top-k PCA spectrum from the EXACT distributed second-moment
    matrix: the D x D integer matrix returns to the driver (tiny), is
    rescaled to doubles, and eigendecomposed there — the standard
    two-stage distributed PCA (corpus-sized work in the combiner pass,
    O(D^3) driver math). Deterministic: the input matrix is exact
    integers and eigenvalues are basis-independent; values are rounded
    for stability. Rows-only (eigensolve has no SQL); pinned by the
    trace-preservation, non-negativity and determinism pytests."""
    tri = embedding_second_moment(sf_dir)
    d = int(tri["j"].max()) + 1
    m = np.zeros((d, d), dtype=np.float64)
    m[tri["i"], tri["j"]] = tri["m_q"] / 1e12
    m = m + np.triu(m, 1).T
    vals = np.linalg.eigvalsh(m)[::-1][:k]
    return pd.DataFrame(
        {
            "component": pd.Series(range(1, len(vals) + 1), dtype="int64"),
            "eigenvalue": pd.Series(np.round(vals, round_to), dtype="float64"),
        }
    )


# ---------------------------------------------------------------------------
# contrastive pair mining (positives + hard negatives)
# ---------------------------------------------------------------------------


def contrastive_pairs(
    sf_dir: str,
    query_ids=tuple(range(8)),
    t_pos: float = 0.25,
    t_neg: float = 0.28,
) -> pd.DataFrame:
    """Contrastive-training pair mining: for each query vector, every
    SAME-label vector with cosine >= t_pos (positives) and every
    DIFFERENT-label vector with cosine >= t_neg (hard negatives — the
    confusable ones a contrastive loss learns the most from).

    Shape: the [Q, D] query matrix + labels are read via a pushed-down
    `vec_id IN (...)` filter (row-group pruned, never the whole table)
    and broadcast once; each batch computes one [batch, Q] matmul and
    emits only the pairs that clear a threshold. No shuffle — the
    output is pair-set-sized, not corpus-sized.

    Like embedding_dedup, the output contract is the thresholded pair
    SET (not the similarity values): DuckDB's list_cosine_similarity
    computes on FLOAT[] while numpy uses float64, so values differ in
    the 7th digit but the set at a threshold with margin is identical
    (fixture margin to the nearest value: >= 3e-5, measured).
    """
    query_ids = list(query_ids)
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
        filters=[("vec_id", "in", query_ids)],
    )
    ids = int_column(t["vec_id"])
    pos = {int(v): i for i, v in enumerate(ids)}
    order = [pos[q] for q in query_ids]
    qmat = _normalize(embedding_matrix(t["embedding"]))[order]
    qids = np.asarray(query_ids, dtype=np.int64)
    qlabels = int_column(t["label"]).astype(np.int64)[order]
    ref = ray.put((qmat, qids, qlabels))

    def pair_block(batch: pa.Table) -> pa.Table:
        qmat, qids, qlabels = ray.get(ref)
        vid = int_column(batch["vec_id"])
        labels = int_column(batch["label"]).astype(np.int64)
        v = _normalize(embedding_matrix(batch["embedding"]))
        sims = v @ qmat.T  # [batch, Q]
        same = labels[:, None] == qlabels[None, :]
        mask = np.where(same, sims >= t_pos, sims >= t_neg)
        mask &= vid[:, None] != qids[None, :]  # no self-pairs
        bi, qi = np.nonzero(mask)
        return pa.table(
            {
                "query_id": pa.array(qids[qi], pa.int64()),
                "other_id": pa.array(vid[bi], pa.int64()),
                "kind": pa.array(np.where(same[bi, qi], "pos", "neg")),
            }
        )

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )
    out = ds.map_batches(pair_block, batch_format="pyarrow", batch_size=4096).to_pandas()
    out["query_id"] = out["query_id"].astype("int64")
    out["other_id"] = out["other_id"].astype("int64")
    return out.sort_values(["query_id", "other_id"]).reset_index(drop=True)


def contrastive_pairs_sql(
    n_queries: int = 8, t_pos: float = 0.25, t_neg: float = 0.28
) -> str:
    return f"""
        SELECT q.vec_id AS query_id, b.vec_id AS other_id,
               CASE WHEN q.label = b.label THEN 'pos' ELSE 'neg' END AS kind
        FROM embeddings q, embeddings b
        WHERE q.vec_id < {n_queries} AND b.vec_id != q.vec_id
          AND list_cosine_similarity(q.embedding, b.embedding)
              >= CASE WHEN q.label = b.label THEN {t_pos} ELSE {t_neg} END
        ORDER BY query_id, other_id
    """


# ---------------------------------------------------------------------------
# MMR diverse subset selection
# ---------------------------------------------------------------------------


def mmr_diverse_topk(
    sf_dir: str, query_id: int = 0, k: int = 20, lam: float = 0.7
) -> pd.DataFrame:
    """Maximal Marginal Relevance selection — the diverse-subset picker
    a training-data pipeline uses to avoid stuffing near-duplicates
    into a curated set: greedily pick argmax of
    lam * cos(query, v) - (1 - lam) * max cos(v, selected).

    The greedy loop is inherently sequential in k, but each step is a
    DISTRIBUTED argmax: the (tiny) selected matrix is broadcast, every
    batch computes its local best candidate with one matmul against
    [query; selected], and the driver reduces O(blocks) per-block
    champions — the corpus is scanned, never collected. Deterministic:
    float64 scores, ties by vec_id ascending.

    Value-exact SQL twin (mmr_diverse_topk_sql): the selected set rides
    round-tagged inside a recursive CTE; DuckDB's double-precision
    list_cosine_similarity ordering agrees with the numpy float64
    normalize-then-dot path at both fixture scales (scores are far
    enough apart that the last-ulp rounding difference never flips an
    argmax). Also pinned by a serial recompute and a
    diversity-beats-topk property test."""
    q = _query_matrix(sf_dir, [query_id])[0]

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    selected_ids: list[int] = []
    selected_vecs: list[np.ndarray] = []

    for rank in range(1, k + 1):
        state = ray.put(
            (
                q,
                np.array(selected_vecs) if selected_vecs else np.zeros((0, len(q))),
                np.array(sorted(selected_ids), dtype=np.int64),
            )
        )

        def local_best(t: pa.Table) -> pa.Table:
            qv, sel, sel_ids = ray.get(state)
            vid = int_column(t["vec_id"])
            keep = ~np.isin(vid, sel_ids)
            if not keep.any():
                return pa.table(
                    {
                        "vec_id": pa.array([], pa.int64()),
                        "score": pa.array([], pa.float64()),
                        "vec": pa.array([], pa.list_(pa.float64())),
                    }
                )
            vid = vid[keep]
            v = _normalize(embedding_matrix(t["embedding"]))[keep]
            rel = v @ qv
            red = (v @ sel.T).max(axis=1) if len(sel) else np.zeros(len(v))
            score = lam * rel - (1.0 - lam) * red
            best = np.lexsort((vid, -score))[0]
            # ship the champion's vector with its score so the driver
            # never re-opens the file to recover the winner
            return pa.table(
                {
                    "vec_id": pa.array([int(vid[best])], pa.int64()),
                    "score": pa.array([float(score[best])], pa.float64()),
                    "vec": pa.array([v[best].tolist()], pa.list_(pa.float64())),
                }
            )

        champs = ds.map_batches(local_best, batch_format="pyarrow", batch_size=4096).to_pandas()
        champs = champs.sort_values(["score", "vec_id"], ascending=[False, True], kind="mergesort")
        win = int(champs["vec_id"].iloc[0])
        selected_ids.append(win)
        selected_vecs.append(np.asarray(champs["vec"].iloc[0], dtype=np.float64))

    return pd.DataFrame(
        {
            "rank": pd.Series(range(1, k + 1), dtype="int64"),
            "vec_id": pd.Series(selected_ids, dtype="int64"),
        }
    )


def ann_rrf_fusion(sf_dir: str, query_ids=(0, 1, 2, 3, 4), k: int = 5) -> pd.DataFrame:
    """Reciprocal-rank fusion of two retrieval systems — the float
    brute-force cosine ranking and the integer quantized-dot ranking —
    the standard hybrid-search merge (RRF, Cormack et al.). Each
    system's top-10 comes from its own distributed scan; the fusion
    itself runs over the two tiny rank lists (O(queries x 10) rows by
    construction) with each term quantized floor(1e6/(60+rank)+0.5) so
    the combined score is exact integer arithmetic, bit-stable and
    SQL-comparable. Ties break by vec_id; missing-from-one-list
    candidates contribute only their present terms (standard RRF)."""
    from pdfrust_ray.pipelines.relational import ann_quantized_topk

    a = brute_force_topk(sf_dir, query_ids=query_ids, k=10)
    b = ann_quantized_topk(sf_dir, query_ids=query_ids, k=10)

    def terms(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["query_id", "vec_id", "rank"]].copy()
        out["t"] = (1_000_000.0 / (60 + out["rank"].to_numpy()) + 0.5).astype("int64")
        return out[["query_id", "vec_id", "t"]]

    allt = pd.concat([terms(a), terms(b)], ignore_index=True)
    score = allt.groupby(["query_id", "vec_id"], as_index=False)["t"].sum()
    frames = []
    for q, g in score.groupby("query_id"):
        g = g.sort_values(["t", "vec_id"], ascending=[False, True], kind="mergesort").head(k)
        g = g.reset_index(drop=True)
        frames.append(
            pd.DataFrame(
                {
                    "query_id": q,
                    "rank": np.arange(1, len(g) + 1, dtype=np.int64),
                    "vec_id": g["vec_id"],
                    "rrf_micro": g["t"],
                }
            )
        )
    out = pd.concat(frames, ignore_index=True)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def ann_rrf_fusion_sql(query_ids=(0, 1, 2, 3, 4), k: int = 5) -> str:
    from pdfrust_ray.pipelines.relational import ann_quantized_topk_sql

    ids = ", ".join(str(q) for q in query_ids)
    return f"""
        WITH cos_r AS (
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe
                FROM embeddings WHERE vec_id IN ({ids})
            ), s AS (
                SELECT q.query_id, e.vec_id,
                       list_cosine_similarity(e.embedding, q.qe) AS cosine
                FROM embeddings e CROSS JOIN q
            )
            SELECT query_id, vec_id,
                   row_number() OVER (PARTITION BY query_id
                                      ORDER BY cosine DESC, vec_id) AS rank
            FROM s QUALIFY rank <= 10
        ), dot_r AS (
            SELECT query_id, vec_id, rank FROM ({ann_quantized_topk_sql(query_ids, 10)})
        ), terms AS (
            SELECT query_id, vec_id,
                   CAST(FLOOR(1000000.0 / (60 + rank) + 0.5) AS BIGINT) AS t
            FROM cos_r
            UNION ALL
            SELECT query_id, vec_id,
                   CAST(FLOOR(1000000.0 / (60 + rank) + 0.5) AS BIGINT)
            FROM dot_r
        ), fused AS (
            SELECT query_id, vec_id, CAST(SUM(t) AS BIGINT) AS rrf_micro,
                   row_number() OVER (PARTITION BY query_id
                                      ORDER BY SUM(t) DESC, vec_id) AS rank
            FROM terms GROUP BY 1, 2
        )
        SELECT query_id, CAST(rank AS BIGINT) AS rank, vec_id, rrf_micro
        FROM fused WHERE rank <= {k} ORDER BY query_id, rank
    """


def ann_recall_report(sf_dir: str, query_ids=(0, 1, 2, 3, 4), k: int = 10) -> pd.DataFrame:
    """Self-evaluation of the approximate index: per query, how many of
    the EXACT top-k the IVF probe recovered (recall@k) plus the probe
    parameters — the acceptance report an ANN deployment publishes
    before switching traffic. Deterministic (both rankings are), but
    greedy/approximate retrieval has no SQL twin — rows-only contract,
    pinned by the recall bound pytest and the exact-vs-full-probe
    identity."""
    exact = brute_force_topk(sf_dir, query_ids=query_ids, k=k)
    approx = ivf_topk(sf_dir, query_ids=query_ids, k=k)
    rows = []
    for q in query_ids:
        e = set(exact.loc[exact["query_id"] == q, "vec_id"])
        a = set(approx.loc[approx["query_id"] == q, "vec_id"])
        rows.append((q, k, len(e & a), len(e & a) * 1_000_000 // k))
    out = pd.DataFrame(rows, columns=["query_id", "k", "n_hit", "recall_ppm"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def hard_negative_mining(sf_dir: str, pool_size: int = 500, scale: int = 1_000_000) -> pd.DataFrame:
    """Contrastive-training hard negatives: for every anchor vector, the
    single most-similar vector of a DIFFERENT label — the pair a triplet
    loss learns the most from. Similarity is the EXACT int64 dot product
    of 1e-6-quantized components, so the argmax (ties broken by min
    neg_id) is bit-deterministic in both engines; int64 dots fit in a
    float64 mantissa, so the DuckDB list_dot_product oracle is exact too.

    Distributed plan: the negative candidate pool is the first
    `pool_size` vectors by vec_id via a STREAMING limit read (real
    pipelines mine against a sampled pool — at 10^9 vectors the pool is
    the sample, not the corpus), broadcast ONCE via ray.put; anchors
    stream through a task stage doing one [batch, D] x [D, P] int64
    matmul per batch with a same-label mask. No shuffle, no driver scan."""
    t = (
        rd.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
        )
        .limit(pool_size)
        .to_pandas()
        .sort_values("vec_id")
    )
    pool_ids = t["vec_id"].to_numpy().astype(np.int64)
    pool_lab = t["label"].to_numpy().astype(np.int64)
    pool_mat = np.round(
        np.asarray(list(t["embedding"]), dtype=np.float64) * scale
    ).astype(np.int64)
    ref = ray.put((pool_ids, pool_lab, pool_mat))

    def miner(batch: pa.Table) -> pa.Table:
        pool_ids, pool_lab, pool_mat = ray.get(ref)  # zero-copy plasma read
        vid = int_column(batch["vec_id"])
        lab = int_column(batch["label"])
        v = np.round(
            embedding_matrix(batch["embedding"]).astype(np.float64) * scale
        ).astype(np.int64)
        dots = v @ pool_mat.T  # [batch, P] exact int64
        # mask same-label columns per row (self is same-label too)
        mask = lab[:, None] == pool_lab[None, :]
        dots = np.where(mask, np.iinfo(np.int64).min, dots)
        best = np.argmax(dots, axis=1)  # first max -> min vec_id
        return pa.table(
            {
                "vec_id": pa.array(vid, pa.int64()),
                "label": pa.array(lab, pa.int64()),
                "neg_id": pa.array(pool_ids[best], pa.int64()),
                "neg_label": pa.array(pool_lab[best], pa.int64()),
                "dot": pa.array(dots[np.arange(len(best)), best], pa.int64()),
            }
        )

    out = (
        rd.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
        )
        .map_batches(miner, batch_size=256, batch_format="pyarrow")
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def hard_negative_mining_sql(scale: int = 1_000_000) -> str:
    return f"""
        WITH e AS (
            SELECT vec_id, CAST(label AS BIGINT) AS label,
                   list_transform(embedding,
                       x -> CAST(ROUND(CAST(x AS DOUBLE) * {scale}) AS BIGINT)) AS v
            FROM embeddings
        ),
        pairs AS (
            SELECT a.vec_id, a.label, b.vec_id AS neg_id,
                   b.label AS neg_label,
                   CAST(list_dot_product(a.v, b.v) AS BIGINT) AS dot
            FROM e a JOIN e b ON a.label <> b.label
        )
        SELECT vec_id, label, neg_id, neg_label, dot
        FROM pairs
        QUALIFY ROW_NUMBER() OVER (PARTITION BY vec_id
                                   ORDER BY dot DESC, neg_id) = 1
        ORDER BY vec_id
    """


def mutual_knn_degree(sf_dir: str, k: int = 5, scale: int = 1_000_000) -> pd.DataFrame:
    """kNN-graph construction + mutuality audit: every vector's k
    nearest neighbours by EXACT int64 dot product of 1e-6-quantized
    components (ties broken by min neighbour id, self excluded); an
    edge is MUTUAL when both endpoints rank each other — the graph
    SemDeDup-style semantic dedup and graph-based coreset selection
    build first. Output: the histogram of mutual-degree (0..k) over
    all vectors.

    Distributed plan: the candidate pool broadcasts once — the
    documented EXACT-broadcast bound; past object-store size use the
    bucketed sibling `mutual_knn_degree_ivf` (within-bucket search,
    no driver read); anchors stream through one [batch, N] int matmul
    emitting k directed edges each; mutuality is a canonical-pair
    groupby (count==2) and the degree histogram a node-keyed count —
    both exchanges carry O(N*k) rows, never O(N^2)."""
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).sort_by("vec_id")
    pool_ids = int_column(t["vec_id"])
    pool_mat = np.round(
        embedding_matrix(t["embedding"]).astype(np.float64) * scale
    ).astype(np.int64)
    n_total = len(pool_ids)
    ref = ray.put((pool_ids, pool_mat))

    def knn_edges(batch: pa.Table) -> pa.Table:
        pool_ids, pool_mat = ray.get(ref)
        vid = int_column(batch["vec_id"])
        v = np.round(
            embedding_matrix(batch["embedding"]).astype(np.float64) * scale
        ).astype(np.int64)
        dots = v @ pool_mat.T  # [batch, N] exact int64
        # min+1, not min: -(int64.min) overflows back to int64.min and
        # would sort the masked self-column FIRST instead of last
        dots[vid[:, None] == pool_ids[None, :]] = np.iinfo(np.int64).min + 1
        # top-k by (dot DESC, id ASC): ids are sorted ascending, so
        # a stable argsort on -dot resolves ties to the lowest id
        order = np.argsort(-dots, axis=1, kind="stable")[:, :k]
        src = np.repeat(vid, k)
        dst = pool_ids[order].ravel()
        return pa.table(
            {
                "a": pa.array(np.minimum(src, dst), pa.int64()),
                "b": pa.array(np.maximum(src, dst), pa.int64()),
            }
        )

    from ray.data.aggregate import Count, Sum

    edges = (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .map_batches(knn_edges, batch_size=256, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="n_dir"))
        .map_batches(
            lambda tbl: tbl.filter(pc.equal(tbl["n_dir"], 2)),
            batch_format="pyarrow",
        )
    )

    def both_ends(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        pc.cast(tbl["a"], pa.int64()).combine_chunks(),
                        pc.cast(tbl["b"], pa.int64()).combine_chunks(),
                    ]
                )
            }
        )

    deg = (
        edges.map_batches(both_ends, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Count(alias_name="degree"))
        .groupby("degree")
        .aggregate(Count(alias_name="n_vectors"))
        .to_pandas()
    )
    deg["degree"] = deg["degree"].astype("int64")
    deg["n_vectors"] = deg["n_vectors"].astype("int64")
    n_isolated = n_total - int(deg["n_vectors"].sum())
    if n_isolated:
        deg = pd.concat(
            [pd.DataFrame({"degree": [0], "n_vectors": [n_isolated]}), deg],
            ignore_index=True,
        )
    return deg.sort_values("degree").reset_index(drop=True)


def mutual_knn_degree_sql(k: int = 5, scale: int = 1_000_000) -> str:
    return f"""
        WITH e AS (
            SELECT vec_id,
                   list_transform(embedding,
                       x -> CAST(ROUND(CAST(x AS DOUBLE) * {scale}) AS BIGINT)) AS v
            FROM embeddings
        ),
        knn AS (
            SELECT a.vec_id AS src, b.vec_id AS dst
            FROM e a JOIN e b ON a.vec_id <> b.vec_id
            QUALIFY ROW_NUMBER() OVER (
                PARTITION BY a.vec_id
                ORDER BY CAST(list_dot_product(a.v, b.v) AS BIGINT) DESC,
                         b.vec_id) <= {k}
        ),
        mutual AS (
            SELECT LEAST(src, dst) AS a, GREATEST(src, dst) AS b
            FROM knn GROUP BY 1, 2 HAVING COUNT(*) = 2
        ),
        deg AS (
            SELECT node, COUNT(*) AS degree FROM (
                SELECT a AS node FROM mutual
                UNION ALL SELECT b FROM mutual
            ) GROUP BY 1
        ),
        all_deg AS (
            SELECT e.vec_id, COALESCE(deg.degree, 0) AS degree
            FROM e LEFT JOIN deg ON e.vec_id = deg.node
        )
        SELECT CAST(degree AS BIGINT) AS degree,
               CAST(COUNT(*) AS BIGINT) AS n_vectors
        FROM all_deg GROUP BY 1 ORDER BY 1
    """


def embedding_pair_distance_histogram(
    sf_dir: str,
    scale: int = 1_000_000,
    width: int = 100_000_000_000,
    offset: int = 20_000_000_000_000,
) -> pd.DataFrame:
    """Pairwise-similarity landscape: the histogram of EXACT int64 dot
    products over every unordered embedding pair — the profile a
    near-dup threshold or contrastive-margin choice is read off (how
    separable is the space, where does the mass sit). Components are
    1e-6-quantized so the dot is exact; buckets are (dot + offset) //
    width with the offset keeping the numerator non-negative (DuckDB's
    `//` truncates toward zero, numpy floors — identical on
    non-negatives, the repo-standard dodge).

    Distributed plan: the pool broadcasts once (same anchor-stream x
    broadcast-matmul shape as mutual_knn_degree) — the documented
    EXACT-broadcast bound; past object-store size use the bucketed
    sibling `embedding_pair_distance_histogram_ivf`; each anchor batch
    reduces its [B, N] dot block IN PLACE to bucket partial counts, so
    the exchange is histogram-sized regardless of the O(N^2) pair
    count."""
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).sort_by("vec_id")
    pool_ids = int_column(t["vec_id"])
    pool_mat = np.round(
        embedding_matrix(t["embedding"]).astype(np.float64) * scale
    ).astype(np.int64)
    ref = ray.put((pool_ids, pool_mat))

    def pair_hist(batch: pa.Table) -> pa.Table:
        pool_ids, pool_mat = ray.get(ref)
        vid = int_column(batch["vec_id"])
        v = np.round(
            embedding_matrix(batch["embedding"]).astype(np.float64) * scale
        ).astype(np.int64)
        dots = v @ pool_mat.T  # [B, N] exact int64
        keep = pool_ids[None, :] > vid[:, None]  # unordered pairs once
        b = (dots[keep] + offset) // width
        if (b < 0).any():
            raise ValueError("dot below the histogram offset")
        u, c = np.unique(b, return_counts=True)
        return pa.table(
            {
                "bucket": pa.array(u, pa.int64()),
                "n": pa.array(c, pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    out = (
        rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .map_batches(pair_hist, batch_size=256, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n", alias_name="n_pairs"))
        .to_pandas()
        .sort_values("bucket")
        .reset_index(drop=True)
    )
    for c in ("bucket", "n_pairs"):
        out[c] = out[c].astype("int64")
    return out


def embedding_pair_distance_histogram_sql(
    scale: int = 1_000_000,
    width: int = 100_000_000_000,
    offset: int = 20_000_000_000_000,
) -> str:
    return f"""
        WITH e AS (
            SELECT vec_id,
                   list_transform(embedding,
                       x -> CAST(ROUND(CAST(x AS DOUBLE) * {scale}) AS BIGINT)) AS v
            FROM embeddings
        )
        SELECT (CAST(list_dot_product(a.v, b.v) AS BIGINT) + {offset}) // {width}
                   AS bucket,
               CAST(COUNT(*) AS BIGINT) AS n_pairs
        FROM e a JOIN e b ON a.vec_id < b.vec_id
        GROUP BY 1 ORDER BY 1
    """


def _sign_planes(n_planes: int = 16, dim: int = 64) -> np.ndarray:
    """Deterministic +/-1 hyperplanes: bit b of md5(plane||dim-block)
    decides each entry's sign — reproducible across processes with no
    RNG state."""
    import hashlib

    rows = []
    for p in range(n_planes):
        bits = []
        for blk in range(0, dim, 16):
            h = hashlib.md5(f"signlsh:{p}:{blk}".encode()).digest()
            for i in range(16):
                bits.append(1 if (h[i] & 1) else -1)
        rows.append(bits[:dim])
    return np.asarray(rows, dtype=np.int64)


def embedding_sign_lsh_pairs(
    sf_dir: str,
    threshold: float = 0.45,
    n_planes: int = 16,
    n_bands: int = 4,
    scale: int = 1_000_000,
) -> pd.DataFrame:
    """Hyperplane sign-LSH near-duplicate pairs — the third embedding
    near-dup path next to the exact broadcast (embedding_dedup) and
    IVF (embedding_dedup_ivf): each vector's 16-bit sign signature
    (exact int dots against deterministic +/-1 planes) splits into 4
    bands; vectors sharing ANY band become candidates; candidates are
    verified by exact cosine >= threshold. Output: the verified pair
    set (a SUBSET of the exact pair set by construction; recall is the
    banding's capture rate, pinned by the recall pytest).

    Distributed plan: signatures are a stateless map (int matmul per
    batch); candidates come from 4 band-keyed groupbys moving
    (band_value, vec_id) rows — signatures, never vectors; each band
    bucket verifies its own candidates via a pushed-down vec_id read,
    exactly the minhash_lsh_dedup shape."""
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    planes = _sign_planes(n_planes)
    bits_per_band = n_planes // n_bands

    def signatures(t: pa.Table) -> pa.Table:
        v = np.round(
            embedding_matrix(t["embedding"]).astype(np.float64) * scale
        ).astype(np.int64)
        dots = v @ planes.T  # exact ints
        sig = ((dots > 0).astype(np.int64) << np.arange(n_planes)).sum(axis=1)
        vid = int_column(t["vec_id"])
        out = {"vec_id": pa.array(vid, pa.int64())}
        mask = (1 << bits_per_band) - 1
        for b in range(n_bands):
            band_val = (sig >> (b * bits_per_band)) & mask
            out[f"band{b}"] = pa.array(b * (1 << bits_per_band) + band_val, pa.int64())
        return pa.table(out)

    sigs = ds.map_batches(signatures, batch_format="pyarrow").materialize()

    cand: set[tuple[int, int]] = set()
    for b in range(n_bands):
        def explode(t: pa.Table, _b=b) -> pa.Table:
            return pa.table({"bk": t[f"band{_b}"], "vec_id": t["vec_id"]})

        def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
            ids = np.sort(g["vec_id"].to_numpy(np.int64))
            if len(ids) < 2:
                return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                     "b": pd.Series([], dtype="int64")})
            iu = np.triu_indices(len(ids), k=1)
            return pd.DataFrame({"a": ids[iu[0]], "b": ids[iu[1]]})

        got = (
            sigs.map_batches(explode, batch_format="pyarrow")
            .groupby("bk")
            .map_groups(bucket_pairs, batch_format="pandas")
            .to_pandas()
        )
        cand.update(zip(got["a"].astype(int), got["b"].astype(int)))

    if not cand:
        return pd.DataFrame(
            {"vec_a": pd.Series([], dtype="int64"), "vec_b": pd.Series([], dtype="int64")}
        )
    # verify candidates with exact cosine over a pushed-down id read
    ids_needed = sorted({i for p in cand for i in p})
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", ids_needed)],
    )
    vid = int_column(t["vec_id"])
    mat = embedding_matrix(t["embedding"]).astype(np.float64)
    mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-30)
    pos = {int(v): i for i, v in enumerate(vid)}
    pairs = sorted(cand)
    a = np.array([pos[x] for x, _ in pairs])
    b = np.array([pos[y] for _, y in pairs])
    cos = (mat[a] * mat[b]).sum(axis=1)
    keep = cos >= threshold
    out = pd.DataFrame(
        {
            "vec_a": [p[0] for p, k in zip(pairs, keep) if k],
            "vec_b": [p[1] for p, k in zip(pairs, keep) if k],
        }
    )
    return out.astype("int64").sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


def triplet_margin_violations(sf_dir: str, scale: int = 1_000_000) -> pd.DataFrame:
    """Metric-learning data audit: for every anchor vector, find its
    best SAME-label neighbour p and best OTHER-label neighbour n by
    EXACT int64 dot product of 1e-6-quantized components (ties to the
    smaller vec_id, self excluded); a violation is dot(a, n) >=
    dot(a, p) — the anchor whose nearest neighbour structure crosses
    the label boundary, the count every triplet-loss curriculum wants
    low.  Output per label: anchors and violations.

    Distributed plan: the quantized pool (ids, labels, matrix)
    broadcasts once — the documented EXACT-broadcast bound; past
    object-store size use the bucketed sibling
    `triplet_margin_violations_ivf`; anchors stream through one
    [batch, N] int matmul; the per-label fold is a label-keyed Count —
    O(N) exchange."""
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    ).sort_by("vec_id")
    pool_ids = int_column(t["vec_id"])
    pool_labels = int_column(t["label"])
    pool_mat = np.round(
        embedding_matrix(t["embedding"]).astype(np.float64) * scale
    ).astype(np.int64)
    bref = ray.put((pool_ids, pool_labels, pool_mat))

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"])

    def score(batch: pa.Table) -> pa.Table:
        ids_, labels_, mat_ = ray.get(bref)
        a_ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a_lab = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        a_mat = np.round(
            np.asarray(list(batch["embedding"].to_pylist()), dtype=np.float64) * scale
        ).astype(np.int64)
        dots = a_mat @ mat_.T  # exact int64
        self_mask = a_ids[:, None] == ids_[None, :]
        same = (a_lab[:, None] == labels_[None, :]) & ~self_mask
        other = a_lab[:, None] != labels_[None, :]
        # only the MAX per side matters, so no id tie-break is needed;
        # anchors missing either side (singleton label / single class)
        # are counted as non-violations, matching the SQL NULL semantics
        NEG = np.int64(-(1 << 62))
        bp = np.where(same, dots, NEG).max(axis=1)
        bn = np.where(other, dots, NEG).max(axis=1)
        viol = ((bn >= bp) & (bp > NEG) & (bn > NEG)).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(a_lab),
                "viol": pa.array(viol),
            }
        )

    from ray.data.aggregate import Count, Sum

    out = (
        ds.map_batches(score, batch_format="pyarrow")
        .groupby("label")
        .aggregate(Count(alias_name="n_anchors"), Sum("viol", alias_name="n_violations"))
        .to_pandas()
        .sort_values("label")
        .reset_index(drop=True)
    )
    return out.astype("int64")


def triplet_margin_violations_sql(scale: int = 1_000_000) -> str:
    return f"""
        WITH e AS (
            SELECT vec_id, label,
                   list_transform(embedding,
                       x -> CAST(ROUND(CAST(x AS DOUBLE) * {scale}) AS BIGINT)) AS v
            FROM embeddings
        ),
        pairs AS (
            SELECT a.vec_id AS src, a.label AS lab,
                   b.label = a.label AS same_lab,
                   list_dot_product(a.v, b.v) AS dot
            FROM e a JOIN e b ON a.vec_id <> b.vec_id
        ),
        best AS (
            SELECT src, lab,
                   MAX(CASE WHEN same_lab THEN dot END) AS bp,
                   MAX(CASE WHEN NOT same_lab THEN dot END) AS bn
            FROM pairs GROUP BY 1, 2
        )
        SELECT CAST(lab AS BIGINT) AS label,
               CAST(COUNT(*) AS BIGINT) AS n_anchors,
               CAST(SUM(CASE WHEN bn IS NOT NULL AND bp IS NOT NULL
                             AND bn >= bp THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_violations
        FROM best GROUP BY 1 ORDER BY 1
    """


def embedding_int8_quant_audit(sf_dir: str, n_dims: int = 8) -> pd.DataFrame:
    """Int8 scalar-quantization audit over the embedding column: per
    vector, scale A = max(|x_i|) (exact — both sides take a true max)
    and per inspected dimension the quantized code
    q = floor(x*127.0/A + 0.5) plus the reconstruction error
    x - q*(A/127.0) — the compression-loss report a vector-store
    migration reads before switching to int8 storage.  floor(x+0.5)
    is used on BOTH sides (DuckDB ROUND is half-away-from-zero,
    numpy's is half-to-even — floor sidesteps the mismatch), and every
    output float is a row-independent mirrored expression, so doubles
    hash-match.

    Distributed plan: embarrassingly parallel map_batches; only the
    first n_dims dims per vector leave the task (the audit sample),
    keeping output rows bounded."""
    import numpy as np

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def audit(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        mat = embedding_matrix(t["embedding"]).astype(np.float64)
        a = np.abs(mat).max(axis=1)
        a[a == 0] = 1.0
        vid, dim, orig, qq, err = [], [], [], [], []
        for i in range(len(ids)):
            for d in range(min(n_dims, mat.shape[1])):
                x = float(mat[i, d])
                q = float(np.floor(x * 127.0 / a[i] + 0.5))
                vid.append(int(ids[i]))
                dim.append(d)
                orig.append(x)
                qq.append(int(q))
                err.append(x - q * (a[i] / 127.0))
        return pa.table(
            {
                "vec_id": pa.array(vid, pa.int64()),
                "dim": pa.array(dim, pa.int64()),
                "orig": pa.array(orig, pa.float64()),
                "q": pa.array(qq, pa.int64()),
                "err": pa.array(err, pa.float64()),
            }
        )

    out = ds.map_batches(audit, batch_format="pyarrow").to_pandas()
    return out.sort_values(["vec_id", "dim"]).reset_index(drop=True)


def embedding_int8_quant_audit_sql(n_dims: int = 8) -> str:
    return f"""
        WITH base AS (
            SELECT vec_id,
                   CAST(embedding AS DOUBLE[]) AS emb,
                   (SELECT MAX(abs(u)) FROM UNNEST(embedding) AS t(u)) AS a0
            FROM embeddings
        ),
        scaled AS (
            SELECT vec_id, emb,
                   CASE WHEN a0 = 0 THEN 1.0 ELSE CAST(a0 AS DOUBLE) END AS a
            FROM base
        ),
        dims AS (
            SELECT vec_id, a, d.d AS dim, emb[d.d + 1] AS x
            FROM scaled
            CROSS JOIN (SELECT UNNEST(range({n_dims})) AS d) d
            WHERE d.d < len(emb)
        )
        SELECT vec_id, dim, x AS orig,
               CAST(FLOOR(x * 127.0 / a + 0.5) AS BIGINT) AS q,
               x - FLOOR(x * 127.0 / a + 0.5) * (a / 127.0) AS err
        FROM dims
        ORDER BY vec_id, dim
    """


def jl_projection_audit(sf_dir: str, d_out: int = 16, n_vecs: int = 16) -> pd.DataFrame:
    """Johnson-Lindenstrauss distance-preservation audit: project the
    first n_vecs embeddings through a DETERMINISTIC ±1 sign matrix
    (sign = parity of the first hex digit of md5('jl:k:d')) and report,
    per vector pair, the squared distance in the original and projected
    spaces — both accumulated as micro-quantized integers
    (floor(term*1e6+0.5) per coordinate BEFORE summing) so the sums are
    order-free and the SQL twin hash-matches.  The audit a
    dimensionality-reduction rollout runs to verify the distortion
    bound empirically.

    Distributed plan: the sign matrix is a pure hash function (no
    broadcast state); projection happens inside map_batches; only the
    n_vecs sketch rows leave the tasks, and the pair table is an
    O(n_vecs^2) driver product."""
    import hashlib

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ds = ds.filter(expr=f"vec_id < {n_vecs}")

    def sign(k: int, d: int) -> int:
        h = hashlib.md5(f"jl:{k}:{d}".encode()).hexdigest()
        return 1 if int(h[0], 16) % 2 == 0 else -1

    def project(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        mat = embedding_matrix(t["embedding"]).astype(np.float64)
        dim = mat.shape[1]
        s = np.array([[sign(k, d) for d in range(dim)] for k in range(d_out)], np.float64)
        rows = {"vec_id": pa.array(ids.astype(np.int64))}
        # quantized projection coordinates: z_k = sum_d floor(s*x*1e6+0.5)
        zq = np.floor(mat[:, None, :] * s[None, :, :] * 1e6 + 0.5).astype(np.int64).sum(axis=2)
        for k in range(d_out):
            rows[f"z{k}"] = pa.array(zq[:, k])
        # original coords quantized too, for the exact distance table
        xq = np.floor(mat * 1e6 + 0.5).astype(np.int64)
        for d in range(dim):
            rows[f"x{d}"] = pa.array(xq[:, d])
        return pa.table(rows)

    sk = ds.map_batches(project, batch_format="pyarrow").to_pandas().sort_values("vec_id")
    ids = sk["vec_id"].to_numpy()
    zc = sk[[c for c in sk.columns if c.startswith("z")]].to_numpy()
    xc = sk[[c for c in sk.columns if c.startswith("x")]].to_numpy()
    out = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            d2o = int(((xc[i] - xc[j]) ** 2).sum())
            d2p = int(((zc[i] - zc[j]) ** 2).sum())
            out.append(
                {
                    "vec_a": int(ids[i]),
                    "vec_b": int(ids[j]),
                    "d2_orig_q": d2o,
                    "d2_proj_q": d2p,
                }
            )
    return pd.DataFrame(out).astype(
        {"vec_a": "int64", "vec_b": "int64", "d2_orig_q": "int64", "d2_proj_q": "int64"}
    )


def jl_projection_audit_sql(d_out: int = 16, n_vecs: int = 16) -> str:
    return f"""
        WITH dims AS (
            SELECT vec_id, d.d AS d,
                   CAST(embedding[d.d + 1] AS DOUBLE) AS x
            FROM embeddings
            CROSS JOIN (SELECT UNNEST(range(len(
                (SELECT embedding FROM embeddings LIMIT 1)))) AS d) d
            WHERE vec_id < {n_vecs}
        ),
        signs AS (
            SELECT k.k AS k, d.d AS d,
                   CASE WHEN CAST(('0x' || substr(md5('jl:' || k.k || ':' || d.d),
                                   1, 1)) AS UBIGINT) % 2 = 0
                        THEN 1.0 ELSE -1.0 END AS s
            FROM (SELECT UNNEST(range({d_out})) AS k) k
            CROSS JOIN (SELECT DISTINCT d FROM dims) d
        ),
        proj AS (
            SELECT dims.vec_id, signs.k,
                   CAST(SUM(CAST(FLOOR(dims.x * signs.s * 1e6 + 0.5) AS BIGINT))
                        AS BIGINT) AS z
            FROM dims JOIN signs USING (d)
            GROUP BY dims.vec_id, signs.k
        ),
        xq AS (
            SELECT vec_id, d, CAST(FLOOR(x * 1e6 + 0.5) AS BIGINT) AS xv
            FROM dims
        ),
        d2o AS (
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   CAST(SUM((a.xv - b.xv) * (a.xv - b.xv)) AS BIGINT) AS d2_orig_q
            FROM xq a JOIN xq b ON a.d = b.d AND a.vec_id < b.vec_id
            GROUP BY 1, 2
        ),
        d2p AS (
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   CAST(SUM((a.z - b.z) * (a.z - b.z)) AS BIGINT) AS d2_proj_q
            FROM proj a JOIN proj b ON a.k = b.k AND a.vec_id < b.vec_id
            GROUP BY 1, 2
        )
        SELECT vec_a, vec_b, d2_orig_q, d2_proj_q
        FROM d2o JOIN d2p USING (vec_a, vec_b)
        ORDER BY vec_a, vec_b
    """


def mips_topk(sf_dir: str, n_queries: int = 4, k: int = 10) -> pd.DataFrame:
    """Maximum-inner-product search (MIPS) top-k with EXACT integer
    arithmetic: embeddings quantize to int64 millionths on both sides,
    so the dot products (|64 dims x ~1e12 products| << 2^63) are exact
    and the ranking has no float-order ambiguity — unlike cosine ANN,
    MIPS is the retrieval mode of un-normalized recommender / reward
    models, where vector norm IS part of the score. Queries are the
    first `n_queries` vec_ids (pushed-down filter read, never a full
    driver scan); self-matches excluded; ties break on vec_id.

    Distributed plan: the [Q, D] quantized query matrix broadcasts via
    ray.put; each batch computes one int64 matmul and emits only its
    local top-k per query; the driver merges Q x k x blocks partials."""
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", list(range(n_queries)))],
    )
    qids = int_column(t["vec_id"])
    qmat = np.round(embedding_matrix(t["embedding"]).astype(np.float64) * 1_000_000
                    ).astype(np.int64)
    order = np.argsort(qids)
    qids, qmat = qids[order], qmat[order]
    qref = ray.put((qids, qmat))

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def local_topk(t: pa.Table) -> pa.Table:
        qids, qmat = ray.get(qref)
        ids = int_column(t["vec_id"])
        m = np.round(
            embedding_matrix(t["embedding"]).astype(np.float64) * 1_000_000
        ).astype(np.int64)
        scores = m @ qmat.T  # [batch, Q] exact int64
        out = {"query_id": [], "vec_id": [], "dot_q": []}
        for qi, qid in enumerate(qids):
            col = scores[:, qi]
            mask = ids != qid
            cand_ids, cand = ids[mask], col[mask]
            if len(cand) > k:
                part = np.argpartition(-cand, k)[: k]
                cand_ids, cand = cand_ids[part], cand[part]
            out["query_id"].extend([int(qid)] * len(cand))
            out["vec_id"].extend(cand_ids.tolist())
            out["dot_q"].extend(cand.tolist())
        return pa.table(
            {
                "query_id": pa.array(out["query_id"], pa.int64()),
                "vec_id": pa.array(out["vec_id"], pa.int64()),
                "dot_q": pa.array(out["dot_q"], pa.int64()),
            }
        )

    parts = ds.map_batches(local_topk, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values(
        ["query_id", "dot_q", "vec_id"], ascending=[True, False, True]
    )
    out = parts.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    out["rank"] = out.groupby("query_id").cumcount().astype("int64")
    for c in ("query_id", "vec_id", "dot_q"):
        out[c] = out[c].astype("int64")
    return out[["query_id", "rank", "vec_id", "dot_q"]]


def mips_topk_sql(n_queries: int = 4, k: int = 10) -> str:
    return f"""
        WITH q AS (
            SELECT vec_id AS query_id,
                   list_transform(embedding,
                       x -> CAST(ROUND(CAST(x AS DOUBLE) * 1000000)
                                 AS BIGINT)) AS qv
            FROM embeddings WHERE vec_id < {n_queries}
        ), v AS (
            SELECT vec_id,
                   list_transform(embedding,
                       x -> CAST(ROUND(CAST(x AS DOUBLE) * 1000000)
                                 AS BIGINT)) AS vv
            FROM embeddings
        ), dots AS (
            SELECT q.query_id, v.vec_id,
                   CAST(list_sum(
                       list_transform(list_zip(q.qv, v.vv),
                           p -> p[1] * p[2])) AS BIGINT) AS dot_q
            FROM q CROSS JOIN v
            WHERE v.vec_id <> q.query_id
        ), ranked AS (
            SELECT query_id, vec_id, dot_q,
                   ROW_NUMBER() OVER (
                       PARTITION BY query_id
                       ORDER BY dot_q DESC, vec_id) - 1 AS rank
            FROM dots
        )
        SELECT CAST(query_id AS BIGINT) AS query_id,
               CAST(rank AS BIGINT) AS rank,
               CAST(vec_id AS BIGINT) AS vec_id, dot_q
        FROM ranked WHERE rank < {k}
        ORDER BY query_id, rank
    """


def rbo_ranking_overlap(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Rank-biased overlap (Webber et al. 2010) between the cosine and
    MIPS top-k rankings for each query, with EXACT integer arithmetic:
    RBO@k = (1-p) * sum_{d=1..k} p^(d-1) * |A_d ∩ B_d| / d at p=9/10
    is scaled by S = 10^(k-1) * lcm(1..k) so every term is an integer —
    term_d = overlap@d * 9^(d-1) * 10^(k-d) * (lcm/d). Quantifies how
    much normalizing the vectors (cosine) changes retrieval vs raw
    inner product (MIPS) — rbo_scaled/S near (1-p)·sum(p^(d-1)) means
    the norm carries no signal; near 0 means ranking is norm-driven.

    Distributed plan: both rankings come from the existing broadcast
    top-k ops (one pass each); the RBO fold is driver arithmetic on
    2 x Q x k rows. No extra shuffle.

    Value-exact SQL twin (rbo_ranking_overlap_sql): a pair that first
    co-occurs at depth max(ra, rb) contributes its coefficient at every
    d >= max(ra, rb), so the prefix-intersection fold flattens to one
    join against a per-depth coefficient VALUES table."""
    import math

    from functools import reduce

    a = brute_force_topk(sf_dir, query_ids=tuple(range(4)), k=k)
    b = mips_topk(sf_dir, n_queries=4, k=k)
    lcm = reduce(math.lcm, range(1, k + 1))
    scale = (10 ** (k - 1)) * lcm
    rows = []
    for q in sorted(set(a["query_id"]) & set(b["query_id"])):
        la = a.loc[a["query_id"] == q].sort_values("rank")["vec_id"].tolist()
        lb = b.loc[b["query_id"] == q].sort_values("rank")["vec_id"].tolist()
        acc = 0
        for d in range(1, k + 1):
            ov = len(set(la[:d]) & set(lb[:d]))
            acc += ov * (9 ** (d - 1)) * (10 ** (k - d)) * (lcm // d)
        rows.append(
            {
                "query_id": int(q),
                "rbo_scaled": acc,  # == RBO@k / (1-p) * S, exact
                "scale": scale,
                "overlap_at_k": len(set(la) & set(lb)),
            }
        )
    return pd.DataFrame(rows).astype("int64")


def embedding_sign_lsh_pairs_sql(
    threshold: float = 0.45,
    n_planes: int = 16,
    n_bands: int = 4,
    scale: int = 1_000_000,
) -> str:
    """EXACT DuckDB twin of embedding_sign_lsh_pairs: the md5-derived
    +/-1 planes, integer sign signatures, band split, candidate join
    and the double-precision cosine verify are all recomputed in SQL
    (plane entry sign = low bit of digest byte i of
    md5('signlsh:p:blk'), read via substr of the hex string)."""
    bits = n_planes // n_bands
    return f"""
        WITH planes AS (
            SELECT p.p, blk.blk + i.i AS d,
                   CASE WHEN (CAST(('0x' || substr(
                           md5('signlsh:' || p.p || ':' || blk.blk),
                           2 * i.i + 1, 2)) AS INTEGER) & 1) = 1
                        THEN 1 ELSE -1 END AS s
            FROM range({n_planes}) p(p),
                 (SELECT 16 * b AS blk FROM range(4) t(b)) blk,
                 range(16) i(i)
        ),
        e AS (
            SELECT vec_id::BIGINT AS vec_id,
                   list_transform(embedding,
                       x -> CAST(ROUND(CAST(x AS DOUBLE) * {scale})
                                 AS BIGINT)) AS v
            FROM embeddings
        ),
        dots AS (
            SELECT e.vec_id, pl.p, SUM(e.v[pl.d + 1] * pl.s) AS dot
            FROM e, planes pl GROUP BY 1, 2
        ),
        sigs AS (
            SELECT vec_id,
                   SUM(CASE WHEN dot > 0 THEN 1 << p ELSE 0 END) AS sig
            FROM dots GROUP BY 1
        ),
        bands AS (
            SELECT vec_id,
                   b.b * {1 << bits} + ((sig >> (b.b * {bits})) & {(1 << bits) - 1})
                       AS bk
            FROM sigs, range({n_bands}) b(b)
        ),
        cands AS (
            SELECT DISTINCT a.vec_id AS vec_a, b2.vec_id AS vec_b
            FROM bands a JOIN bands b2
              ON a.bk = b2.bk AND a.vec_id < b2.vec_id
        )
        SELECT CAST(c.vec_a AS BIGINT) AS vec_a,
               CAST(c.vec_b AS BIGINT) AS vec_b
        FROM cands c
        JOIN embeddings ea ON ea.vec_id = c.vec_a
        JOIN embeddings eb ON eb.vec_id = c.vec_b
        WHERE list_cosine_similarity(
                  list_transform(ea.embedding, x -> CAST(x AS DOUBLE)),
                  list_transform(eb.embedding, x -> CAST(x AS DOUBLE)))
              >= {threshold}
        ORDER BY 1, 2
    """


def mmr_diverse_topk_sql(query_id: int = 0, k: int = 20, lam: float = 0.7) -> str:
    """EXACT DuckDB twin of mmr_diverse_topk: recursive CTE carrying
    the full selected set round-tagged (the recursive working table
    only exposes the previous iteration, so each round re-emits every
    prior pick at r+1 plus the new argmax). (1.0 - {lam}) is computed
    in SQL double arithmetic so it equals Python's 1.0-lam bit for bit
    (0.30000000000000004, not a 0.3 literal)."""
    return f"""
        WITH RECURSIVE e AS (
            SELECT vec_id::BIGINT AS vec_id,
                   list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
            FROM embeddings
        ),
        q AS (SELECT v FROM e WHERE vec_id = {query_id}),
        sel(r, rank, vec_id) AS (
            SELECT 1, 1, vec_id FROM (
                SELECT e.vec_id FROM e, q
                ORDER BY list_cosine_similarity(e.v, q.v) DESC, e.vec_id
                LIMIT 1)
            UNION ALL
            (
              WITH prev AS (SELECT * FROM sel),
              r AS (SELECT MAX(r) AS r FROM prev),
              pick AS (
                SELECT c.vec_id FROM e c CROSS JOIN q
                JOIN prev p ON true JOIN e s ON s.vec_id = p.vec_id
                WHERE c.vec_id NOT IN (SELECT vec_id FROM prev)
                GROUP BY c.vec_id, c.v, q.v
                ORDER BY {lam} * list_cosine_similarity(c.v, q.v)
                         - (1.0 - {lam})
                           * MAX(list_cosine_similarity(c.v, s.v)) DESC,
                         c.vec_id
                LIMIT 1
              )
              SELECT r.r + 1, x.rank, x.vec_id FROM r, (
                  SELECT rank, vec_id FROM prev
                  UNION ALL
                  SELECT r.r + 1, vec_id FROM pick, r
              ) x WHERE r.r < {k}
            )
        )
        SELECT CAST(rank AS BIGINT) AS rank, vec_id
        FROM sel WHERE r = {k} ORDER BY rank
    """


def rbo_ranking_overlap_sql(k: int = 10, n_queries: int = 4) -> str:
    """EXACT DuckDB twin of rbo_ranking_overlap: recompute both
    rankings with the already-proven ann_topk / mips_topk SQL shapes,
    then fold the prefix-intersection sum as one join — a pair first
    co-occurring at depth max(ra, rb) contributes coef(d) for every
    d >= that depth, where coef(d) = 9^(d-1) * 10^(k-d) * (lcm/d)."""
    import math

    from functools import reduce

    lcm = reduce(math.lcm, range(1, k + 1))
    scale = (10 ** (k - 1)) * lcm
    coefs = ", ".join(
        f"({d}, {9 ** (d - 1) * 10 ** (k - d) * (lcm // d)})" for d in range(1, k + 1)
    )
    return f"""
        WITH a AS (
            SELECT query_id, vec_id, rank FROM (
                SELECT q.query_id, e.vec_id,
                       row_number() OVER (
                           PARTITION BY q.query_id
                           ORDER BY list_cosine_similarity(e.embedding, q.qe)
                                    DESC, e.vec_id) AS rank
                FROM embeddings e CROSS JOIN (
                    SELECT vec_id AS query_id, embedding AS qe
                    FROM embeddings WHERE vec_id < {n_queries}) q
            ) WHERE rank <= {k}
        ), b AS ({mips_topk_sql(n_queries, k)}),
        coef(d, c) AS (VALUES {coefs}),
        hits AS (
            SELECT a.query_id, a.rank AS ra, b.rank + 1 AS rb
            FROM a JOIN b ON b.query_id = a.query_id AND b.vec_id = a.vec_id
        ), rbo AS (
            SELECT h.query_id, SUM(coef.c) AS s
            FROM hits h JOIN coef ON coef.d >= GREATEST(h.ra, h.rb)
            GROUP BY 1
        ), ovk AS (
            SELECT query_id, COUNT(*) AS n FROM hits GROUP BY 1
        )
        SELECT CAST(base.query_id AS BIGINT) AS query_id,
               CAST(COALESCE(rbo.s, 0) AS BIGINT) AS rbo_scaled,
               CAST({scale} AS BIGINT) AS scale,
               CAST(COALESCE(ovk.n, 0) AS BIGINT) AS overlap_at_k
        FROM (SELECT DISTINCT query_id FROM b) base
        LEFT JOIN rbo USING (query_id) LEFT JOIN ovk USING (query_id)
        ORDER BY query_id
    """


def _int8_codes(mat: np.ndarray) -> np.ndarray:
    """Symmetric per-vector int8 codes (same rule as
    relational.embedding_int8_quantize, float64 arithmetic so the SQL
    twin's DOUBLE math agrees bit-for-bit)."""
    x = mat.astype(np.float64)
    m = np.abs(x).max(axis=1)
    # zero-vector guard (ADVICE r3): x/0 would yield NaN -> undefined
    # int cast in numpy vs NULL in DuckDB; emit all-zero codes instead
    # (the SQL twins use the same max-abs=0 -> 0 rule)
    m[m == 0.0] = 1.0
    return np.floor(x * 127.0 / m[:, None] + 0.5).astype(np.int64)


def matryoshka_recall_curve(
    sf_dir: str, query_ids=(0, 1, 2, 3, 4), k: int = 10, dims=(8, 16, 32, 64)
) -> pd.DataFrame:
    """Matryoshka-style truncation audit: how much of the FULL-dim
    top-k survives when similarity is computed on only the first
    d dimensions (d in `dims`) — the measurement behind shipping
    truncated embeddings for cheap first-stage retrieval.  Scoring is
    the exact INTEGER dot product of symmetric int8 codes (quantized
    once over the full vector, the stored representation), so ordering
    has no float tie hazards and the DuckDB twin (list_transform
    lambda + array_slice + list_inner_product) is value-exact.

    Output: (query_id, dim, overlap_k) — overlap_k = |top-k at dim d
    ∩ top-k at full dim|, k x recall as an exact integer.

    Distributed plan: query codes via a pushed-down vec_id filter read,
    broadcast [Q, D] int64 once; per batch one [B, D] quantize + four
    sliced integer matmuls + local top-k; global merge is Q x |dims| x k
    rows on the driver."""
    query_ids = list(query_ids)
    dims = sorted(dims)
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", query_ids)],
    )
    ids = int_column(t["vec_id"])
    pos = {int(v): i for i, v in enumerate(ids)}
    qcodes = _int8_codes(embedding_matrix(t["embedding"]))[[pos[q] for q in query_ids]]
    ref = ray.put(qcodes)

    def prefix_topk(batch: pa.Table) -> pa.Table:
        q = ray.get(ref)  # [Q, D] int64, a zero-copy plasma read per batch
        vid = int_column(batch["vec_id"])
        c = _int8_codes(embedding_matrix(batch["embedding"]))
        out = {"qi": [], "dim": [], "vec_id": [], "dot": []}
        for d in dims:
            dots = c[:, :d] @ q[:, :d].T  # [B, Q] int64
            take = min(k, len(vid))
            for qi in range(dots.shape[1]):
                col = dots[:, qi]
                idx = np.lexsort((vid, -col))[:take]
                out["qi"].extend([qi] * take)
                out["dim"].extend([d] * take)
                out["vec_id"].extend(vid[idx].tolist())
                out["dot"].extend(col[idx].tolist())
        return pa.table(
            {
                "qi": pa.array(out["qi"], pa.int32()),
                "dim": pa.array(out["dim"], pa.int64()),
                "vec_id": pa.array(out["vec_id"], pa.int64()),
                "dot": pa.array(out["dot"], pa.int64()),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    partials = ds.map_batches(prefix_topk, batch_format="pyarrow", batch_size=4096).to_pandas()

    full_d = dims[-1]
    topsets: dict[tuple[int, int], list[int]] = {}
    for qi, qid in enumerate(query_ids):
        for d in dims:
            sub = partials[(partials["qi"] == qi) & (partials["dim"] == d)]
            best = heapq.nsmallest(k, zip(-sub["dot"], sub["vec_id"]))
            topsets[(qi, d)] = [int(v) for _, v in best]
    rows = []
    for qi, qid in enumerate(query_ids):
        full = set(topsets[(qi, full_d)])
        for d in dims:
            rows.append((qid, d, len(full.intersection(topsets[(qi, d)]))))
    out = pd.DataFrame(rows, columns=["query_id", "dim", "overlap_k"])
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values(["query_id", "dim"]).reset_index(drop=True)


def matryoshka_recall_curve_sql(
    query_ids=(0, 1, 2, 3, 4), k: int = 10, dims=(8, 16, 32, 64)
) -> str:
    qlist = ", ".join(str(q) for q in query_ids)
    dvals = ", ".join(f"({d})" for d in sorted(dims))
    full_d = max(dims)
    return f"""
        WITH codes AS (
            SELECT vec_id,
                   list_transform(embedding, x -> CAST(FLOOR(
                       CAST(x AS DOUBLE) * 127 /
                       CASE WHEN list_max(list_transform(embedding,
                                y -> abs(CAST(y AS DOUBLE)))) = 0 THEN 1.0
                            ELSE list_max(list_transform(embedding,
                                y -> abs(CAST(y AS DOUBLE)))) END
                       + 0.5) AS BIGINT)) AS c
            FROM embeddings
        ), q AS (
            SELECT vec_id AS qid, c AS qc FROM codes WHERE vec_id IN ({qlist})
        ), dims(dim) AS (VALUES {dvals}),
        scored AS (
            SELECT q.qid, d.dim, codes.vec_id,
                   CAST(list_inner_product(array_slice(codes.c, 1, d.dim),
                                           array_slice(q.qc, 1, d.dim))
                        AS BIGINT) AS dot
            FROM codes CROSS JOIN q CROSS JOIN dims d
        ), topk AS (
            SELECT qid, dim, vec_id FROM scored
            QUALIFY row_number() OVER (PARTITION BY qid, dim
                                       ORDER BY dot DESC, vec_id) <= {k}
        )
        SELECT t.qid AS query_id, CAST(t.dim AS BIGINT) AS dim,
               CAST(COUNT(f.vec_id) AS BIGINT) AS overlap_k
        FROM topk t LEFT JOIN
             (SELECT qid, vec_id FROM topk WHERE dim = {full_d}) f
             ON t.qid = f.qid AND t.vec_id = f.vec_id
        GROUP BY 1, 2 ORDER BY 1, 2
    """


def dbscan_embeddings(
    sf_dir: str,
    eps2: int = 1_350_000_000_000,
    min_pts: int = 4,
    scale: int = 1_000_000,
) -> pd.DataFrame:
    """DBSCAN over the embeddings table with EXACT integer geometry:
    vectors quantize to int64 (round(x * 1e6)) so squared distances,
    the eps ball test and core-point counts are exact — no float
    epsilon at the cluster boundary. Core = >= min_pts neighbors
    within eps (self included, the textbook convention); clusters =
    connected components of core points under the eps relation
    (cluster id = min core vec_id); border = non-core with a core
    neighbor, assigned the MIN cluster label among its core neighbors
    (order-free, so the SQL twin agrees); the rest is noise. Output:
    one row per cluster (cluster_id, n_core, n_border) plus a leading
    (-1, 0, n_noise) row.

    Distributed plan: the quantized [N, D] matrix broadcasts once
    (ray.put) — the documented EXACT-broadcast bound; past
    object-store size use the bucketed sibling `dbscan_embeddings_ivf`
    (within-bucket eps graph, no driver read); each batch computes one
    integer blocked matmul (dist2 = |a|^2 + |b|^2 - 2ab), emits its
    points' neighbor counts and its core-core / border-core edges —
    O(eps-ball edges), never the matrix; components fold driver-side
    over the bounded core-edge list (the dedup_clusters size-aware
    pattern). SQL twin: dbscan_embeddings_sql (pairwise integer
    distances + min-label recursion)."""
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).sort_by("vec_id")
    ids_all = int_column(t["vec_id"])
    mat = np.round(
        embedding_matrix(t["embedding"]).astype(np.float64) * scale
    ).astype(np.int64)
    ref = ray.put((ids_all, mat))

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def block(b: pa.Table) -> pa.Table:
        pool_ids, pool = ray.get(ref)
        vid = int_column(b["vec_id"])
        v = np.round(embedding_matrix(b["embedding"]).astype(np.float64) * scale).astype(
            np.int64
        )
        # exact integer dist^2 via the expansion (object dtype avoids
        # any intermediate overflow ambiguity; values fit int64 anyway)
        d2 = (
            (v * v).sum(axis=1)[:, None]
            + (pool * pool).sum(axis=1)[None, :]
            - 2 * (v @ pool.T)
        )
        within = d2 <= eps2
        ncnt = within.sum(axis=1)  # self included (d2=0 on diagonal)
        ii, jj = np.nonzero(within)
        keep = pool_ids[jj] != vid[ii]
        ea, eb = vid[ii[keep]], pool_ids[jj[keep]]
        # flat tagged rows: kind 0 = (point, neighbor count),
        # kind 1 = (edge endpoint a, endpoint b)
        return pa.table(
            {
                "kind": pa.array(
                    np.r_[np.zeros(len(vid), np.int64), np.ones(len(ea), np.int64)]
                ),
                "a": pa.array(np.r_[vid, ea].astype(np.int64)),
                "b": pa.array(np.r_[ncnt.astype(np.int64), eb].astype(np.int64)),
            }
        )

    parts = ds.map_batches(block, batch_format="pyarrow", batch_size=256).to_pandas()
    pts = parts[parts["kind"] == 0]
    edg = parts[parts["kind"] == 1]
    ncnt = dict(zip(pts["a"].astype(int), pts["b"].astype(int)))
    core = {v for v, c in ncnt.items() if c >= min_pts}
    ea = edg["a"].to_numpy(np.int64)
    eb = edg["b"].to_numpy(np.int64)

    # components over core-core edges (driver union-find, bounded)
    parent: dict = {v: v for v in core}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(ea, eb):
        a, b = int(a), int(b)
        if a in core and b in core and a < b:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    label = {}
    for v in core:
        r = find(v)
        label.setdefault(r, []).append(v)
    cluster_of = {}
    for r, members in label.items():
        cid = min(members)
        for v in members:
            cluster_of[v] = cid

    # border: non-core with a core neighbor -> min core-neighbor label
    border_of: dict = {}
    for a, b in zip(ea, eb):
        a, b = int(a), int(b)
        if a not in core and b in core:
            c = cluster_of[b]
            if a not in border_of or c < border_of[a]:
                border_of[a] = c

    rows = []
    clusters = sorted(set(cluster_of.values()))
    n_noise = len([v for v in ncnt if v not in core and v not in border_of])
    rows.append((-1, 0, n_noise))
    for cid in clusters:
        n_core = sum(1 for v, c in cluster_of.items() if c == cid)
        n_border = sum(1 for v, c in border_of.items() if c == cid)
        rows.append((cid, n_core, n_border))
    return pd.DataFrame(rows, columns=["cluster_id", "n_core", "n_border"]).astype(
        "int64"
    )


def dbscan_embeddings_sql(
    eps2: int = 1_350_000_000_000,
    min_pts: int = 4,
    scale: int = 1_000_000,
    rmax: int = 60,
) -> str:
    """EXACT DuckDB twin of dbscan_embeddings: pairwise integer
    squared distances, core counts (self included), min-label
    recursion over core-core eps edges (with a label-of-label pointer
    jump), min-core-neighbor border assignment, and the same
    (-1, 0, n_noise) leading row."""
    return f"""
        WITH RECURSIVE e AS (
            SELECT vec_id::BIGINT AS vec_id,
                   list_transform(embedding,
                       x -> CAST(ROUND(CAST(x AS DOUBLE) * {scale})
                                 AS BIGINT)) AS v
            FROM embeddings
        ),
        e2 AS (
            SELECT vec_id, v,
                   list_sum(list_transform(v, x -> x * x)) AS n2
            FROM e
        ),
        near AS (
            -- |a-b|^2 = |a|^2 + |b|^2 - 2ab; every intermediate is an
            -- integer below 2^53, so the double-typed inner product is
            -- exact and the BIGINT cast is lossless
            SELECT a.vec_id AS x, b.vec_id AS y
            FROM e2 a JOIN e2 b ON a.vec_id < b.vec_id
            WHERE a.n2 + b.n2
                  - 2 * CAST(list_inner_product(a.v, b.v) AS BIGINT)
                  <= {eps2}
        ),
        ncnt AS (
            SELECT e.vec_id,
                   1 + COALESCE((
                       SELECT COUNT(*) FROM near
                       WHERE near.x = e.vec_id OR near.y = e.vec_id), 0) AS c
            FROM e
        ),
        core AS (SELECT vec_id FROM ncnt WHERE c >= {min_pts}),
        cedge AS (
            SELECT n.x, n.y FROM near n
            JOIN core ca ON ca.vec_id = n.x
            JOIN core cb ON cb.vec_id = n.y
        ),
        lab(r, n, l) AS (
            SELECT 0, vec_id, vec_id FROM core
            UNION ALL
            (
              WITH prev AS (SELECT * FROM lab),
              rr AS (SELECT MAX(r) AS r FROM prev),
              cur AS (SELECT n, l FROM prev),
              adj AS (
                  SELECT c.x AS n, ly.l FROM cedge c JOIN cur ly ON ly.n = c.y
                  UNION ALL
                  SELECT c.y AS n, lx.l FROM cedge c JOIN cur lx ON lx.n = c.x
              ),
              hop AS (SELECT c1.n, c2.l FROM cur c1 JOIN cur c2 ON c2.n = c1.l),
              nxt AS (
                  SELECT cur.n,
                         LEAST(cur.l,
                               COALESCE((SELECT MIN(h.l) FROM hop h
                                         WHERE h.n = cur.n), cur.l),
                               COALESCE((SELECT MIN(a2.l) FROM adj a2
                                         WHERE a2.n = cur.n), cur.l)) AS l
                  FROM cur
              ),
              chg AS (SELECT EXISTS (
                  SELECT 1 FROM nxt JOIN cur USING (n)
                  WHERE nxt.l <> cur.l) AS s)
              SELECT rr.r + 1, nxt.n, nxt.l FROM nxt, rr, chg
              WHERE chg.s AND rr.r < {rmax}
            )
        ),
        fin AS (SELECT MAX(r) AS r FROM lab),
        flab AS (SELECT n, l FROM lab, fin WHERE lab.r = fin.r),
        border AS (
            SELECT p.n, MIN(f.l) AS l FROM (
                SELECT n.x AS n, n.y AS c FROM near n
                WHERE n.x NOT IN (SELECT vec_id FROM core)
                  AND n.y IN (SELECT vec_id FROM core)
                UNION ALL
                SELECT n.y AS n, n.x AS c FROM near n
                WHERE n.y NOT IN (SELECT vec_id FROM core)
                  AND n.x IN (SELECT vec_id FROM core)
            ) p JOIN flab f ON f.n = p.c
            GROUP BY 1
        ),
        summary AS (
            SELECT CAST(-1 AS BIGINT) AS cluster_id,
                   CAST(0 AS BIGINT) AS n_core,
                   CAST((SELECT COUNT(*) FROM e) - (SELECT COUNT(*) FROM core)
                        - (SELECT COUNT(*) FROM border) AS BIGINT) AS n_border
            UNION ALL
            SELECT CAST(f.l AS BIGINT),
                   CAST(COUNT(*) AS BIGINT),
                   CAST(COALESCE((SELECT COUNT(*) FROM border b
                                  WHERE b.l = f.l), 0) AS BIGINT)
            FROM flab f GROUP BY f.l
        )
        SELECT * FROM summary ORDER BY cluster_id
    """


def kcenter_coreset(sf_dir: str, k: int = 12, seed_id: int = 0) -> pd.DataFrame:
    """Gonzalez farthest-first k-center coreset: start from seed_id,
    repeatedly add the point FARTHEST from the current selected set —
    the classic 2-approximation for k-center and the standard
    geometric coreset / diversity-seed selection (complements MMR:
    max-min distance instead of relevance-redundancy). All geometry is
    the exact integer quantized dist^2 (ties: smaller vec_id), so the
    selection and the reported covering radius are bit-stable. Output
    per step: (rank, vec_id, radius2) where radius2 is the max over
    all points of dist^2 to the selected set BEFORE adding this point
    (the monotone non-increasing covering-radius curve).

    Distributed plan: per round the selected matrix broadcasts
    (<= k x D); each batch computes min-dist^2 to selected with one
    integer matmul and emits its LOCAL farthest champion; the driver
    reduces O(blocks) champions — MMR's exchange shape with argmax of
    min-dist instead. SQL twin: kcenter_coreset_sql (round-tagged
    recursive selected set, same as the MMR twin)."""
    seed = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "==", seed_id)],
    )
    seed_vec = np.round(
        embedding_matrix(seed["embedding"]).astype(np.float64) * 1_000_000
    ).astype(np.int64)[0]

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    sel_ids = [int(seed_id)]
    sel_vecs = [seed_vec]
    rows = [(1, int(seed_id), 0)]
    for rank in range(2, k + 1):
        state = ray.put(
            (np.asarray(sel_ids, dtype=np.int64), np.stack(sel_vecs))
        )

        def champion(t: pa.Table) -> pa.Table:
            sids, smat = ray.get(state)
            vid = int_column(t["vec_id"])
            v = np.round(
                embedding_matrix(t["embedding"]).astype(np.float64) * 1_000_000
            ).astype(np.int64)
            keep = ~np.isin(vid, sids)
            if not keep.any():
                return pa.table(
                    {
                        "vec_id": pa.array([], pa.int64()),
                        "mind": pa.array([], pa.int64()),
                        "vec": pa.array([], pa.list_(pa.int64())),
                    }
                )
            vid, v = vid[keep], v[keep]
            d = (
                (v * v).sum(axis=1)[:, None]
                + (smat * smat).sum(axis=1)[None, :]
                - 2 * (v @ smat.T)
            )
            mind = d.min(axis=1)
            best = np.lexsort((vid, -mind))[0]
            return pa.table(
                {
                    "vec_id": pa.array([int(vid[best])], pa.int64()),
                    "mind": pa.array([int(mind[best])], pa.int64()),
                    "vec": pa.array([v[best].tolist()], pa.list_(pa.int64())),
                }
            )

        champs = ds.map_batches(
            champion, batch_format="pyarrow", batch_size=4096
        ).to_pandas()
        if not len(champs):
            break
        champs = champs.sort_values(
            ["mind", "vec_id"], ascending=[False, True], kind="mergesort"
        )
        radius2 = int(champs["mind"].iloc[0])
        if radius2 == 0:
            break
        vid = int(champs["vec_id"].iloc[0])
        rows.append((rank, vid, radius2))
        sel_ids.append(vid)
        sel_vecs.append(np.asarray(champs["vec"].iloc[0], dtype=np.int64))
    return pd.DataFrame(rows, columns=["rank", "vec_id", "radius2"]).astype("int64")


def kcenter_coreset_sql(k: int = 12, seed_id: int = 0) -> str:
    """EXACT DuckDB twin of kcenter_coreset: the selected set rides
    round-tagged in a recursive CTE (the MMR twin's shape); each round
    picks argmax over points of MIN dist^2 to the selected rows
    (integer-exact via the |a|^2+|b|^2-2ab identity, every
    intermediate below 2^53), ties to the smaller vec_id."""
    return f"""
        WITH RECURSIVE e AS (
            SELECT vec_id::BIGINT AS vec_id,
                   list_transform(embedding,
                       x -> CAST(ROUND(CAST(x AS DOUBLE) * 1000000)
                                 AS BIGINT)) AS v
            FROM embeddings
        ),
        e2 AS (
            SELECT vec_id, v,
                   list_sum(list_transform(v, x -> x * x)) AS n2
            FROM e
        ),
        sel(r, rank, vec_id, radius2) AS (
            SELECT 1, 1, CAST({seed_id} AS BIGINT), CAST(0 AS BIGINT)
            UNION ALL
            (
              WITH prev AS (SELECT * FROM sel),
              rr AS (SELECT MAX(r) AS r FROM prev),
              pick AS (
                  SELECT c.vec_id,
                         MIN(c.n2 + s.n2
                             - 2 * CAST(list_inner_product(c.v, s.v)
                                        AS BIGINT)) AS mind
                  FROM e2 c JOIN prev p ON true
                  JOIN e2 s ON s.vec_id = p.vec_id
                  WHERE c.vec_id NOT IN (SELECT vec_id FROM prev)
                  GROUP BY c.vec_id
                  ORDER BY mind DESC, c.vec_id LIMIT 1
              )
              SELECT rr.r + 1, x.rank, x.vec_id, x.radius2 FROM rr, (
                  SELECT rank, vec_id, radius2 FROM prev
                  UNION ALL
                  SELECT rr2.r + 1, pk.vec_id, pk.mind
                  FROM pick pk, (SELECT MAX(r) AS r FROM prev) rr2
                  WHERE pk.mind > 0
              ) x
              WHERE rr.r < {k}
                AND EXISTS (SELECT 1 FROM pick WHERE mind > 0)
            )
        ),
        fin AS (SELECT MAX(r) AS r FROM sel)
        SELECT CAST(rank AS BIGINT) AS rank, vec_id,
               CAST(radius2 AS BIGINT) AS radius2
        FROM sel, fin WHERE sel.r = fin.r ORDER BY rank
    """


def facility_location_selection(
    sf_dir: str, k: int = 10, scale: int = 1_000_000
) -> pd.DataFrame:
    """Greedy facility-location (submodular) data selection: maximize
    f(S) = sum_v max_{s in S} sim(v, s) — the canonical coverage
    objective for representative-subset curation (each point is
    'served' by its most similar selected exemplar). Similarities are
    EXACT integers: clamped-at-zero dot products of 1e6-quantized
    vectors, so every marginal gain, tie (smaller vec_id) and the
    greedy (1-1/e) trajectory are bit-stable. Output per step:
    (rank, vec_id, marginal_gain); stops early when no positive gain
    remains.

    Distributed plan: per round the selected matrix (<= k x D) and the
    candidate pool broadcast once (the pool broadcast is the
    documented O(N x D) EXACT bound — past object-store size use the
    bucketed sibling `facility_location_selection_ivf`, whose
    candidates are bucket representatives chosen by a distributed
    pass); each batch computes max(0, sims - curmax) with two integer
    matmuls and emits its PARTIAL per-candidate gain sums; a
    candidate-keyed Sum folds the partials and the driver takes the
    argmax — O(blocks x N) rows per round, vectors never re-shuffle.
    SQL twin: facility_location_selection_sql (recursive
    curmax-from-selected)."""
    pool_t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).sort_by("vec_id")
    pool_ids = int_column(pool_t["vec_id"])
    pool = np.round(
        embedding_matrix(pool_t["embedding"]).astype(np.float64) * scale
    ).astype(np.int64)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return _greedy_facility_location(ds, pool_ids, pool, k, scale)


def _greedy_facility_location(ds, cand_ids, cand, k: int, scale: int) -> pd.DataFrame:
    """The greedy loop shared by both facility-location variants: pick
    up to k of the candidates `cand` (int64 rows keyed by `cand_ids`)
    by marginal gain summed over every vector of `ds`. Per round the
    candidates and the selected rows broadcast once; each batch emits
    its partial per-candidate gains sum(max(0, sims - curmax)), a
    candidate-keyed Sum folds them and the driver takes the argmax
    (ties: smaller id). Stops early when no positive gain remains."""
    from ray.data.aggregate import Sum as _Sum

    pref = ray.put((cand_ids, cand))
    sel_ids: list[int] = []
    sel_vecs: list[np.ndarray] = []
    rows = []
    for rank in range(1, k + 1):
        sref = ray.put(np.stack(sel_vecs) if sel_vecs else np.zeros((0, cand.shape[1]), np.int64))

        def partial_gains(t: pa.Table) -> pa.Table:
            cids, cpool = ray.get(pref)
            smat = ray.get(sref)
            v = np.round(
                embedding_matrix(t["embedding"]).astype(np.float64) * scale
            ).astype(np.int64)
            sims = np.maximum(v @ cpool.T, 0)  # [B, N]
            if len(smat):
                curmax = np.maximum(v @ smat.T, 0).max(axis=1)  # [B]
            else:
                curmax = np.zeros(len(v), dtype=np.int64)
            g = np.maximum(sims - curmax[:, None], 0).sum(axis=0)  # [N]
            return pa.table(
                {
                    "c": pa.array(cids, pa.int64()),
                    "g": pa.array(g.astype(np.int64), pa.int64()),
                }
            )

        gains = (
            ds.map_batches(partial_gains, batch_format="pyarrow", batch_size=4096)
            .groupby("c")
            .aggregate(_Sum("g", alias_name="gain"))
            .to_pandas()
        )
        gains = gains[~gains["c"].isin(sel_ids)]
        gains = gains.sort_values(["gain", "c"], ascending=[False, True], kind="mergesort")
        if not len(gains) or int(gains["gain"].iloc[0]) <= 0:
            break
        c = int(gains["c"].iloc[0])
        rows.append((rank, c, int(gains["gain"].iloc[0])))
        sel_ids.append(c)
        sel_vecs.append(cand[np.flatnonzero(cand_ids == c)[0]])
    return pd.DataFrame(rows, columns=["rank", "vec_id", "marginal_gain"]).astype(
        "int64"
    )


def facility_location_selection_sql(k: int = 10, scale: int = 1_000_000) -> str:
    """EXACT DuckDB twin of facility_location_selection: the full
    clamped integer similarity table materializes once; the recursion
    recomputes curmax from the round-tagged selected set and folds
    per-candidate marginal gains (greatest(s - curmax, 0)), ties to
    the smaller vec_id, stopping at k or zero gain."""
    return f"""
        WITH RECURSIVE e AS (
            SELECT vec_id::BIGINT AS vec_id,
                   list_transform(embedding,
                       x -> CAST(ROUND(CAST(x AS DOUBLE) * {scale})
                                 AS BIGINT)) AS v
            FROM embeddings
        ),
        sims AS (
            SELECT a.vec_id AS v, b.vec_id AS c,
                   GREATEST(CAST(list_inner_product(a.v, b.v) AS BIGINT), 0)
                       AS s
            FROM e a JOIN e b ON true
        ),
        first_pick AS (
            SELECT c, SUM(s) AS gain FROM sims GROUP BY 1
            ORDER BY gain DESC, c LIMIT 1
        ),
        sel(r, rank, vec_id, gain) AS (
            SELECT 1, 1, c, gain FROM first_pick
            UNION ALL
            (
              WITH prev AS (SELECT * FROM sel),
              rr AS (SELECT MAX(r) AS r FROM prev),
              curmax AS (
                  SELECT sims.v, MAX(sims.s) AS m
                  FROM sims JOIN prev p ON p.vec_id = sims.c
                  GROUP BY 1
              ),
              gains AS (
                  SELECT sims.c, SUM(GREATEST(sims.s - cm.m, 0)) AS gain
                  FROM sims JOIN curmax cm ON cm.v = sims.v
                  WHERE sims.c NOT IN (SELECT vec_id FROM prev)
                  GROUP BY 1
              ),
              best AS (
                  SELECT c, gain FROM gains WHERE gain > 0
                  ORDER BY gain DESC, c LIMIT 1
              )
              SELECT rr.r + 1, x.rank, x.vec_id, x.gain FROM rr, (
                  SELECT rank, vec_id, gain FROM prev
                  UNION ALL
                  SELECT rr2.r + 1, b.c, b.gain
                  FROM best b, (SELECT MAX(r) AS r FROM prev) rr2
              ) x WHERE rr.r < {k} AND EXISTS (SELECT 1 FROM best)
            )
        ),
        fin AS (SELECT MAX(r) AS r FROM sel)
        SELECT CAST(rank AS BIGINT) AS rank,
               CAST(vec_id AS BIGINT) AS vec_id,
               CAST(gain AS BIGINT) AS marginal_gain
        FROM sel, fin WHERE sel.r = fin.r ORDER BY rank
    """


# ---------------------------------------------------------------------------
# IVF-bucketed scale siblings for the broadcast-pool embedding audits.
#
# The exact variants above (mutual_knn_degree, dbscan_embeddings,
# facility_location_selection, embedding_pair_distance_histogram,
# triplet_margin_violations) broadcast the full [N, D] pool — the
# documented exact-broadcast bound. Past object-store size the scale
# path is the embedding_dedup_ivf template: assign every vector to its
# nearest deterministic centroid (centroids from a STREAMING limit
# read, never a driver table scan) and run the audit WITHIN buckets via
# groupby(bucket).map_groups — the shuffle moves (vec_id, embedding,
# bucket) rows once, never an N x N block, and no driver read of the
# embeddings table happens at any size. Approximate by construction
# (cross-bucket structure is missed); with n_centroids=1 each sibling
# degenerates to its exact variant bit-for-bit, which is how the
# *_ivf_exact queries carry the exact SQL oracles end-to-end through
# the bucketed machinery.
# ---------------------------------------------------------------------------


def _assigned_embeddings(sf_dir: str, n_centroids: int, columns: list[str]):
    """Dataset of `columns` + a `bucket` column (nearest deterministic
    centroid; centroids via the streaming-limit centroid_matrix)."""
    centroids = centroid_matrix(sf_dir, n_centroids)
    cref = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        v = _normalize(embedding_matrix(batch["embedding"]))
        bucket = (v @ c.T).argmax(axis=1).astype(np.int32)
        return batch.append_column("bucket", pa.array(bucket, pa.int32()))

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=columns)
    return ds.map_batches(assign, batch_format="pyarrow")


def _quantized_group(g: pd.DataFrame, scale: int):
    """(sorted ids, quantized int64 matrix) for one bucket group —
    sorted by vec_id so tie-breaks match the exact variants."""
    g = g.sort_values("vec_id")
    ids = g["vec_id"].to_numpy(np.int64)
    mat = np.round(
        np.asarray(list(g["embedding"]), dtype=np.float64) * scale
    ).astype(np.int64)
    return ids, mat


def mutual_knn_degree_ivf(
    sf_dir: str, k: int = 5, n_centroids: int = 16, scale: int = 1_000_000
) -> pd.DataFrame:
    """IVF-bucketed mutual-kNN degree histogram — the scale sibling of
    mutual_knn_degree: neighbours are searched WITHIN each vector's IVF
    bucket only (same exact int64 dots, same dot-DESC/id-ASC tie rule),
    so mutuality is decidable group-locally and the exchange carries a
    histogram per bucket, never edges across the cluster. Cross-bucket
    mutual edges are missed (near-identical vectors co-bucket, so true
    near-dup structure survives); n_centroids=1 reproduces the exact
    histogram bit-for-bit (pinned in tests and by the
    mutual_knn_degree_ivf_exact driver query)."""

    def group_hist(g: pd.DataFrame) -> pd.DataFrame:
        ids, mat = _quantized_group(g, scale)
        m = len(ids)
        if m == 1:
            return pd.DataFrame({"degree": [0], "n_vectors": [1]})
        dots = mat @ mat.T
        np.fill_diagonal(dots, np.iinfo(np.int64).min + 1)
        kk = min(k, m - 1)
        order = np.argsort(-dots, axis=1, kind="stable")[:, :kk]
        src = np.repeat(np.arange(m), kk)
        dst = order.ravel()
        a = np.minimum(src, dst)
        b = np.maximum(src, dst)
        pk = a * np.int64(m) + b
        u, c = np.unique(pk, return_counts=True)
        mut = u[c == 2]
        deg = np.zeros(m, dtype=np.int64)
        np.add.at(deg, (mut // m).astype(np.int64), 1)
        np.add.at(deg, (mut % m).astype(np.int64), 1)
        du, dc = np.unique(deg, return_counts=True)
        return pd.DataFrame(
            {"degree": du.astype("int64"), "n_vectors": dc.astype("int64")}
        )

    from ray.data.aggregate import Sum

    out = (
        _assigned_embeddings(sf_dir, n_centroids, ["vec_id", "embedding"])
        .groupby("bucket")
        .map_groups(group_hist, batch_format="pandas")
        .groupby("degree")
        .aggregate(Sum("n_vectors", alias_name="n_vectors"))
        .to_pandas()
    )
    return (
        out.astype("int64").sort_values("degree").reset_index(drop=True)
    )


def embedding_pair_distance_histogram_ivf(
    sf_dir: str,
    n_centroids: int = 16,
    scale: int = 1_000_000,
    width: int = 100_000_000_000,
    offset: int = 20_000_000_000_000,
) -> pd.DataFrame:
    """IVF-bucketed pair-dot histogram — the scale sibling of
    embedding_pair_distance_histogram: only WITHIN-bucket unordered
    pairs are counted (the high-similarity mass a threshold choice
    cares about co-buckets; the cross-bucket tail is dropped), so the
    per-group work is |bucket|^2 and the exchange histogram-sized.
    n_centroids=1 reproduces the exact histogram bit-for-bit."""

    def group_hist(g: pd.DataFrame) -> pd.DataFrame:
        ids, mat = _quantized_group(g, scale)
        m = len(ids)
        if m < 2:
            return pd.DataFrame(
                {"bucket_h": pd.Series([], dtype="int64"),
                 "n": pd.Series([], dtype="int64")}
            )
        dots = mat @ mat.T
        iu = np.triu_indices(m, k=1)
        b = (dots[iu] + offset) // width
        if (b < 0).any():
            raise ValueError("dot below the histogram offset")
        u, c = np.unique(b, return_counts=True)
        return pd.DataFrame(
            {"bucket_h": u.astype("int64"), "n": c.astype("int64")}
        )

    from ray.data.aggregate import Sum

    out = (
        _assigned_embeddings(sf_dir, n_centroids, ["vec_id", "embedding"])
        .groupby("bucket")
        .map_groups(group_hist, batch_format="pandas")
        .groupby("bucket_h")
        .aggregate(Sum("n", alias_name="n_pairs"))
        .to_pandas()
    )
    if "bucket_h" not in out.columns or not len(out):
        return pd.DataFrame(
            {"bucket": pd.Series([], dtype="int64"),
             "n_pairs": pd.Series([], dtype="int64")}
        )
    out = out.rename(columns={"bucket_h": "bucket"}).astype("int64")
    return out.sort_values("bucket").reset_index(drop=True)


def triplet_margin_violations_ivf(
    sf_dir: str, n_centroids: int = 16, scale: int = 1_000_000
) -> pd.DataFrame:
    """IVF-bucketed triplet-margin audit — the scale sibling of
    triplet_margin_violations: each anchor's best same-label and best
    other-label neighbours are searched WITHIN its IVF bucket (exact
    int64 dots; anchors missing either side in their bucket count as
    non-violations, the exact variant's NULL rule), so the per-label
    fold is a partial-sum exchange and vectors never re-shuffle.
    n_centroids=1 reproduces the exact audit bit-for-bit."""

    def group_counts(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id")
        labels = g["label"].to_numpy(np.int64)
        mat = np.round(
            np.asarray(list(g["embedding"]), dtype=np.float64) * scale
        ).astype(np.int64)
        m = len(labels)
        dots = mat @ mat.T
        NEG = np.int64(-(1 << 62))
        np.fill_diagonal(dots, NEG)
        same = labels[:, None] == labels[None, :]
        np.fill_diagonal(same, False)
        other = labels[:, None] != labels[None, :]
        bp = np.where(same, dots, NEG).max(axis=1) if m else np.empty(0, np.int64)
        bn = np.where(other, dots, NEG).max(axis=1) if m else np.empty(0, np.int64)
        viol = ((bn >= bp) & (bp > NEG) & (bn > NEG)).astype(np.int64)
        out = pd.DataFrame({"label": labels, "viol": viol})
        agg = out.groupby("label", sort=True).agg(
            n_anchors=("viol", "size"), n_violations=("viol", "sum")
        ).reset_index()
        return agg.astype("int64")

    from ray.data.aggregate import Sum

    out = (
        _assigned_embeddings(sf_dir, n_centroids, ["vec_id", "embedding", "label"])
        .groupby("bucket")
        .map_groups(group_counts, batch_format="pandas")
        .groupby("label")
        .aggregate(
            Sum("n_anchors", alias_name="n_anchors"),
            Sum("n_violations", alias_name="n_violations"),
        )
        .to_pandas()
    )
    return out.astype("int64").sort_values("label").reset_index(drop=True)


def dbscan_embeddings_ivf(
    sf_dir: str,
    eps2: int = 1_350_000_000_000,
    min_pts: int = 4,
    n_centroids: int = 16,
    scale: int = 1_000_000,
) -> pd.DataFrame:
    """IVF-bucketed DBSCAN — the scale sibling of dbscan_embeddings:
    the eps-graph is built WITHIN each IVF bucket (exact integer
    geometry, same core/border/noise rules, cluster id = min core
    vec_id — globally unique because buckets partition the id space),
    so each group's work is |bucket|^2 and only (cluster_id, n_core,
    n_border) rows plus a noise partial leave the task. Cross-bucket
    eps edges are missed (dense regions co-bucket, so real clusters
    survive; boundary points may demote to noise). n_centroids=1
    reproduces the exact clustering bit-for-bit."""

    def group_dbscan(g: pd.DataFrame) -> pd.DataFrame:
        ids, mat = _quantized_group(g, scale)
        m = len(ids)
        n2 = (mat * mat).sum(axis=1)
        d2 = n2[:, None] + n2[None, :] - 2 * (mat @ mat.T)
        within = d2 <= eps2
        ncnt = within.sum(axis=1)  # self included
        core_mask = ncnt >= min_pts
        core_idx = np.flatnonzero(core_mask)
        parent = np.arange(m)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ii, jj = np.nonzero(within)
        for a, b in zip(ii, jj):
            if a < b and core_mask[a] and core_mask[b]:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        cluster_of = {}
        for comp in core_idx:
            cluster_of.setdefault(find(comp), []).append(comp)
        label_of = {}
        for root, members in cluster_of.items():
            cid = int(ids[min(members)])
            for v in members:
                label_of[v] = cid
        border_of: dict = {}
        for a, b in zip(ii, jj):
            if not core_mask[a] and core_mask[b]:
                c = label_of[b]
                if a not in border_of or c < border_of[a]:
                    border_of[a] = c
        rows = []
        n_noise = int(
            sum(1 for v in range(m) if not core_mask[v] and v not in border_of)
        )
        rows.append((-1, 0, n_noise))
        for cid in sorted({c for c in label_of.values()}):
            n_core = sum(1 for v, c in label_of.items() if c == cid)
            n_border = sum(1 for v, c in border_of.items() if c == cid)
            rows.append((cid, n_core, n_border))
        return pd.DataFrame(
            rows, columns=["cluster_id", "n_core", "n_border"]
        ).astype("int64")

    parts = (
        _assigned_embeddings(sf_dir, n_centroids, ["vec_id", "embedding"])
        .groupby("bucket")
        .map_groups(group_dbscan, batch_format="pandas")
        .to_pandas()
        .astype("int64")
    )
    noise = int(parts.loc[parts["cluster_id"] == -1, "n_border"].sum())
    clusters = parts[parts["cluster_id"] >= 0].sort_values("cluster_id")
    out = pd.concat(
        [
            pd.DataFrame({"cluster_id": [-1], "n_core": [0], "n_border": [noise]}),
            clusters,
        ],
        ignore_index=True,
    )
    return out.astype("int64").reset_index(drop=True)


def facility_location_selection_ivf(
    sf_dir: str,
    k: int = 10,
    n_centroids: int = 16,
    scale: int = 1_000_000,
    all_candidates: bool = False,
) -> pd.DataFrame:
    """IVF-bucketed greedy facility location — the scale sibling of
    facility_location_selection: the candidate set shrinks from every
    vector to one REPRESENTATIVE per IVF bucket (the bucket's min
    vec_id member, chosen by a distributed map_groups pass — no driver
    read of the embeddings table), while marginal gains still
    accumulate EXACTLY over the full streaming dataset. The greedy
    trajectory is the exact algorithm restricted to the representative
    candidate set (pinned by a serial recompute over the same set);
    with all_candidates=True every vector is its own representative
    and the run reproduces the exact variant bit-for-bit through the
    same machinery (the facility_location_selection_ivf_exact driver
    query)."""
    assigned = _assigned_embeddings(
        sf_dir, n_centroids, ["vec_id", "embedding"]
    ).materialize()

    if all_candidates:
        def reps_of(g: pd.DataFrame) -> pd.DataFrame:
            return g[["vec_id", "embedding"]]
    else:
        def reps_of(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values("vec_id")
            return g.iloc[:1][["vec_id", "embedding"]]

    reps = (
        assigned.groupby("bucket")
        .map_groups(reps_of, batch_format="pandas")
        .to_pandas()
        .sort_values("vec_id")
    )
    cand_ids = reps["vec_id"].to_numpy(np.int64)
    cand = np.round(
        np.asarray(list(reps["embedding"]), dtype=np.float64) * scale
    ).astype(np.int64)
    return _greedy_facility_location(assigned, cand_ids, cand, k, scale)


def _list_matrix(col: "pa.ChunkedArray | pa.Array") -> "np.ndarray":
    """Zero-copy [n, D] int64 matrix from a fixed-length list<int64>
    column (flatten instead of per-row to_pylist stacking)."""
    import numpy as np

    if hasattr(col, "combine_chunks"):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    n = len(col)
    return flat.reshape(n, len(flat) // n)


def _kmeans_fp_centroids(sf_dir: str, k: int, iters: int, scale: int):
    """Shared core of the fixed-point k-means family: quantized vector
    Dataset + converged int64 centroid matrix (see kmeans_fixedpoint
    for the exact arithmetic contract)."""
    import numpy as np

    import ray
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def quant(t: pa.Table) -> pa.Table:
        m = np.stack(
            [np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()]
        )
        q = np.floor(m * float(scale) + 0.5).astype(np.int64) + 2 * scale
        return pa.table(
            {
                "vec_id": pa.array(
                    t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64(),
                ),
                "q": pa.array(list(q), pa.list_(pa.int64())),
            }
        )

    qds = ds.map_batches(quant, batch_format="pyarrow")
    # init: the k smallest vec_ids (pushed-down limit, not a full scan)
    seed = (
        qds.sort("vec_id").limit(k).to_pandas()
    )
    cents = np.stack([np.asarray(v, dtype=np.int64) for v in seed["q"]])
    d_dim = cents.shape[1]

    for _ in range(iters):
        cref = ray.put(cents)

        def partials(t: pa.Table, *, cref=cref) -> pa.Table:
            c = ray.get(cref)
            qm = _list_matrix(t["q"])
            # [n, k] squared distances; int64 safe: (2*scale)^2 * D ~ 2.7e8
            d2 = ((qm[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            lab = np.argmin(d2, axis=1)  # first min = smallest bucket
            buckets, dims, sums = [], [], []
            for j in np.unique(lab):
                s = qm[lab == j].sum(axis=0)
                buckets.extend([int(j)] * d_dim)
                dims.extend(range(d_dim))
                sums.extend(s.tolist())
                buckets.append(int(j))
                dims.append(-1)  # count sentinel
                sums.append(int((lab == j).sum()))
            return pa.table(
                {
                    "bucket": pa.array(buckets, pa.int64()),
                    "dim": pa.array(dims, pa.int64()),
                    "s": pa.array(sums, pa.int64()),
                }
            )

        red = (
            qds.map_batches(partials, batch_format="pyarrow")
            .groupby(["bucket", "dim"])
            .aggregate(Sum("s", alias_name="s"))
            .to_pandas()
        )
        new_c = cents.copy()
        counts = {
            int(r.bucket): int(r.s) for r in red[red["dim"] == -1].itertuples()
        }
        for j, n_j in counts.items():
            if n_j > 0:
                rows = red[(red["bucket"] == j) & (red["dim"] >= 0)].sort_values("dim")
                new_c[j] = rows["s"].to_numpy() // n_j
        cents = new_c

    return qds, cents


def kmeans_fixedpoint(
    sf_dir: str, k: int = 10, iters: int = 5, scale: int = 1024
) -> pd.DataFrame:
    """FIXED-POINT Lloyd k-means over the embeddings table — see
    _kmeans_fp_centroids for the exact integer recipe (quantize with
    +2*scale shift so DuckDB's truncating // and numpy's floor //
    agree; integer argmin with smallest-bucket ties; elementwise
    floor-div centroid updates; empty-cluster carry; init from the k
    smallest vec_ids). Every quantity after quantization is an
    integer, so the recursive-CTE twin replays the rounds
    bit-for-bit. Output: (bucket, n_members, inertia_q) with
    inertia_q the exact final int64 within-cluster squared-distance
    sum. Same O(batches x k x D) exchange as kmeans_embeddings; the
    float variant stays justifiably rows-only."""
    import numpy as np

    import ray
    from ray.data.aggregate import Sum

    qds, cents = _kmeans_fp_centroids(sf_dir, k, iters, scale)

    # final assignment + inertia
    cref = ray.put(cents)

    def final_partial(t: pa.Table, *, cref=cref) -> pa.Table:
        c = ray.get(cref)
        qm = _list_matrix(t["q"])
        d2 = ((qm[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        lab = np.argmin(d2, axis=1)
        best = d2[np.arange(len(lab)), lab]
        buckets, ns, inert = [], [], []
        for j in np.unique(lab):
            m = lab == j
            buckets.append(int(j))
            ns.append(int(m.sum()))
            inert.append(int(best[m].sum()))
        return pa.table(
            {
                "bucket": pa.array(buckets, pa.int64()),
                "n_members": pa.array(ns, pa.int64()),
                "inertia_q": pa.array(inert, pa.int64()),
            }
        )

    out = (
        qds.map_batches(final_partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(
            Sum("n_members", alias_name="n_members"),
            Sum("inertia_q", alias_name="inertia_q"),
        )
        .to_pandas()
        .sort_values("bucket")
        .reset_index(drop=True)
    )
    for c_ in out.columns:
        out[c_] = out[c_].astype("int64")
    return out


def _kmeans_fp_cte(k: int, iters: int, scale: int) -> str:
    """Shared CTE prefix (through the final label table labf) for the
    fixed-point k-means twin and the SemDeDup sibling built on it."""
    return f"""
WITH RECURSIVE q AS MATERIALIZED (
    SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS dim,
           CAST(FLOOR(CAST(UNNEST(embedding) AS DOUBLE) * {scale}.0 + 0.5)
                AS BIGINT) + {2 * scale} AS qv
    FROM embeddings
),
seed AS (
    SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS bucket
    FROM (SELECT DISTINCT vec_id FROM q ORDER BY vec_id LIMIT {k})
),
cent(r, bucket, dim, val) AS (
    SELECT 0, s.bucket, q.dim, q.qv
    FROM seed s JOIN q ON q.vec_id = s.vec_id
    UNION ALL
    (
      WITH prev AS (SELECT * FROM cent),
      rr AS (SELECT MAX(r) AS r FROM prev),
      d2 AS (
          SELECT q.vec_id, p.bucket,
                 SUM((q.qv - p.val) * (q.qv - p.val)) AS d2
          FROM q JOIN prev p ON q.dim = p.dim
          GROUP BY q.vec_id, p.bucket
      ),
      lab AS (
          SELECT vec_id, bucket FROM (
              SELECT vec_id, bucket,
                     row_number() OVER (PARTITION BY vec_id
                                        ORDER BY d2, bucket) AS rn
              FROM d2
          ) WHERE rn = 1
      ),
      sums AS (
          SELECT l.bucket, q.dim,
                 SUM(q.qv) AS s, COUNT(DISTINCT l.vec_id) AS n
          FROM lab l JOIN q ON q.vec_id = l.vec_id
          GROUP BY 1, 2
      )
      SELECT rr.r + 1, p.bucket, p.dim,
             CAST(COALESCE(sums.s // sums.n, p.val) AS BIGINT)
      FROM prev p
      LEFT JOIN sums ON sums.bucket = p.bucket AND sums.dim = p.dim, rr
      WHERE rr.r < {iters}
    )
),
final_c AS (
    SELECT bucket, dim, val FROM cent
    WHERE r = (SELECT MAX(r) FROM cent)
),
d2f AS (
    SELECT q.vec_id, c.bucket,
           SUM((q.qv - c.val) * (q.qv - c.val)) AS d2
    FROM q JOIN final_c c ON q.dim = c.dim
    GROUP BY q.vec_id, c.bucket
),
labf AS (
    SELECT vec_id, bucket, d2 FROM (
        SELECT vec_id, bucket, d2,
               row_number() OVER (PARTITION BY vec_id
                                  ORDER BY d2, bucket) AS rn
        FROM d2f
    ) WHERE rn = 1
)"""


def kmeans_fixedpoint_sql(k: int = 10, iters: int = 5, scale: int = 1024) -> str:
    """Exact twin: the identical quantization, argmin (ties to the
    smallest bucket via ORDER BY d2, bucket), elementwise floor-div
    centroid update and empty-cluster carry, replayed as a recursive
    CTE with one round per iteration."""
    return (
        _kmeans_fp_cte(k, iters, scale)
        + """
SELECT bucket,
       CAST(COUNT(*) AS BIGINT) AS n_members,
       CAST(SUM(d2) AS BIGINT) AS inertia_q
FROM labf GROUP BY 1 ORDER BY 1
    """
    )


def pca_power_fixedpoint(
    sf_dir: str, iters: int = 100, scale: int = 1024, vscale: int = 1 << 20
) -> pd.DataFrame:
    """FIXED-POINT power iteration for the dominant principal axis of
    the (uncentered) second-moment matrix — the integer sibling that
    gives the PCA family an exact SQL oracle (embedding_pca_topk's
    float power iteration is justifiably rows-only).

    Exact integer recipe:

      quantize: q_d = floor(float64(x_d) * scale + 0.5) (no shift —
        all divisions below TRUNCATE toward zero, DuckDB's native
        integer `//`, mirrored in numpy as sign(a) * (|a| // d));
      moment: A = sum over vectors of q q^T — a D x D int64 matrix
        folded from per-batch partial products (the corpus-sized
        work; the exchange carries D^2 counters per batch);
      iterate: v <- trunc_div(A v, max(1, max|A v| // vscale)) for
        `iters` rounds from v0 = all-ones — renormalizing by a scalar
        divisor keeps every component within ~vscale so all products
        stay in int64; default 100 rounds because the fixture's
        spectrum is tight (lambda2/lambda1 ~ 0.93 -> ~100 rounds for
        1e-3 directional error, pinned by the eigh-agreement pytest);
      report: sign-canonicalized v (first nonzero component positive)
        plus the Rayleigh quotient lam_q = (v^T A v * 1e6) // (v^T v)
        micro-scaled (python bigints / SQL HUGEINT internally, final
        value fits int64).

    Output: (dim, component) for dim 0..D-1 and one (dim=-1, lam_q)
    row; bit-identical to the recursive-CTE twin."""
    import numpy as np

    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])

    def cov_partial(t: pa.Table) -> pa.Table:
        m = np.stack(
            [np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()]
        )
        q = np.floor(m * float(scale) + 0.5).astype(np.int64)
        a = q.T @ q  # [D, D]
        d = a.shape[0]
        ii, jj = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        return pa.table(
            {
                "i": pa.array(ii.ravel(), pa.int64()),
                "j": pa.array(jj.ravel(), pa.int64()),
                "s": pa.array(a.ravel(), pa.int64()),
            }
        )

    cov = (
        ds.map_batches(cov_partial, batch_format="pyarrow")
        .groupby(["i", "j"])
        .aggregate(Sum("s", alias_name="s"))
        .to_pandas()
    )
    d_dim = int(cov["i"].max()) + 1
    a = np.zeros((d_dim, d_dim), dtype=np.int64)
    a[cov["i"].to_numpy(), cov["j"].to_numpy()] = cov["s"].to_numpy()

    def trunc_div(x: np.ndarray, d: int) -> np.ndarray:
        return np.sign(x) * (np.abs(x) // d)

    v = np.ones(d_dim, dtype=np.int64)
    for _ in range(iters):
        w = a @ v
        m = int(np.abs(w).max())
        div = max(1, m // vscale)
        v = trunc_div(w, div)

    # sign canonicalization: first nonzero component positive
    nz = np.flatnonzero(v)
    if len(nz) and v[nz[0]] < 0:
        v = -v
    # Rayleigh quotient in arbitrary-precision ints
    vl = [int(x) for x in v]
    av = [sum(int(a[i, j]) * vl[j] for j in range(d_dim)) for i in range(d_dim)]
    num = sum(vl[i] * av[i] for i in range(d_dim)) * 1_000_000
    den = sum(x * x for x in vl)
    lam_q = num // den if den else 0
    out = pd.DataFrame(
        {
            "dim": list(range(d_dim)) + [-1],
            "component": vl + [int(lam_q)],
        }
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("dim").reset_index(drop=True)


def pca_power_fixedpoint_sql(
    iters: int = 100, scale: int = 1024, vscale: int = 1 << 20
) -> str:
    """Exact twin: same quantization, integer second-moment matrix,
    truncating renormalized power rounds as a recursive CTE, sign
    canonicalization and HUGEINT Rayleigh quotient."""
    return f"""
WITH RECURSIVE q AS MATERIALIZED (
    SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS dim,
           CAST(FLOOR(CAST(UNNEST(embedding) AS DOUBLE) * {scale}.0 + 0.5)
                AS BIGINT) AS qv
    FROM embeddings
),
cov AS MATERIALIZED (
    SELECT a.dim AS i, b.dim AS j, CAST(SUM(a.qv * b.qv) AS BIGINT) AS s
    FROM q a JOIN q b ON a.vec_id = b.vec_id
    GROUP BY 1, 2
),
vstate(r, dim, val) AS (
    SELECT 0, i, CAST(1 AS BIGINT) FROM (SELECT DISTINCT i FROM cov)
    UNION ALL
    (
      WITH prev AS (SELECT * FROM vstate),
      rr AS (SELECT MAX(r) AS r FROM prev),
      w AS (
          SELECT cov.i AS dim, CAST(SUM(cov.s * p.val) AS BIGINT) AS wv
          FROM cov JOIN prev p ON cov.j = p.dim
          GROUP BY 1
      ),
      nrm AS (SELECT GREATEST(1, MAX(ABS(wv)) // {vscale}) AS d FROM w)
      SELECT rr.r + 1, w.dim, CAST(w.wv // nrm.d AS BIGINT)
      FROM w, nrm, rr WHERE rr.r < {iters}
    )
),
vf AS (
    SELECT dim, val FROM vstate WHERE r = (SELECT MAX(r) FROM vstate)
),
sgn AS (
    SELECT CASE WHEN (
        SELECT val FROM vf WHERE val <> 0 ORDER BY dim LIMIT 1
    ) < 0 THEN -1 ELSE 1 END AS s
),
v AS (SELECT vf.dim, CAST(vf.val * sgn.s AS BIGINT) AS val FROM vf, sgn),
av AS (
    SELECT cov.i AS dim, SUM(CAST(cov.s AS HUGEINT) * v.val) AS avv
    FROM cov JOIN v ON cov.j = v.dim
    GROUP BY 1
),
ray_q AS (
    SELECT CAST(
        (SELECT SUM(CAST(v.val AS HUGEINT) * av.avv)
         FROM v JOIN av ON v.dim = av.dim) * 1000000
        // (SELECT SUM(CAST(val AS HUGEINT) * val) FROM v)
        AS BIGINT) AS lam_q
)
SELECT dim, val AS component FROM v
UNION ALL
SELECT -1, lam_q FROM ray_q
ORDER BY dim
    """


def semantic_dedup_fixedpoint(
    sf_dir: str,
    k: int = 10,
    iters: int = 5,
    scale: int = 1024,
    t_num: int = 1600,
    t_den: int = 10000,
) -> pd.DataFrame:
    """FIXED-POINT SemDeDup — within-cluster cosine near-duplicate
    pairs over the integer k-means clustering, with the cosine test
    done EXACTLY by cross-multiplication (no sqrt, no division):

      pair (a, b) in the same fixed-point cluster is a near-dup iff
        dot(a, b) > 0  AND  dot^2 * t_den >= t_num * |a|^2 * |b|^2
      over the UNSHIFTED quantized vectors (the +2*scale shift of the
      clustering arithmetic is removed before the cosine — the shift
      is a clustering-internal trick, not part of the geometry), with
      t_num/t_den = cos_threshold^2. The default 0.4 threshold fits
      the synthetic near-isotropic fixture (its max pairwise cosine is
      ~0.51; a real embedding corpus would run 0.9+). All products
      stay below 2^62.

    The float semantic_dedup stays justifiably rows-only (it consumes
    float Lloyd centroids); this sibling gives the SemDeDup shape an
    exact recursive-CTE oracle end-to-end: clustering rounds AND the
    pair predicate.

    Scale shape: labels by broadcast centroids (zero-shuffle scan),
    then ONE bucket-keyed groupby whose groups hold only each
    cluster's vectors — the SemDeDup contract (clusters are the small
    unit of pairwise work). Output: (vec_a, vec_b, dot) int64, ORDER
    BY vec_a, vec_b."""
    import numpy as np

    import ray

    qds, cents = _kmeans_fp_centroids(sf_dir, k, iters, scale)
    cref = ray.put(cents)

    def label(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        qm = _list_matrix(t["q"])
        d2 = ((qm[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        lab = np.argmin(d2, axis=1)
        return t.append_column("bucket", pa.array(lab.astype(np.int64), pa.int64()))

    def pairs_of_cluster(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["vec_id"].to_numpy(dtype=np.int64)
        qm = np.stack([np.asarray(v, dtype=np.int64) for v in g["q"]]) - 2 * scale
        order = np.argsort(ids, kind="mergesort")
        ids, qm = ids[order], qm[order]
        dot = qm @ qm.T
        nrm = np.diag(dot)
        ia, ib = np.triu_indices(len(ids), k=1)
        d = dot[ia, ib]
        # The cross-multiplied test squares the dot: for non-unit-norm
        # embeddings d^2 * t_den can exceed 2^63 even when every dot /
        # norm fits int64 comfortably. Evaluate the predicate with
        # Python ints (object dtype, arbitrary precision) so it can
        # never silently wrap — matching the HUGEINT twin exactly.
        d_o = d.astype(object)
        cross = (d_o * d_o * t_den) >= (
            nrm[ia].astype(object) * nrm[ib].astype(object) * t_num
        )
        ok = (d > 0) & cross.astype(bool)
        return pd.DataFrame(
            {
                "vec_a": pd.Series(ids[ia[ok]], dtype="int64"),
                "vec_b": pd.Series(ids[ib[ok]], dtype="int64"),
                "dot": pd.Series(d[ok], dtype="int64"),
            }
        )

    out = (
        qds.map_batches(label, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs_of_cluster, batch_format="pandas")
        .to_pandas()
    )
    if not len(out):
        out = pd.DataFrame(
            {
                "vec_a": pd.Series([], dtype="int64"),
                "vec_b": pd.Series([], dtype="int64"),
                "dot": pd.Series([], dtype="int64"),
            }
        )
    return out.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


def semantic_dedup_fixedpoint_sql(
    k: int = 10,
    iters: int = 5,
    scale: int = 1024,
    t_num: int = 1600,
    t_den: int = 10000,
) -> str:
    """Exact twin: the shared k-means CTE chain for labels, unshifted
    dot/norm sums per pair, HUGEINT cross-multiplied cosine test."""
    return (
        _kmeans_fp_cte(k, iters, scale)
        + f""",
qs AS (
    SELECT vec_id, dim, qv - {2 * scale} AS v FROM q
),
prs AS (
    SELECT la.vec_id AS vec_a, lb.vec_id AS vec_b
    FROM labf la JOIN labf lb
      ON la.bucket = lb.bucket AND la.vec_id < lb.vec_id
),
dots AS (
    SELECT p.vec_a, p.vec_b,
           CAST(SUM(a.v * b.v) AS BIGINT) AS dot
    FROM prs p
    JOIN qs a ON a.vec_id = p.vec_a
    JOIN qs b ON b.vec_id = p.vec_b AND b.dim = a.dim
    GROUP BY 1, 2
),
nrm AS (
    SELECT vec_id, CAST(SUM(v * v) AS BIGINT) AS n2 FROM qs GROUP BY 1
)
SELECT d.vec_a, d.vec_b, d.dot
FROM dots d
JOIN nrm na ON na.vec_id = d.vec_a
JOIN nrm nb ON nb.vec_id = d.vec_b
WHERE d.dot > 0
  AND CAST(d.dot AS HUGEINT) * d.dot * {t_den}
      >= CAST({t_num} AS HUGEINT) * na.n2 * nb.n2
ORDER BY d.vec_a, d.vec_b
    """
    )
