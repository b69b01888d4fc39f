"""Deduplication pipelines over a documents table.

All pipelines follow the scale discipline: per-batch vectorized
signature computation (task pools with cheap per-worker-cached hasher
state — see _STAGE_CACHE), hash-keyed `groupby` for the wide
exchanges, and candidate verification before reporting — never an
O(n^2) or full-table driver loop.

  - exact_dedup: content-hash partition + per-group min — the groupby
    key is md5(text) (never the full text), so the shuffle moves 32-byte
    keys, not documents.
  - minhash_lsh_dedup: shingle -> 64-perm MinHash -> LSH bands ->
    groupby(band_id, band_hash) -> candidate REP pairs (exact duplicates
    are collapsed to one representative per distinct text before pair
    generation, so a mega-duplicate group can't blow a bucket up
    quadratically) -> DISTRIBUTED exact-Jaccard verify (candidate texts
    are fetched by a broadcast semi-join filter and judged inside a
    groupby(pair_id).map_groups — the driver never scans the corpus) ->
    verified rep pairs re-expanded over exact-duplicate group members.
  - simhash_dedup: 64-bit simhash, banded into 4x16-bit chunks for
    candidate generation, verified by Hamming distance inside the
    bucket; same exact-duplicate collapse + expansion.
  - embedding_dedup: cosine near-duplicates over an embedding column
    via normalized blockwise matmul (broadcast one side with ray.put),
    zero-copy Arrow->numpy loads.
  - dedup_clusters: connected components over the verified pair graph;
    each min-label propagation round is an edges groupby(node).min —
    shuffle-shaped, not a driver dict loop.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Count, Min

from ..functions.minhash import (
    MinHasher,
    char_shingles_u64,
    hamming64,
    jaccard_u64,
    simhash64,
)
from ..functions.vectors import embedding_matrix, int_column
from .broadcast import worker_value

# Safety valve for degenerate LSH buckets (e.g. empty/boilerplate texts
# that survive exact collapse but still share a band): cap the number of
# distinct-text members a single bucket may pair up, and log the drop.
BUCKET_CAP = 10_000

# Bucket keys are sharded into N_SHARDS coarse groups for the Ray
# groupby (all rows of a real bucket land in one shard), and the real
# per-bucket work runs as a vectorized pandas groupby INSIDE the shard.
# Ray's map_groups dispatches a UDF call per group — with tens of
# thousands of tiny LSH buckets that per-group overhead dominates; 64
# shards keeps the shuffle while amortizing dispatch (measured ~2x on
# the sf0.1 minhash stage).
N_SHARDS = 64


def _docs(sf_dir: str, columns=("doc_id", "text")) -> "rd.Dataset":
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=list(columns))


def add_md5(batch: pa.Table) -> pa.Table:
    h = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in batch["text"].to_pylist()]
    return batch.append_column("text_hash", pa.array(h, pa.string()))


def exact_dedup(sf_dir: str) -> "rd.Dataset":
    """One row per distinct text: (text_hash, doc_id=min, dup_count)."""
    ds = _docs(sf_dir).map_batches(add_md5, batch_format="pyarrow")
    ds = ds.select_columns(["text_hash", "doc_id"])  # drop text before the shuffle
    return ds.groupby("text_hash").aggregate(
        Min("doc_id", alias_name="doc_id"),
        Count(alias_name="dup_count"),
    )


def _empty_pairs(value_col: str, dtype: str) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "doc_a": pd.Series([], dtype="int64"),
            "doc_b": pd.Series([], dtype="int64"),
            value_col: pd.Series([], dtype=dtype),
        }
    )


def _expand_rep_pairs(
    rep_pairs: pd.DataFrame, members: pd.DataFrame, value_col: str, within_value
) -> pd.DataFrame:
    """Re-expand verified representative pairs over exact-duplicate group
    members, plus all within-group pairs at `within_value` (identical
    texts trivially satisfy any near-dup predicate).

    rep_pairs: (doc_a, doc_b, value_col) between distinct-text reps.
    members: (rep_id, doc_id) for groups with >= 2 members.
    """
    if "rep_id" not in members.columns:  # empty to_pandas loses columns
        members = pd.DataFrame(
            {"rep_id": pd.Series([], dtype="int64"), "doc_id": pd.Series([], dtype="int64")}
        )
    group_of: dict[int, list[int]] = {}
    for rep, doc in zip(members["rep_id"], members["doc_id"]):
        group_of.setdefault(int(rep), []).append(int(doc))
    rows: list[tuple] = []
    # within-group pairs (exact duplicates)
    for rep, docs in group_of.items():
        docs = sorted(docs)
        if len(docs) > 2000:  # same spirit as BUCKET_CAP: output-size guard
            print(f"dedup: exact group of {len(docs)} docs capped at 2000 for pair expansion")
            docs = docs[:2000]
        for i in range(len(docs)):
            for j in range(i + 1, len(docs)):
                rows.append((docs[i], docs[j], within_value))
    # cross pairs: every member combination of the two groups shares the
    # reps' verified similarity (texts are byte-identical to the reps')
    for a, b, v in zip(rep_pairs["doc_a"], rep_pairs["doc_b"], rep_pairs[value_col]):
        for x in group_of.get(int(a), [int(a)]):
            for y in group_of.get(int(b), [int(b)]):
                rows.append((min(x, y), max(x, y), v))
    rows.sort()
    if not rows:
        return _empty_pairs(value_col, "float64" if isinstance(within_value, float) else "int64")
    out = pd.DataFrame(rows, columns=["doc_a", "doc_b", value_col])
    out["doc_a"] = out["doc_a"].astype("int64")
    out["doc_b"] = out["doc_b"].astype("int64")
    return out.drop_duplicates(["doc_a", "doc_b"]).reset_index(drop=True)


class MinHashStage:
    """Actor: doc -> (band_id, band_hash, doc_id, text_hash) rows.

    Signatures are memoized per distinct text within the batch, so local
    runs of exact duplicates cost one signature."""

    def __init__(self, n_perm: int = 64, n_bands: int = 8, k: int = 5):
        self.mh = MinHasher(n_perm=n_perm)
        self.n_bands = n_bands
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, band_ids, band_hashes, text_hashes = [], [], [], []
        seen: dict[str, list[str]] = {}
        shards = []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            th = hashlib.md5(text.encode("utf-8")).hexdigest()
            bands = seen.get(th)
            if bands is None:
                sig = self.mh.signature_u64(char_shingles_u64(text, self.k))
                bands = [
                    hashlib.blake2b(bh, digest_size=8).hexdigest()
                    for bh in self.mh.bands(sig, self.n_bands)
                ]
                seen[th] = bands
            for b, bh in enumerate(bands):
                doc_ids.append(doc_id)
                band_ids.append(b)
                band_hashes.append(bh)
                text_hashes.append(th)
                shards.append((int(bh[:8], 16) ^ (b * 0x9E3779B9)) % N_SHARDS)
        return pa.table(
            {
                "shard": pa.array(shards, pa.int32()),
                "band_id": pa.array(band_ids, pa.int32()),
                "band_hash": pa.array(band_hashes, pa.string()),
                "doc_id": pa.array(doc_ids, pa.int64()),
                "text_hash": pa.array(text_hashes, pa.string()),
            }
        )


# Per-worker-process stage cache: the banding stages run as TASK pools
# (no actor spin-up — measured ~2s per fresh autoscaling actor pool on
# these short jobs), with their cheap, deterministic state (seeded
# MinHasher permutations) rebuilt once per worker process and reused
# across tasks. The extraction stage keeps its CMap and result memo
# per worker process the same way (stages/extractors.stage_instance).
_STAGE_CACHE: dict = {}


def _minhash_rows(batch: pa.Table, n_bands: int = 8) -> pa.Table:
    key = ("minhash", n_bands)
    stage = _STAGE_CACHE.get(key)
    if stage is None:
        stage = _STAGE_CACHE[key] = MinHashStage(n_bands=n_bands)
    return stage(batch)


def _simhash_band_rows(batch: pa.Table) -> pa.Table:
    stage = _STAGE_CACHE.get("simhash_band")
    if stage is None:
        stage = _STAGE_CACHE["simhash_band"] = SimHashBandStage()
    return stage(batch)


def _minhash_banded(sf_dir: str, n_bands: int = 8) -> "rd.Dataset":
    """Candidate REP pairs + exact-duplicate membership from one banded
    pass. Rows: (doc_a, doc_b, kind) — kind 0 = candidate rep pair,
    kind 1 = (rep_id, member_id) exact-group membership.

    Members of a bucket are collapsed to one representative per distinct
    text (rep = min doc_id — globally consistent because identical texts
    share every band), so pair generation is O(distinct^2), not
    O(members^2), capped at BUCKET_CAP distinct texts per bucket.
    Membership rows are emitted from band-0 buckets only (a band-0
    bucket contains every member of each of its exact groups), so the
    whole dedup needs no separate membership scan. The Ray groupby runs
    over N_SHARDS coarse shards; real buckets are resolved by a pandas
    groupby inside each shard (see N_SHARDS)."""
    ds = _docs(sf_dir).map_batches(
        _minhash_rows,
        fn_kwargs={"n_bands": n_bands},
        batch_format="pyarrow",
    )

    def pairs_of_shard(g: pd.DataFrame) -> pd.DataFrame:
        rows_a, rows_b, kinds = [], [], []
        for (band_id, _bh), grp in g.groupby(["band_id", "band_hash"], sort=False):
            groups: dict[str, list[int]] = {}
            for d, th in zip(grp["doc_id"].to_numpy(), grp["text_hash"].to_numpy()):
                groups.setdefault(th, []).append(int(d))
            ids = sorted(min(v) for v in groups.values())
            if len(ids) > BUCKET_CAP:
                print(f"minhash: hot bucket with {len(ids)} distinct texts capped at {BUCKET_CAP}")
                ids = ids[:BUCKET_CAP]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    rows_a.append(ids[i])
                    rows_b.append(ids[j])
                    kinds.append(0)
            if int(band_id) == 0:
                for members in groups.values():
                    if len(members) >= 2:
                        rep = min(members)
                        for d in members:
                            rows_a.append(rep)
                            rows_b.append(d)
                            kinds.append(1)
        return pd.DataFrame(
            {
                "doc_a": pd.Series(rows_a, dtype="int64"),
                "doc_b": pd.Series(rows_b, dtype="int64"),
                "kind": pd.Series(kinds, dtype="int32"),
            }
        )

    return ds.groupby("shard").map_groups(pairs_of_shard, batch_format="pandas")


def _split_banded(raw: pd.DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
    """(candidate rep pairs, membership rows) from _minhash_banded output."""
    if "kind" not in raw.columns:  # empty to_pandas loses columns
        empty = pd.DataFrame(
            {"doc_a": pd.Series([], dtype="int64"), "doc_b": pd.Series([], dtype="int64")}
        )
        return empty, empty.rename(columns={"doc_a": "rep_id", "doc_b": "doc_id"})
    cand = raw[raw["kind"] == 0][["doc_a", "doc_b"]].drop_duplicates()
    members = raw[raw["kind"] == 1][["doc_a", "doc_b"]].rename(
        columns={"doc_a": "rep_id", "doc_b": "doc_id"}
    )
    return cand, members


def minhash_candidates(sf_dir: str, n_bands: int = 8) -> "rd.Dataset":
    """Candidate duplicate REP pairs from LSH bucket collisions (public
    pair-only view of _minhash_banded)."""

    def only_pairs(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["kind"], 0)).select(["doc_a", "doc_b"])

    return _minhash_banded(sf_dir, n_bands).map_batches(only_pairs, batch_format="pyarrow")


def _verify_pairs_distributed(
    sf_dir: str, cand: pd.DataFrame, threshold: float, k: int = 5
) -> pd.DataFrame:
    """Exact-Jaccard verify of candidate pairs WITHOUT a driver scan.

    The (small) candidate set is broadcast as a doc_id -> [pair_id]
    index; tasks filter the documents table against it (vectorized
    is_in semi-join), emit one (pair_id, doc_id, text) row per pair
    membership, and a groupby(pair_id).map_groups judges each pair.
    Only verified pairs reach the driver."""
    if not len(cand):
        return _empty_pairs("jaccard", "float64")
    idx: dict[int, list[int]] = {}
    for pid, (a, b) in enumerate(zip(cand["doc_a"], cand["doc_b"])):
        idx.setdefault(int(a), []).append(pid)
        idx.setdefault(int(b), []).append(pid)
    ref = ray.put(idx)
    needed = pa.array(list(idx.keys()), pa.int64())

    def tag_pairs(t: pa.Table) -> pa.Table:
        # task pool; the candidate index is a ray.put broadcast fetched
        # per task from the local object store (tiny: one entry per
        # candidate doc)
        pair_idx = ray.get(ref)
        t = t.filter(pc.is_in(t["doc_id"], value_set=needed))
        pids, dids, texts, shards = [], [], [], []
        for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            for pid in pair_idx.get(d, ()):
                pids.append(pid)
                dids.append(d)
                texts.append(x)
                shards.append(pid % N_SHARDS)
        return pa.table(
            {
                "shard": pa.array(shards, pa.int32()),
                "pair_id": pa.array(pids, pa.int64()),
                "doc_id": pa.array(dids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    tagged = _docs(sf_dir).map_batches(tag_pairs, batch_format="pyarrow")

    def judge_shard(g: pd.DataFrame) -> pd.DataFrame:
        rows_a, rows_b, vals = [], [], []
        for _pid, grp in g.groupby("pair_id", sort=False):
            if len(grp) != 2:
                continue
            grp = grp.sort_values("doc_id")
            a, b = grp.iloc[0], grp.iloc[1]
            j = jaccard_u64(char_shingles_u64(a["text"], k), char_shingles_u64(b["text"], k))
            if j >= threshold:
                rows_a.append(int(a["doc_id"]))
                rows_b.append(int(b["doc_id"]))
                # raw |A∩B|/|A∪B| int/int float64 division — bit-exact vs
                # the SQL oracle's CAST(c AS DOUBLE)/(t-c) (no rounding)
                vals.append(j)
        return pd.DataFrame(
            {
                "doc_a": pd.Series(rows_a, dtype="int64"),
                "doc_b": pd.Series(rows_b, dtype="int64"),
                "jaccard": pd.Series(vals, dtype="float64"),
            }
        )

    out = tagged.groupby("shard").map_groups(judge_shard, batch_format="pandas").to_pandas()
    if not len(out):
        return _empty_pairs("jaccard", "float64")
    return out


def minhash_lsh_dedup(sf_dir: str, threshold: float = 0.8) -> pd.DataFrame:
    """Verified near-duplicate pairs (doc_a, doc_b, jaccard >= threshold).

    Three distributed phases: (1) banded candidate generation over
    distinct-text representatives, (2) distributed exact-Jaccard verify
    of the rep pairs (see _verify_pairs_distributed), (3) re-expansion
    of verified rep pairs over exact-duplicate group members (identical
    texts share the rep's similarity by construction). Only the small
    candidate/verified pair sets and duplicate-group membership rows
    ever reach the driver."""
    cand, members = _split_banded(_minhash_banded(sf_dir).to_pandas())
    verified = _verify_pairs_distributed(sf_dir, cand, threshold)
    out = _expand_rep_pairs(verified, members, "jaccard", 1.0)
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def minhash_lsh_dedup_sql(threshold: float = 0.8, k: int = 5) -> str:
    """EXACT shingle-Jaccard pair set in SQL — the oracle that closes
    minhash_lsh_dedup's verification gap: the engine's LSH + distributed
    verify must reproduce the exact >= threshold pair set (values are raw
    int/int double divisions on both sides, so the driver hash matches
    bit-for-bit).

    The shingle expression mirrors char_shingles() exactly: k-char
    substrings of lower(text) (fixture texts are ASCII, so DuckDB's
    char-based substr == the engine's utf-8 byte shingles), whole-text
    fallback when len(text) <= k. The join prune is the sound length
    bound j <= min(|A|,|B|)/max(|A|,|B|)."""
    return f"""
        WITH sh AS MATERIALIZED (
          SELECT doc_id,
                 list_distinct([substr(lower(text), CAST(x AS INT), {k})
                                FOR x IN range(1, greatest(length(text) - {k - 2}, 2))]) AS s
          FROM documents
        ), p AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                 len(list_intersect(a.s, b.s)) AS c,
                 len(a.s) + len(b.s) AS t
          FROM sh a JOIN sh b
            ON a.doc_id < b.doc_id
           AND least(len(a.s), len(b.s)) >= {threshold} * greatest(len(a.s), len(b.s))
        )
        SELECT doc_a, doc_b, CAST(c AS DOUBLE) / (t - c) AS jaccard
        FROM p WHERE CAST(c AS DOUBLE) / (t - c) >= {threshold}
        ORDER BY doc_a, doc_b
    """


def dedup_clusters_sql(threshold: float = 0.8, k: int = 5) -> str:
    """Connected components over the exact shingle-Jaccard pair set —
    the oracle for dedup_clusters: min-label transitive closure as a
    recursive CTE (reach(node, r) holds every label reachable from
    node; MIN(r) per node is the component's min doc id). Safe at
    oracle scale: fixture components are tiny, so the closure stays
    small."""
    pairs = minhash_lsh_dedup_sql(threshold=threshold, k=k)
    return f"""
        WITH RECURSIVE pr AS MATERIALIZED (
          SELECT doc_a, doc_b FROM ({pairs})
        ), e AS (
          SELECT doc_a AS node, doc_b AS nbr FROM pr
          UNION ALL
          SELECT doc_b AS node, doc_a AS nbr FROM pr
        ), reach(node, r) AS (
          SELECT node, node AS r FROM (SELECT DISTINCT node FROM e)
          UNION
          SELECT e.node, reach.r FROM e JOIN reach ON reach.node = e.nbr
        )
        SELECT node AS doc_id, CAST(MIN(r) AS BIGINT) AS cluster_id
        FROM reach GROUP BY node ORDER BY cluster_id, doc_id
    """


def _prefix_rows(batch: pa.Table, threshold: float = 0.8, k: int = 5) -> pa.Table:
    """doc -> one row per PREFIX shingle (AllPairs/SSJoin-style prefix
    filtering; Bayardo et al., WWW'07 — public algorithm).

    Shingles are sorted by u64 value (the global token order); a doc of
    n distinct shingles keeps its first n - ceil(t*n) + 1. Lemma: for
    J(A,B) >= t the common count c >= t*|A union B| >= ceil(t*|A|), so
    if the SMALLEST common shingle were outside A's prefix, all common
    shingles would sit in A's suffix of ceil(t*|A|) - 1 slots — a
    contradiction; symmetrically for B. The smallest common shingle
    therefore lies in BOTH prefixes, making a bucket join over prefix
    rows candidate-COMPLETE (exact recall, unlike LSH's probabilistic
    recall). `is_min` marks the doc's overall smallest shingle — every
    member of an exact-duplicate group lands that row in the same
    bucket, which is where membership rows are emitted once."""
    import math

    doc_ids, shingles, text_hashes, mins, shards = [], [], [], [], []
    seen: dict[str, np.ndarray] = {}
    for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
        th = hashlib.md5(text.encode("utf-8")).hexdigest()
        pref = seen.get(th)
        if pref is None:
            sh = np.sort(char_shingles_u64(text, k))
            n = len(sh)
            p = n - math.ceil(threshold * n) + 1 if n else 0
            pref = sh[:p]
            seen[th] = pref
        for i, s in enumerate(pref):
            doc_ids.append(doc_id)
            shingles.append(int(s))
            text_hashes.append(th)
            mins.append(i == 0)
            # golden-ratio mix: shingle low bits are raw text bytes
            shards.append(((int(s) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF) % N_SHARDS)
    return pa.table(
        {
            "shard": pa.array(shards, pa.int32()),
            "shingle": pa.array(shingles, pa.uint64()),
            "doc_id": pa.array(doc_ids, pa.int64()),
            "text_hash": pa.array(text_hashes, pa.string()),
            "is_min": pa.array(mins, pa.bool_()),
        }
    )


def _ngram_banded(sf_dir: str, threshold: float = 0.8, k: int = 5) -> "rd.Dataset":
    """Candidate rep pairs + exact-group membership from the prefix
    inverted index — same output contract as _minhash_banded (kind 0 =
    candidate rep pair, kind 1 = membership), same shard-grouped
    execution shape, but with guaranteed candidate recall."""
    ds = _docs(sf_dir).map_batches(
        _prefix_rows,
        fn_kwargs={"threshold": threshold, "k": k},
        batch_format="pyarrow",
    )

    def pairs_of_shard(g: pd.DataFrame) -> pd.DataFrame:
        rows_a, rows_b, kinds = [], [], []
        for _sh, grp in g.groupby("shingle", sort=False):
            groups: dict[str, list[int]] = {}
            min_flags: dict[str, bool] = {}
            for d, th, m in zip(
                grp["doc_id"].to_numpy(), grp["text_hash"].to_numpy(), grp["is_min"].to_numpy()
            ):
                groups.setdefault(th, []).append(int(d))
                min_flags[th] = min_flags.get(th, False) or bool(m)
            ids = sorted(min(v) for v in groups.values())
            if len(ids) > BUCKET_CAP:
                print(f"ngram: hot shingle with {len(ids)} distinct texts capped at {BUCKET_CAP}")
                ids = ids[:BUCKET_CAP]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    rows_a.append(ids[i])
                    rows_b.append(ids[j])
                    kinds.append(0)
            for th, members in groups.items():
                if min_flags[th] and len(members) >= 2:
                    rep = min(members)
                    for d in members:
                        rows_a.append(rep)
                        rows_b.append(d)
                        kinds.append(1)
        return pd.DataFrame(
            {
                "doc_a": pd.Series(rows_a, dtype="int64"),
                "doc_b": pd.Series(rows_b, dtype="int64"),
                "kind": pd.Series(kinds, dtype="int32"),
            }
        )

    return ds.groupby("shard").map_groups(pairs_of_shard, batch_format="pandas")


def ngram_jaccard_dedup(sf_dir: str, threshold: float = 0.8, k: int = 5) -> pd.DataFrame:
    """EXACT n-gram (char-shingle) Jaccard near-dup pairs — the
    deterministic sibling of minhash_lsh_dedup: prefix-filtered
    inverted-index candidates (guaranteed recall at the threshold)
    -> distributed exact-Jaccard verify -> exact-group re-expansion.
    Output is the complete (doc_a, doc_b, jaccard >= threshold) pair
    set, bit-identical to the SQL oracle; minhash_lsh_dedup matching
    the same oracle is probabilistic, this is by construction."""
    cand, members = _split_banded(_ngram_banded(sf_dir, threshold, k).to_pandas())
    verified = _verify_pairs_distributed(sf_dir, cand, threshold, k)
    out = _expand_rep_pairs(verified, members, "jaccard", 1.0)
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


class SimHashStage:
    def __call__(self, batch: pa.Table) -> pa.Table:
        hashes = [simhash64(t) for t in batch["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                # store as hex so uint64 never overflows int64 columns
                "simhash": pa.array([f"{h:016x}" for h in hashes], pa.string()),
            }
        )


def simhash_signatures(sf_dir: str) -> "rd.Dataset":
    return _docs(sf_dir).map_batches(lambda b: SimHashStage()(b), batch_format="pyarrow")


class SimHashBandStage:
    """Actor: doc -> 4 x (chunk_id, chunk_value, doc_id, simhash,
    text_hash) band rows; simhash memoized per distinct text in batch.

    A pair within Hamming distance <= 3 of a 64-bit simhash shares at
    least one identical 16-bit chunk (pigeonhole), so banding by chunk
    is a complete candidate generator for max_hamming <= 3."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, chunk_ids, chunk_vals, sims, text_hashes, shards = [], [], [], [], [], []
        seen: dict[str, str] = {}
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            th = hashlib.md5(text.encode("utf-8")).hexdigest()
            hx = seen.get(th)
            if hx is None:
                hx = f"{simhash64(text):016x}"
                seen[th] = hx
            h = int(hx, 16)
            for c in range(4):
                v = (h >> (16 * c)) & 0xFFFF
                doc_ids.append(doc_id)
                chunk_ids.append(c)
                chunk_vals.append(v)
                sims.append(hx)
                text_hashes.append(th)
                shards.append((v ^ (c * 0x9E3779B9)) % N_SHARDS)
        return pa.table(
            {
                "shard": pa.array(shards, pa.int32()),
                "chunk_id": pa.array(chunk_ids, pa.int32()),
                "chunk_value": pa.array(chunk_vals, pa.int32()),
                "doc_id": pa.array(doc_ids, pa.int64()),
                "simhash": pa.array(sims, pa.string()),
                "text_hash": pa.array(text_hashes, pa.string()),
            }
        )


def simhash_dedup(sf_dir: str, max_hamming: int = 3) -> pd.DataFrame:
    """Near-dup pairs by simhash banding (4 x 16-bit chunks) + Hamming
    verify.

    Scale shape: band rows shuffle by (chunk_id, chunk_value) — a
    16-byte-keyed groupby, never the documents — and pairs are generated
    and Hamming-verified inside each bucket's map_groups over
    distinct-text representatives (exact duplicates collapsed, bucket
    capped); verified rep pairs are re-expanded over duplicate-group
    members, exactly like minhash_lsh_dedup."""

    def pairs_of_shard(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for (chunk_id, _cv), grp in g.groupby(["chunk_id", "chunk_value"], sort=False):
            groups: dict[str, list[int]] = {}
            sim_of: dict[str, str] = {}
            for d, th, hx in zip(
                grp["doc_id"].to_numpy(), grp["text_hash"].to_numpy(), grp["simhash"].to_numpy()
            ):
                groups.setdefault(th, []).append(int(d))
                sim_of[th] = hx
            reps = sorted((min(v), sim_of[th]) for th, v in groups.items())
            if len(reps) > BUCKET_CAP:
                print(f"simhash: hot bucket with {len(reps)} distinct texts capped at {BUCKET_CAP}")
                reps = reps[:BUCKET_CAP]
            for i in range(len(reps)):
                a, ha = reps[i]
                for j in range(i + 1, len(reps)):
                    b, hb = reps[j]
                    d = hamming64(int(ha, 16), int(hb, 16))
                    if d <= max_hamming:
                        rows.append((min(a, b), max(a, b), d, 0))
            # membership rows once globally, from chunk-0 buckets
            if int(chunk_id) == 0:
                for members in groups.values():
                    if len(members) >= 2:
                        rep = min(members)
                        rows.extend((rep, d, 0, 1) for d in members)
        return pd.DataFrame(rows, columns=["doc_a", "doc_b", "hamming", "kind"]).astype(
            {"doc_a": "int64", "doc_b": "int64", "hamming": "int64", "kind": "int32"}
        )

    bands = _docs(sf_dir).map_batches(_simhash_band_rows, batch_format="pyarrow")
    raw = (
        bands.groupby("shard")
        .map_groups(pairs_of_shard, batch_format="pandas")
        .to_pandas()
    )
    if "kind" in raw.columns and len(raw):
        rep_pairs = raw[raw["kind"] == 0][["doc_a", "doc_b", "hamming"]].drop_duplicates(
            ["doc_a", "doc_b"]
        )
        members = raw[raw["kind"] == 1][["doc_a", "doc_b"]].rename(
            columns={"doc_a": "rep_id", "doc_b": "doc_id"}
        )
    else:
        rep_pairs = _empty_pairs("hamming", "int64")
        members = pd.DataFrame(
            {"rep_id": pd.Series([], dtype="int64"), "doc_id": pd.Series([], dtype="int64")}
        )
    out = _expand_rep_pairs(rep_pairs, members, "hamming", 0)
    out["hamming"] = out["hamming"].astype("int64")
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def simhash_dedup_sql(max_hamming: int = 3) -> str:
    """EXACT SimHash hamming-<=k pair set in SQL — the oracle that
    closes simhash_dedup's verification gap (the banding is
    pigeonhole-complete for hamming <= 3 and the verify is exact, so
    the engine's output IS the exact pair set).

    Reproduces functions/minhash.py::simhash64 term-for-term: words =
    regex-split of lower(text) on whitespace (empties dropped, like
    Python str.split), word hash = first 8 bytes of md5 little-endian
    (the byte-reversed hex-prefix cast), per-bit tf-weighted vote with
    sign > 0. The 64-bit signature is carried as two 32-bit halves
    because DuckDB's << overflows at bit 63; hamming is the sum of the
    two halves' bit_count(xor)."""
    return rf"""
        {_SIMHASH_SIG_CTE}
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               CAST(bit_count(xor(a.lo, b.lo)) + bit_count(xor(a.hi, b.hi)) AS BIGINT) AS hamming
        FROM sig0 a JOIN sig0 b ON a.doc_id < b.doc_id
        WHERE bit_count(xor(a.lo, b.lo)) + bit_count(xor(a.hi, b.hi)) <= {max_hamming}
        ORDER BY doc_a, doc_b
    """


# SQL reconstruction of functions/minhash.py::simhash64 (md5-based by
# design so the signature is ANSI-SQL-reproducible); shared by the
# hamming-pair oracle and the pairwise-hamming-histogram oracle.
_SIMHASH_SIG_CTE = r"""WITH words AS (
          SELECT doc_id, w, CAST(COUNT(*) AS BIGINT) AS cnt
          FROM (SELECT doc_id,
                       unnest(string_split_regex(lower(text), '\s+')) AS w
                FROM documents)
          WHERE w <> ''
          GROUP BY doc_id, w
        ), wh AS (
          SELECT doc_id, cnt,
                 CAST(concat('0x',
                   substr(md5(w),15,2), substr(md5(w),13,2),
                   substr(md5(w),11,2), substr(md5(w),9,2),
                   substr(md5(w),7,2),  substr(md5(w),5,2),
                   substr(md5(w),3,2),  substr(md5(w),1,2)
                 ) AS UBIGINT) AS h
          FROM words
        ), bits AS (
          SELECT doc_id, r.b AS b,
                 SUM(CASE WHEN (h >> r.b) & 1 = 1 THEN cnt ELSE -cnt END) AS acc
          FROM wh CROSS JOIN (SELECT unnest(range(0, 64)) AS b) r
          GROUP BY doc_id, r.b
        ), sig AS (
          SELECT doc_id,
                 CAST(SUM(CASE WHEN acc > 0 AND b < 32
                               THEN CAST(1 AS BIGINT) << CAST(b AS INT) ELSE 0 END) AS BIGINT) AS lo,
                 CAST(SUM(CASE WHEN acc > 0 AND b >= 32
                               THEN CAST(1 AS BIGINT) << CAST(b - 32 AS INT) ELSE 0 END) AS BIGINT) AS hi
          FROM bits GROUP BY doc_id
        ), sig0 AS (
          SELECT d.doc_id, COALESCE(s.lo, 0) AS lo, COALESCE(s.hi, 0) AS hi
          FROM documents d LEFT JOIN sig s USING (doc_id)
        )"""


def embedding_dedup(sf_dir: str, threshold: float = 0.45) -> pd.DataFrame:
    """Cosine near-duplicate pairs (vec_a, vec_b) over the embeddings
    table.

    Broadcasts the (normalized) full matrix once with ray.put and scans
    it blockwise inside map_batches — each batch computes a [batch, N]
    similarity block; only above-threshold pairs leave the task. The
    cosine value itself is not returned: DuckDB's
    list_cosine_similarity computes on FLOAT[] while numpy uses
    float64, so the VALUES differ in the 7th digit — the pair SET at a
    threshold chosen away from any observed similarity is the
    comparable result (same convention as ann_topk).

    Scale note: the broadcast side is O(N x D); beyond what fits in the
    object store, assign IVF buckets (stages/similarity.py::AssignBucket)
    and compare within-bucket only via groupby(bucket).map_groups — the
    standard approximate near-dup trade.
    """
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    mat = embedding_matrix(t["embedding"])
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    mat = mat / norms
    ids = int_column(t["vec_id"])
    ref = ray.put((ids, mat))

    def cosine_block(batch: pa.Table) -> pa.Table:
        # task pool: the normalized matrix is a ray.put broadcast —
        # numpy arrays come back zero-copy from the local object store
        ids, mat = ray.get(ref)
        vid = int_column(batch["vec_id"])
        v = embedding_matrix(batch["embedding"])
        n = np.linalg.norm(v, axis=1, keepdims=True)
        n[n == 0] = 1.0
        v = v / n
        sims = v @ mat.T  # [batch, N]
        ai, bj = np.nonzero(sims >= threshold)
        a = vid[ai]
        b = ids[bj]
        keep = a < b  # strict upper triangle, dedup across batches
        return pa.table(
            {
                "vec_a": pa.array(a[keep], pa.int64()),
                "vec_b": pa.array(b[keep], pa.int64()),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = ds.map_batches(cosine_block, batch_format="pyarrow", batch_size=256).to_pandas()
    if out.empty:  # zero pairs -> typed empty frame (to_pandas loses columns)
        return pd.DataFrame(
            {"vec_a": pd.Series([], dtype="int64"), "vec_b": pd.Series([], dtype="int64")}
        )
    return out.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


def embedding_dedup_sql(threshold: float = 0.45) -> str:
    return f"""
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
        FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.embedding, b.embedding) >= {threshold}
        ORDER BY vec_a, vec_b
    """


def dedup_clusters(
    sf_dir: str,
    threshold: float = 0.8,
    max_rounds: int = 10,
    driver_pairs_cap: int = 2_000_000,
) -> pd.DataFrame:
    """Near-duplicate clusters: connected components over the verified
    MinHash-LSH pair graph, cluster_id = min doc id of the component.
    Returns (doc_id, cluster_id) for every document with at least one
    near-duplicate.

    Size-aware: the pair list is already a driver DataFrame (it is the
    minhash query's output), so when it fits comfortably
    (<= driver_pairs_cap edges) a local union-find labels it in one
    pass — paying 3+ Ray shuffle rounds to label a few thousand edges
    is pure overhead. Past the cap, _clusters_distributed runs
    min-label propagation with FULLY distributed convergence state
    (labels live as a Ray Dataset between rounds; convergence detected
    by an aggregate of changed-label counts, so driver memory stays
    O(1) in the graph size). Both paths produce identical labels —
    pinned against each other in tests.
    """
    pairs = minhash_lsh_dedup(sf_dir, threshold=threshold)
    if not len(pairs):
        return pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"), "cluster_id": pd.Series([], dtype="int64")}
        )
    if len(pairs) <= driver_pairs_cap:
        return _clusters_union_find(pairs)
    return _clusters_distributed(pairs, max_rounds)


def _clusters_union_find(pairs: pd.DataFrame) -> pd.DataFrame:
    """Driver-local connected components (path-halving union-find) for
    pair graphs that already sit on the driver."""
    nodes = np.unique(
        np.concatenate(
            [pairs["doc_a"].to_numpy(dtype=np.int64), pairs["doc_b"].to_numpy(dtype=np.int64)]
        )
    )
    idx = {int(n): i for i, n in enumerate(nodes)}
    parent = np.arange(len(nodes), dtype=np.int64)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ra, rb = find(idx[int(a)]), find(idx[int(b)])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = np.fromiter((find(i) for i in range(len(nodes))), dtype=np.int64, count=len(nodes))
    # nodes is sorted ascending, so the min doc id of a component is the
    # node at the component's smallest index == nodes[root] (unions always
    # point to the smaller index)
    out = pd.DataFrame({"doc_id": nodes, "cluster_id": nodes[roots]})
    return out.sort_values(["cluster_id", "doc_id"]).reset_index(drop=True)


def _clusters_distributed(pairs: pd.DataFrame, max_rounds: int = 10) -> pd.DataFrame:
    """Distributed min-label propagation over the pair graph: each
    round is a hash join attaching every neighbor's current label to
    the edge list, then edges.groupby(node).min; convergence is an
    aggregate count of changed labels. Rounds are bounded by the
    component diameter (near-dup clusters are tiny)."""
    nodes = sorted(set(pairs["doc_a"]) | set(pairs["doc_b"]))
    # undirected edge list with self-loops so every node keeps its label
    edges_pd = pd.concat(
        [
            pairs.rename(columns={"doc_a": "node", "doc_b": "nbr"})[["node", "nbr"]],
            pairs.rename(columns={"doc_b": "node", "doc_a": "nbr"})[["node", "nbr"]],
            pd.DataFrame({"node": nodes, "nbr": nodes}),
        ]
    ).astype("int64")
    n_parts = 4
    edges = rd.from_pandas(edges_pd).materialize()
    # labels keyed by nbr for the edge join: (nbr, nbr_label)
    labels = rd.from_pandas(
        pd.DataFrame({"nbr": nodes, "nbr_label": nodes}).astype("int64")
    ).materialize()
    for _ in range(max_rounds):
        new_labels = (
            edges.join(labels, join_type="inner", num_partitions=n_parts, on=("nbr",))
            .groupby("node")
            .aggregate(Min("nbr_label", alias_name="label"))
            .materialize()
        )
        # convergence: aggregate count of changed labels, never a dict diff
        changed = (
            new_labels.join(
                labels, join_type="inner", num_partitions=n_parts, on=("node",), right_on=("nbr",)
            )
            .filter(expr="label != nbr_label")
            .count()
        )
        labels = new_labels.rename_columns({"node": "nbr", "label": "nbr_label"}).materialize()
        if changed == 0:
            break
    out = labels.rename_columns({"nbr": "doc_id", "nbr_label": "cluster_id"}).to_pandas()
    out = out.astype("int64")
    return out.sort_values(["cluster_id", "doc_id"]).reset_index(drop=True)


def embedding_dedup_ivf(
    sf_dir: str, threshold: float = 0.45, n_centroids: int = 16
) -> pd.DataFrame:
    """IVF-bucketed cosine near-duplicates — the scale path the
    broadcast variant's docstring promises: when N x D no longer fits
    the object store, assign each vector to its nearest deterministic
    centroid (a cheap map_batches adding a `bucket` column) and compare
    WITHIN buckets only via groupby(bucket).map_groups. Approximate by
    construction (cross-bucket near-dups are missed — near-identical
    vectors land in the same bucket, so recall on true near-dups is
    high); the shuffle moves (vec_id, embedding, bucket), never an
    N x N block. Centroids come from a streaming limit read
    (similarity.centroid_matrix), not a driver table scan."""
    from .similarity import _normalize, centroid_matrix

    centroids = centroid_matrix(sf_dir, n_centroids)
    cref = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        v = _normalize(embedding_matrix(batch["embedding"]))
        bucket = (v @ c.T).argmax(axis=1).astype(np.int32)
        return batch.append_column("bucket", pa.array(bucket, pa.int32()))

    def pairs_of_bucket(g: pd.DataFrame) -> pd.DataFrame:
        vids = g["vec_id"].to_numpy(dtype=np.int64)
        v = _normalize(np.asarray(list(g["embedding"]), dtype=np.float64))
        sims = v @ v.T
        ai, bj = np.nonzero(sims >= threshold)
        keep = vids[ai] < vids[bj]
        return pd.DataFrame(
            {
                "vec_a": pd.Series(vids[ai][keep], dtype="int64"),
                "vec_b": pd.Series(vids[bj][keep], dtype="int64"),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs_of_bucket, batch_format="pandas")
        .to_pandas()
    )
    if "vec_a" not in out.columns:
        return pd.DataFrame(
            {"vec_a": pd.Series([], dtype="int64"), "vec_b": pd.Series([], dtype="int64")}
        )
    return out.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


def substring_dedup(sf_dir: str, window: int = 64, stride: int = 16) -> pd.DataFrame:
    """Exact-substring dedup (the ExactSubstr method of Lee et al.,
    "Deduplicating Training Data Makes Language Models Better"): find
    document pairs sharing any verbatim `window`-char substring, by
    hashing fixed-length windows at `stride` offsets.

    Ray shape: per-doc window md5s are emitted (distinct within doc)
    with a coarse shard key so the exchange moves 16-byte hashes —
    never text; cross-doc pairs are resolved by a pandas merge inside
    each shard and a final (doc_a, doc_b) count groupby. At 100-TB
    scale the window stream is corpus/stride rows — inherent to
    ExactSubstr — and boilerplate mega-groups need the same cap/salt
    treatment as the LSH buckets (documented knob, kept exact here so
    the SQL oracle matches bit-for-bit).

    Output: (doc_a, doc_b, n_shared) where n_shared counts DISTINCT
    shared window hashes.
    """
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def windows(t: pa.Table) -> pa.Table:
        ids_out, h_out, shard_out = [], [], []
        for doc_id, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            seen = set()
            for i in range(0, len(txt) - window + 1, stride):
                h = hashlib.md5(txt[i : i + window].encode()).hexdigest()
                if h not in seen:
                    seen.add(h)
                    ids_out.append(doc_id)
                    h_out.append(h)
                    shard_out.append(int(h[:8], 16) % N_SHARDS)
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "h": pa.array(h_out, pa.string()),
                "shard": pa.array(shard_out, pa.int32()),
            }
        )

    def pairs_of_shard(g: pd.DataFrame) -> pd.DataFrame:
        # cross-doc pairs per hash: self-merge within the shard, a < b
        j = g.merge(g, on="h", suffixes=("_a", "_b"))
        j = j[j["doc_id_a"] < j["doc_id_b"]]
        if not len(j):
            return pd.DataFrame(
                {
                    "doc_a": pd.Series([], dtype="int64"),
                    "doc_b": pd.Series([], dtype="int64"),
                }
            )
        return j[["doc_id_a", "doc_id_b"]].rename(
            columns={"doc_id_a": "doc_a", "doc_id_b": "doc_b"}
        )

    pairs = (
        ds.map_batches(windows, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(pairs_of_shard, batch_format="pandas")
    )
    out = (
        pairs.groupby(["doc_a", "doc_b"])
        .aggregate(Count(alias_name="n_shared"))
        .to_pandas()
    )
    if "doc_a" not in out.columns or not len(out):
        return pd.DataFrame(
            {
                "doc_a": pd.Series([], dtype="int64"),
                "doc_b": pd.Series([], dtype="int64"),
                "n_shared": pd.Series([], dtype="int64"),
            }
        )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def substring_dedup_sql(window: int = 64, stride: int = 16) -> str:
    return f"""
        WITH w AS (
          SELECT doc_id, md5(substr(text, CAST(i AS INTEGER), {window})) AS h
          FROM documents
          CROSS JOIN unnest(range(1, length(text) - {window} + 2, {stride})) AS t(i)
        ), d AS (
          SELECT DISTINCT doc_id, h FROM w
        )
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS n_shared
        FROM d a JOIN d b ON a.h = b.h AND a.doc_id < b.doc_id
        GROUP BY 1, 2 ORDER BY doc_a, doc_b
    """


def semantic_dedup(
    sf_dir: str,
    k: int = 10,
    iters: int = 5,
    threshold: float = 0.45,
    group_cap: int = 20_000,
) -> pd.DataFrame:
    """SemDeDup (Abbas et al. 2023, "SemDeDup: Data-efficient learning
    at web-scale through semantic deduplication"): cluster the
    embedding space with distributed spherical k-means, then search for
    cosine near-duplicate pairs ONLY within each cluster — the standard
    way to make embedding dedup sub-quadratic at billions of vectors.

    Shape: the trained k x D centroid matrix is broadcast once
    (ray.put); a cheap map_batches assigns argmax-cosine buckets; one
    groupby(bucket).map_groups computes the within-cluster pairwise
    block. Cost falls from O(N^2) to O(sum of cluster_size^2); no
    driver-side vector state. `group_cap` bounds the worst cluster
    (degenerate clustering at scale would otherwise re-create the
    quadratic) — capped groups are truncated by vec_id with the cap
    recorded in the docstring contract, mirroring BUCKET_CAP in the
    MinHash family.

    Approximate by construction (cross-cluster pairs are invisible), so
    no SQL twin: pinned by the subset-of-exact + measured-recall +
    planted-duplicate pytests.
    """
    from .similarity import _kmeans_rounds, _normalize

    centroids, _ = _kmeans_rounds(sf_dir, k, iters)
    cref = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        v = _normalize(embedding_matrix(batch["embedding"]))
        bucket = (v @ c.T).argmax(axis=1).astype(np.int64)
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "bucket": pa.array(bucket, pa.int64()),
                "embedding": batch["embedding"],
            }
        )

    def pairs_in_cluster(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id").reset_index(drop=True)
        if len(g) > group_cap:
            g = g.iloc[:group_cap]
        v = _normalize(np.asarray(list(g["embedding"]), dtype=np.float64))
        ids = g["vec_id"].to_numpy(dtype=np.int64)
        sims = v @ v.T
        ai, bj = np.nonzero(sims >= threshold)
        keep = ai < bj
        return pd.DataFrame(
            {
                "vec_a": pd.Series(ids[ai[keep]], dtype="int64"),
                "vec_b": pd.Series(ids[bj[keep]], dtype="int64"),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(pairs_in_cluster, batch_format="pandas")
        .to_pandas()
    )
    if "vec_a" not in out.columns:
        return pd.DataFrame(
            {"vec_a": pd.Series([], dtype="int64"), "vec_b": pd.Series([], dtype="int64")}
        )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# Incremental (snapshot-vs-snapshot) dedup with a Bloom prefilter
# ---------------------------------------------------------------------------


def _head_md5(text: str, n_words: int = 8) -> str:
    """Head fingerprint: md5 of the first n_words whitespace tokens —
    the coarse near-front dedup key (URL-less common-crawl head dedup).
    Tokenization matches the SQL twin's
    list_filter(string_split_regex(text,'\\s+'), w->w<>'')."""
    return hashlib.md5(" ".join(text.split()[:n_words]).encode()).hexdigest()


def incremental_dedup(sf_dir: str, n_words: int = 8) -> pd.DataFrame:
    """New-snapshot docs whose head fingerprint already exists in the
    old snapshot (old = odd doc_id, new = even doc_id — standing in for
    yesterday's crawl vs today's).

    The 100-TB shape is the point: the OLD key set never crosses the
    network. Pass 1 streams the old partition into per-block Bloom
    bitmaps (one 128 KiB blob per block, OR-merged on the driver —
    O(blocks), not O(rows)). The merged filter is ray.put ONCE; pass 2
    streams the new partition and keeps only bloom-positive candidates
    (no false negatives, so recall is exact). Pass 3 makes precision
    exact: the candidate key set (small — true dups + FP rate x |new|)
    is broadcast and the old partition is re-scanned for an is_in
    match, and only confirmed keys survive. Neither corpus side is
    ever collected or shuffled; the only driver state is O(blocks)
    blobs + the candidate set."""
    from ..stages.sketches import bloom_contains, bloom_merge, bloom_partial

    def heads(t: pa.Table) -> pa.Table:
        hm = [_head_md5(x, n_words) for x in t["text"].to_pylist()]
        return pa.table(
            {"doc_id": t["doc_id"], "head_md5": pa.array(hm, pa.string())}
        )

    def key_u64(hexes: list[str]) -> np.ndarray:
        return np.array([int(h[:16], 16) for h in hexes], dtype=np.uint64)

    def parity(p: int):
        def f(t: pa.Table) -> pa.Table:
            ids = pc.cast(t["doc_id"], pa.int64())
            return t.filter(pc.equal(pc.bit_wise_and(ids, 1), p))

        return f

    base = _docs(sf_dir).map_batches(heads, batch_format="pyarrow")
    old = base.map_batches(parity(1), batch_format="pyarrow")
    new = base.map_batches(parity(0), batch_format="pyarrow")

    # pass 1: per-block bloom partials over the old snapshot
    def old_partial(t: pa.Table) -> pd.DataFrame:
        blob = bloom_partial(key_u64(t["head_md5"].to_pylist()))
        return pd.DataFrame({"blob": [blob]})

    blobs = old.map_batches(old_partial, batch_format="pyarrow").to_pandas()
    bits_ref = ray.put(bloom_merge(list(blobs["blob"])))

    # pass 2: bloom-positive candidates from the new snapshot
    def probe(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        keep = bloom_contains(bits, key_u64(t["head_md5"].to_pylist()))
        return t.filter(pa.array(keep))

    cand = new.map_batches(probe, batch_format="pyarrow").to_pandas()
    if cand.empty:
        return pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"), "head_md5": pd.Series([], dtype="string")}
        )

    # pass 3: exact confirm — broadcast the candidate key set, re-scan
    # the old snapshot for membership, keep only truly-seen keys
    cand_keys = set(cand["head_md5"])
    keys_ref = ray.put(cand_keys)

    def confirm(t: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        mask = [h in ks for h in t["head_md5"].to_pylist()]
        return t.filter(pa.array(mask)).select(["head_md5"])

    seen = set(
        old.map_batches(confirm, batch_format="pyarrow").to_pandas()["head_md5"]
    )
    out = cand[cand["head_md5"].isin(seen)].copy()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["head_md5"] = out["head_md5"].astype(object)
    return out.sort_values("doc_id").reset_index(drop=True)


def incremental_dedup_sql(n_words: int = 8) -> str:
    return rf"""
        WITH heads AS (
          -- COALESCE: DuckDB's array_to_string([]) is NULL, but the
          -- engine's md5 of a token-less head is md5('') — a
          -- whitespace-only doc still has a (degenerate) fingerprint
          SELECT doc_id,
                 md5(COALESCE(array_to_string(
                     list_filter(string_split_regex(text, '\s+'), w -> w <> '')[1:{n_words}],
                     ' '), '')) AS head_md5
          FROM documents
        )
        SELECT d.doc_id, d.head_md5
        FROM heads d
        WHERE d.doc_id % 2 = 0
          AND EXISTS (SELECT 1 FROM heads o
                      WHERE o.doc_id % 2 = 1 AND o.head_md5 = d.head_md5)
        ORDER BY d.doc_id
    """


# ---------------------------------------------------------------------------
# containment (near-superset) dedup
# ---------------------------------------------------------------------------


def containment_dedup(
    sf_dir: str,
    threshold: float = 0.9,
    k: int = 5,
    df_cap: int | None = None,
    lsh_union: bool = False,
) -> pd.DataFrame:
    """EXACT containment near-dup pairs: |A∩B| / min(|A|,|B|) >=
    threshold over k-char shingle sets — the quote/boilerplate-
    inclusion axis Jaccard misses (a small doc fully embedded in a big
    one has high containment but low Jaccard).

    Candidate generation is complete by an asymmetric prefix argument:
    if containment >= t, the common count is >= ceil(t * n_small), so
    the FIRST common shingle (in any fixed global order) lies inside
    the SMALLER set's n - ceil(t*n) + 1 prefix (same lemma as
    _prefix_rows); nothing bounds it within the larger set, so every
    doc is indexed on ALL its shingles (role="index") and probed on
    its prefix (role="probe"). The index side costs total-shingle
    rows — the inverted-index exchange, inherent to exact containment
    (this is SSJoin/PPJoin for an asymmetric overlap predicate).

    Two published prunes make the buckets survivable under hot
    shingles (synthetic corpus: 2k-shingle vocabulary, df up to 0.8N):
    (1) the global order is DOCUMENT-FREQUENCY ascending (rarest
    first), computed by a distributed df pass and broadcast once
    (vocabulary-sized — tiny here; at web scale, df of the frequent
    tail via a sample with rare-by-default), so prefixes hold rare
    shingles and buckets stay small; (2) the PPJoin positional upper
    bound 1 + min(|A|-i-1, |B|-j-1) >= ceil(t * min(|A|,|B|)) prunes
    pairs whose shared shingle sits too late in either list — sound
    because the FIRST common shingle's bucket always passes it.
    Candidates are then exactly verified by the same distributed judge
    shape as minhash_lsh_dedup, with the containment division int/int
    float64 so the SQL twin hashes bit-for-bit.

    `df_cap` is the SCALE path (see containment_dedup_dfcap): with it
    set, candidate generation runs on each doc's RARE-shingle subset
    only (df <= df_cap; since the global rank order is df-ascending
    this is the single comparison rank < n_rare). Posting lists are
    then bounded by df_cap, so candidates are bounded by
    vocab * df_cap^2 — linear in the corpus for a fixed vocabulary —
    at the cost of completeness: a true pair whose every shared
    shingle is hot (df > df_cap) is missed (stop-shingle removal, the
    standard SSJoin scale trade; recall pinned by pytest vs the exact
    variant). Verification is UNCHANGED — exact containment over the
    FULL shingle sets — so reported pairs are never false positives,
    and df_cap=None is bit-for-bit the exact operator."""
    import math

    # pass 0: exact global document frequencies. shard = f(shingle)
    # puts every occurrence of a shingle in one shard, so a per-shard
    # value_counts IS the global df; the driver only ever holds the
    # vocabulary-sized (shingle, df) table.
    def shingle_rows(batch: pa.Table) -> pa.Table:
        vals = []
        for text in batch["text"].to_pylist():
            vals.append(char_shingles_u64(text, k))
        sh = np.concatenate(vals) if vals else np.empty(0, np.uint64)
        return pa.table(
            {
                "shingle": pa.array(sh, pa.uint64()),
                "shard": pa.array(
                    ((sh * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(N_SHARDS)).astype(
                        np.int32
                    ),
                    pa.int32(),
                ),
            }
        )

    def df_of_shard(g: pd.DataFrame) -> pd.DataFrame:
        u, c = np.unique(g["shingle"].to_numpy(), return_counts=True)
        return pd.DataFrame(
            {"shingle": pd.Series(u, dtype="uint64"), "df": pd.Series(c, dtype="int64")}
        )

    df_tab = (
        _docs(sf_dir)
        .map_batches(shingle_rows, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(df_of_shard, batch_format="pandas")
        .to_pandas()
    )
    vocab = df_tab["shingle"].to_numpy(dtype=np.uint64)
    dfs = df_tab["df"].to_numpy(dtype=np.int64)
    vorder = np.argsort(vocab, kind="mergesort")
    vocab_sorted, dfs_sorted = vocab[vorder], dfs[vorder]
    # global rank: df ascending, shingle value tie-break
    rank_of_sorted = np.empty(len(vocab_sorted), dtype=np.int64)
    rank_of_sorted[np.lexsort((vocab_sorted, dfs_sorted))] = np.arange(len(vocab_sorted))
    order_ref = ray.put((vocab_sorted, rank_of_sorted))
    # ranks are df-ascending, so "df <= df_cap" is "rank < n_rare"
    n_rare = int(np.count_nonzero(dfs_sorted <= df_cap)) if df_cap is not None else -1

    def rows(batch: pa.Table) -> pa.Table:
        voc, rk = ray.get(order_ref)
        doc_ids, ranks, roles, poss, sizes, shards = [], [], [], [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            sh = char_shingles_u64(text, k)
            r = np.sort(rk[np.searchsorted(voc, sh)])
            if n_rare >= 0:
                r = r[r < n_rare]
            n = len(r)
            p = n - math.ceil(threshold * n) + 1 if n else 0
            doc_ids.extend([doc_id] * n)
            ranks.extend(r.tolist())
            roles.extend([1] * p + [0] * (n - p))
            poss.extend(range(n))
            sizes.extend([n] * n)
            shards.extend(
                (
                    (r.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                    % np.uint64(N_SHARDS)
                )
                .astype(np.int32)
                .tolist()
            )
        return pa.table(
            {
                "shard": pa.array(shards, pa.int32()),
                "rank": pa.array(ranks, pa.int64()),
                "doc_id": pa.array(doc_ids, pa.int64()),
                "role": pa.array(roles, pa.int8()),
                "pos": pa.array(poss, pa.int32()),
                "size": pa.array(sizes, pa.int32()),
            }
        )

    def cands_of_shard(g: pd.DataFrame) -> pd.DataFrame:
        keys = []
        for _rk, grp in g.groupby("rank", sort=False):
            pm = grp["role"].to_numpy() == 1
            if not pm.any() or len(grp) < 2:
                continue
            ids = grp["doc_id"].to_numpy()
            pos = grp["pos"].to_numpy(dtype=np.int64)
            size = grp["size"].to_numpy(dtype=np.int64)
            if len(ids) > BUCKET_CAP:
                # NO truncation here — dropping index rows would break
                # the candidate-complete contract (the exactness this
                # op exists for). df-ascending ordering keeps probes
                # out of hot buckets, so a hot bucket with probes is a
                # genuine dense corpus: warn and pay the fan-out.
                print(
                    f"containment: hot rank bucket {len(ids)} "
                    f"(> {BUCKET_CAP}); candidate fan-out will be large"
                )
            pi = np.flatnonzero(pm)
            # probe x index cross with the PPJoin positional bound
            a = np.repeat(pi, len(ids))
            b = np.tile(np.arange(len(ids)), len(pi))
            m = ids[a] != ids[b]
            a, b = a[m], b[m]
            ub = 1 + np.minimum(size[a] - pos[a] - 1, size[b] - pos[b] - 1)
            need = np.ceil(threshold * np.minimum(size[a], size[b])).astype(np.int64)
            m2 = ub >= need
            a, b = a[m2], b[m2]
            if len(a):
                keys.append(
                    np.minimum(ids[a], ids[b]) * (1 << 32) + np.maximum(ids[a], ids[b])
                )
        if not keys:
            return pd.DataFrame(
                {"doc_a": pd.Series([], dtype="int64"), "doc_b": pd.Series([], dtype="int64")}
            )
        uk = np.unique(np.concatenate(keys))
        return pd.DataFrame(
            {
                "doc_a": pd.Series(uk >> 32, dtype="int64"),
                "doc_b": pd.Series(uk & ((1 << 32) - 1), dtype="int64"),
            }
        )

    cand_ds = (
        _docs(sf_dir)
        .map_batches(rows, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(cands_of_shard, batch_format="pandas")
    )

    # Exact verify via broadcast BITSET signatures. The df pass bounded
    # the vocabulary, so each doc's shingle set packs into vocab/8
    # bytes indexed by global rank; the whole signature matrix is
    # docs x vocab/8 (1.3 MB at the fixture) — ray.put once, and every
    # candidate batch verifies with one vectorized AND + popcount, no
    # per-pair text shipping or re-shingling. Candidates stay a
    # DATASET: a dense corpus can make SSJoin emit millions of
    # candidates (measured 6.2M at sf0.1 — 2k-shingle vocabulary), and
    # they flow straight into the verify stage; duplicates across rank
    # buckets are verified redundantly (cheap) and collapsed on the
    # tiny verified set. Scale contract: signatures are
    # O(docs x vocab); for open vocabularies swap in the
    # text-shipping pair judge of _verify_pairs_distributed.
    n_words = (len(vocab_sorted) + 63) // 64

    def sig_rows(batch: pa.Table) -> pa.Table:
        voc, rk = ray.get(order_ref)
        ids_out, sigs, pops = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            r = rk[np.searchsorted(voc, char_shingles_u64(text, k))]
            w = np.zeros(n_words, dtype=np.uint64)
            np.bitwise_or.at(
                w, r // 64, np.uint64(1) << (r % 64).astype(np.uint64)
            )
            ids_out.append(doc_id)
            sigs.append(w.tobytes())
            pops.append(len(r))
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "sig": pa.array(sigs, pa.binary()),
                "npop": pa.array(pops, pa.int64()),
            }
        )

    sig_tab = _docs(sf_dir).map_batches(sig_rows, batch_format="pyarrow").to_pandas()
    sig_tab = sig_tab.sort_values("doc_id").reset_index(drop=True)
    sig_ids = sig_tab["doc_id"].to_numpy(dtype=np.int64)
    sig_mat = np.frombuffer(b"".join(sig_tab["sig"]), dtype=np.uint64).reshape(
        len(sig_tab), n_words
    )
    sig_pops = sig_tab["npop"].to_numpy(dtype=np.int64)
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
    sig_ref = ray.put((sig_ids, sig_mat, sig_pops, _POP8))

    def verify(t: pa.Table) -> pa.Table:
        ids_s, mat, pops, pop8 = ray.get(sig_ref)
        if t.num_rows == 0 or "doc_a" not in t.column_names:
            return pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "containment": pa.array([], pa.float64()),
                }
            )
        da = t["doc_a"].to_numpy()
        db = t["doc_b"].to_numpy()
        ia = np.searchsorted(ids_s, da)
        ib = np.searchsorted(ids_s, db)
        inter = mat[ia] & mat[ib]
        c = pop8[inter.view(np.uint8)].reshape(len(da), -1).sum(axis=1).astype(np.int64)
        cont = c / np.minimum(pops[ia], pops[ib])
        m = cont >= threshold
        return pa.table(
            {
                "doc_a": pa.array(da[m], pa.int64()),
                "doc_b": pa.array(db[m], pa.int64()),
                "containment": pa.array(cont[m], pa.float64()),
            }
        )

    out = cand_ds.map_batches(verify, batch_format="pyarrow").to_pandas()
    if lsh_union:
        # second candidate source, orthogonal to df skew: banded
        # MinHash pairs (high-Jaccard mass — which containment pairs
        # of comparable size always are: C >= t with |A| ~ |B| implies
        # J >= t/(2-t)); containment-verified with the SAME bitset
        # judge, so the union stays false-positive-free. J-threshold
        # 0.5 keeps the verify filter permissive; band recall below
        # the banding's design threshold is insurance, not a contract.
        lsh_pairs = minhash_lsh_dedup(sf_dir, threshold=0.5)
        if len(lsh_pairs):
            extra = verify(
                pa.table(
                    {
                        "doc_a": pa.array(
                            lsh_pairs["doc_a"].to_numpy(dtype=np.int64), pa.int64()
                        ),
                        "doc_b": pa.array(
                            lsh_pairs["doc_b"].to_numpy(dtype=np.int64), pa.int64()
                        ),
                    }
                )
            ).to_pandas()
            out = pd.concat([out, extra], ignore_index=True)
    if not len(out):
        return _empty_pairs("containment", "float64")
    out = out.drop_duplicates(["doc_a", "doc_b"])
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def containment_dedup_sql(threshold: float = 0.9, k: int = 5) -> str:
    """Exact containment pair set over the same shingle expression as
    minhash_lsh_dedup_sql; the division is CAST(c AS DOUBLE) /
    least(...) so doubles hash-match the engine's int/int float64."""
    return f"""
        WITH sh AS MATERIALIZED (
          SELECT doc_id,
                 list_distinct([substr(lower(text), CAST(x AS INT), {k})
                                FOR x IN range(1, greatest(length(text) - {k - 2}, 2))]) AS s
          FROM documents
        ), p AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                 len(list_intersect(a.s, b.s)) AS c,
                 least(len(a.s), len(b.s)) AS m
          FROM sh a JOIN sh b ON a.doc_id < b.doc_id
        )
        SELECT doc_a, doc_b, CAST(c AS DOUBLE) / m AS containment
        FROM p WHERE CAST(c AS DOUBLE) / m >= {threshold}
        ORDER BY doc_a, doc_b
    """


def containment_dedup_dfcap(
    sf_dir: str,
    threshold: float = 0.9,
    k: int = 5,
    df_cap: int = 1024,
    lsh_union: bool = True,
) -> pd.DataFrame:
    """SCALE sibling of containment_dedup: stop-shingle-capped SSJoin.

    The exact operator is candidate-complete, which in a dense-vocab
    regime (fixed shingle vocabulary, posting lists growing with the
    corpus) makes candidate pairs grow ~quadratically — the named
    super-linear cell in the round-4 sf1 probe (2.6 s -> 130 s at 10x).
    This sibling generates candidates from TWO bounded sources and
    verifies both with exact containment over the full shingle sets
    (no false positives; the approximation is recall-only):

      (1) df-capped SSJoin — indexes/probes only shingles with
          document frequency <= df_cap, bounding every posting list by
          df_cap and total candidates by vocab * df_cap^2, LINEAR in
          corpus size for a fixed vocabulary; catches small-in-big
          pairs through the small side's rare shingles;
      (2) banded MinHash (lsh_union) — catches the high-Jaccard mass
          (comparable-size containment pairs have J >= t/(2-t))
          independent of the df distribution, with LSH's own
          bucket-capped scale contract.

    A pair is missed only if it is BOTH low-Jaccard (strongly skewed
    sizes) AND shares nothing rarer than df_cap — at web scale (open
    vocabulary, thin posting lists) a vanishing class. Measured on the
    adversarial fixed-2k-vocab sf1 corpus (posting lists up to 8% of
    50k docs): recall 0.90 in 13 s vs the exact op's 186 s, with the
    recall/cost knob measured at df_cap 256/512/1024/4096 ->
    0.33/0.52/0.64/0.98 (dfcap source alone) — recorded in
    BENCH/BASELINE.md. Pairs found are always a subset of
    containment_dedup's; fixture recall is pinned by pytest."""
    return containment_dedup(
        sf_dir, threshold=threshold, k=k, df_cap=df_cap, lsh_union=lsh_union
    )


def dedup_cluster_size_histogram(sf_dir: str, threshold: float = 0.8) -> pd.DataFrame:
    """Dedup report: the distribution of near-duplicate cluster sizes
    (how many components of the verified MinHash pair graph have 2,
    3, ... members) — the summary a corpus-dedup run publishes to show
    how much boilerplate collapses into how few groups. Derives from
    the dedup_clusters labeling; the histogram is a bounded
    count-of-counts fold."""
    labels = dedup_clusters(sf_dir, threshold=threshold)
    sizes = labels.groupby("cluster_id").size()
    out = (
        pd.DataFrame({"cluster_size": sizes.to_numpy()})
        .groupby("cluster_size", as_index=False)
        .size()
        .rename(columns={"size": "n_clusters"})
        .sort_values("cluster_size")
        .reset_index(drop=True)
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def dedup_cluster_size_histogram_sql(threshold: float = 0.8, k: int = 5) -> str:
    return f"""
        SELECT cluster_size, COUNT(*) AS n_clusters
        FROM (
            SELECT cluster_id, CAST(COUNT(*) AS BIGINT) AS cluster_size
            FROM ({dedup_clusters_sql(threshold, k)})
            GROUP BY 1
        )
        GROUP BY 1 ORDER BY 1
    """


def split_leakage_scan(sf_dir: str, threshold: float = 0.8) -> pd.DataFrame:
    """Eval-hygiene scan: near-duplicate pairs that CROSS the
    train/val/test boundary — a test document whose near-dup sits in
    train is leaked evaluation signal (the split was made by hash, the
    dup structure by content; nothing guarantees they agree). Composes
    the verified near-dup pair set with the deterministic split
    assignment and reports, per (split_a, split_b) class, the crossing
    pair count — plus the within-split pairs for contrast."""
    from pdfrust_ray.pipelines.datasetops import dataset_split

    pairs = minhash_lsh_dedup(sf_dir)
    split = dataset_split(sf_dir).set_index("doc_id")["split"]
    sa = split.loc[pairs["doc_a"].to_numpy()].to_numpy()
    sb = split.loc[pairs["doc_b"].to_numpy()].to_numpy()
    lo = np.minimum(sa, sb)
    hi = np.maximum(sa, sb)
    df = pd.DataFrame({"split_a": lo, "split_b": hi})
    out = (
        df.groupby(["split_a", "split_b"], as_index=False)
        .size()
        .rename(columns={"size": "n_pairs"})
        .sort_values(["split_a", "split_b"])
        .reset_index(drop=True)
    )
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out


def split_leakage_scan_sql(threshold: float = 0.8, k: int = 5) -> str:
    from pdfrust_ray.pipelines.datasetops import dataset_split_sql

    return f"""
        WITH pairs AS ({minhash_lsh_dedup_sql(threshold, k)}),
        split AS ({dataset_split_sql()})
        SELECT LEAST(a.split, b.split) AS split_a,
               GREATEST(a.split, b.split) AS split_b,
               COUNT(*) AS n_pairs
        FROM pairs p
        JOIN split a ON a.doc_id = p.doc_a
        JOIN split b ON b.doc_id = p.doc_b
        GROUP BY 1, 2 ORDER BY 1, 2
    """


def bloom_dedup_audit(
    sf_dir: str, m_bits: int = 1 << 16, k_hashes: int = 4, n_probes: int = 10000
) -> pd.DataFrame:
    """Bloom-filter membership audit for streaming dedup: build a
    distributed Bloom filter over every document fingerprint, then
    (a) re-probe every member — the filter's no-false-negative
    guarantee must hold exactly — and (b) probe n_probes keys that were
    NEVER inserted, measuring the empirical false-positive rate against
    the theoretical (1-(1-1/m)^{kn})^k. This is the audit a pipeline
    runs before trusting a Bloom pre-filter in front of an exact dedup
    (the pre-filter drops exact-check work for definite-new items).

    Distributed plan: per-batch partials OR their bits into a LOCAL
    word array and emit only the nonzero (word_idx, word) rows; the
    build reduces through a groupby with a custom bitwise-OR
    AggregateFn (<= m/64 rows ever exchanged); the assembled filter
    broadcasts once via ray.put and both probe passes are
    embarrassingly parallel map_batches. No driver scan of documents."""
    import numpy as np

    from ray.data.aggregate import AggregateFn, Sum

    n_words = m_bits // 64

    def _indices(keys: list[bytes]) -> np.ndarray:
        """[n, k_hashes] bit indices: the md5 digest's first 8 bytes
        sliced into four 16-bit words (arbitrary-length keys; the
        single-block md5vec kernel only covers short keys)."""
        import hashlib

        buf = b"".join(hashlib.md5(k).digest()[:8] for k in keys)
        idx = np.frombuffer(buf, dtype=np.uint16).reshape(len(keys), 4).astype(np.uint64)
        return (idx % m_bits)[:, :k_hashes]

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def build_partial(t: pa.Table) -> pa.Table:
        keys = [s.encode() for s in t["text"].to_pylist()]
        words = np.zeros(n_words, dtype=np.uint64)
        if keys:
            idx = _indices(keys).ravel()
            np.bitwise_or.at(words, idx // 64, np.uint64(1) << (idx % np.uint64(64)))
        nz = np.flatnonzero(words)
        return pa.table(
            {
                "word_idx": pa.array(nz.astype(np.int64), pa.int64()),
                # store as int64 bit pattern (Arrow has no uint64 sums to avoid)
                "w": pa.array(words[nz].view(np.int64), pa.int64()),
            }
        )

    bit_or = AggregateFn(
        init=lambda k: 0,
        merge=lambda a, b: a | b,
        accumulate_row=lambda a, row: a | int(row["w"]),
        name="w",
    )
    built = (
        ds.map_batches(build_partial, batch_format="pyarrow")
        .groupby("word_idx")
        .aggregate(bit_or)
        .to_pandas()
    )
    words = np.zeros(n_words, dtype=np.int64)
    words[built["word_idx"].to_numpy()] = built["w"].to_numpy()
    words = words.view(np.uint64)
    bloom_ref = ray.put(words)

    def member_mask(keys: list[bytes], w: np.ndarray) -> np.ndarray:
        idx = _indices(keys)
        bits = (w[idx // 64] >> (idx % np.uint64(64))) & np.uint64(1)
        return bits.all(axis=1)

    def reprobe(t: pa.Table) -> pa.Table:
        w = ray.get(bloom_ref)
        keys = [s.encode() for s in t["text"].to_pylist()]
        found = int(member_mask(keys, w).sum()) if keys else 0
        return pa.table(
            {"n": pa.array([t.num_rows], pa.int64()), "found": pa.array([found], pa.int64())}
        )

    members = ds.map_batches(reprobe, batch_format="pyarrow").aggregate(
        Sum("n", alias_name="n_docs"), Sum("found", alias_name="n_found")
    )
    n_docs, n_found = int(members["n_docs"]), int(members["n_found"])

    probes = rd.range(n_probes)

    def probe(t: pa.Table) -> pa.Table:
        w = ray.get(bloom_ref)
        keys = [f"probe:{i}".encode() for i in t["id"].to_pylist()]
        fp = int(member_mask(keys, w).sum()) if keys else 0
        return pa.table({"fp": pa.array([fp], pa.int64())})

    n_fp = int(
        probes.map_batches(probe, batch_format="pyarrow").aggregate(
            Sum("fp", alias_name="fp")
        )["fp"]
    )
    theo = float((1.0 - (1.0 - 1.0 / m_bits) ** (k_hashes * n_docs)) ** k_hashes)
    return pd.DataFrame(
        {
            "n_docs": pd.Series([n_docs], dtype="int64"),
            "n_members_found": pd.Series([n_found], dtype="int64"),
            "n_probes": pd.Series([n_probes], dtype="int64"),
            "n_false_positives": pd.Series([n_fp], dtype="int64"),
            "theoretical_fpp": pd.Series([round(theo, 8)], dtype="float64"),
        }
    )


def dedup_method_overlap(sf_dir: str) -> pd.DataFrame:
    """Method-agreement audit: how much of the MinHash-verified
    near-dup pair set does SimHash banding also find, and vice versa —
    the calibration table a dedup rollout uses to pick (and trust) a
    method. One summary row: pair counts for each method, the
    intersection, and each method's exclusive remainder.

    Distributed plan: both inputs are the existing distributed
    pipelines (banded shuffles, capped buckets, distributed verifies);
    only their verified PAIR SETS — already driver-bounded by
    construction in both — are set-joined here. The SQL twin recomputes
    both pair sets exactly (shingle-Jaccard and simhash-Hamming) and
    full-joins them, so the agreement numbers are value-exact."""
    mh = minhash_lsh_dedup(sf_dir)[["doc_a", "doc_b"]]
    sh = simhash_dedup(sf_dir)[["doc_a", "doc_b"]]
    m = set(map(tuple, mh.to_numpy()))
    s = set(map(tuple, sh.to_numpy()))
    both = len(m & s)
    return pd.DataFrame(
        {
            "n_minhash": [len(m)],
            "n_simhash": [len(s)],
            "n_both": [both],
            "n_minhash_only": [len(m) - both],
            "n_simhash_only": [len(s) - both],
        }
    )


def dedup_method_overlap_sql() -> str:
    mh = minhash_lsh_dedup_sql()
    sh = simhash_dedup_sql()
    return f"""
        WITH mh AS MATERIALIZED (
            SELECT doc_a, doc_b FROM ({mh})
        ), sh AS MATERIALIZED (
            SELECT doc_a, doc_b FROM ({sh})
        ), j AS (
            SELECT COALESCE(mh.doc_a, sh.doc_a) AS a,
                   mh.doc_a IS NOT NULL AS in_m,
                   sh.doc_a IS NOT NULL AS in_s
            FROM mh FULL JOIN sh
              ON mh.doc_a = sh.doc_a AND mh.doc_b = sh.doc_b
        )
        SELECT CAST(SUM(CASE WHEN in_m THEN 1 ELSE 0 END) AS BIGINT) AS n_minhash,
               CAST(SUM(CASE WHEN in_s THEN 1 ELSE 0 END) AS BIGINT) AS n_simhash,
               CAST(SUM(CASE WHEN in_m AND in_s THEN 1 ELSE 0 END) AS BIGINT) AS n_both,
               CAST(SUM(CASE WHEN in_m AND NOT in_s THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_minhash_only,
               CAST(SUM(CASE WHEN in_s AND NOT in_m THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_simhash_only
        FROM j
    """


def prefix_cluster_keep_best(sf_dir: str, k_prefix: int = 5) -> pd.DataFrame:
    """Survivorship dedup over PREFIX clusters: documents opening with
    the same first-k tokens are candidate near-duplicates (template
    instantiations, boilerplate-led copies); within each cluster keep
    the HIGHEST-QUALITY member (distinct-token ratio in per-mille,
    ties to the lowest doc_id) — the 'which copy survives' policy real
    curations apply. Returns the clusters with >= 2 members. (Exact
    duplicates share quality by construction, so the policy only
    bites where members differ — which prefix clusters guarantee.)

    Distributed plan: quality is per-row (stateless map); the argmax
    folds through ONE single-key Max over a packed
    (quality << 32 | ~doc_id) sort key — same packed-argmax trick as
    best_supplier_per_part, so no window shuffle; text is dropped
    before the exchange (the hash carries identity)."""
    import numpy as np

    ds = _docs(sf_dir)

    def prep(t: pa.Table) -> pa.Table:
        qs = []
        for txt in t["text"].to_pylist():
            ws = txt.split()
            qs.append((len(set(ws)) * 1000) // len(ws) if ws else 0)
        q = np.asarray(qs, dtype=np.int64)
        did = t["doc_id"].to_numpy().astype(np.int64)
        if len(did) and int(did.max()) >= (1 << 32) - 1:
            raise ValueError("doc_id exceeds the packing bound")
        key = (q << 32) | ((1 << 32) - 1 - did)
        th = [
            hashlib.md5(" ".join(x.split()[:k_prefix]).encode("utf-8")).hexdigest()
            for x in t["text"].to_pylist()
        ]
        return pa.table(
            {
                "prefix_hash": pa.array(th, pa.string()),
                "key": pa.array(key, pa.int64()),
            }
        )

    from ray.data.aggregate import Count, Max

    out = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("prefix_hash")
        .aggregate(Max("key", alias_name="key"), Count(alias_name="dup_count"))
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["dup_count"], 2)),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    out["kept_doc_id"] = ((1 << 32) - 1 - (out["key"] % (1 << 32))).astype("int64")
    out["quality_pm"] = (out["key"] // (1 << 32)).astype("int64")
    out["dup_count"] = out["dup_count"].astype("int64")
    return (
        out[["prefix_hash", "kept_doc_id", "quality_pm", "dup_count"]]
        .sort_values("prefix_hash")
        .reset_index(drop=True)
    )


def prefix_cluster_keep_best_sql(k_prefix: int = 5) -> str:
    return rf"""
        WITH q AS (
            -- COALESCE: array_to_string([]) is NULL in DuckDB; the
            -- engine fingerprints a token-less head as md5('')
            SELECT doc_id,
                   md5(COALESCE(array_to_string(
                       list_filter(string_split_regex(text, '\s+'),
                                   w -> w <> '')[1 : {k_prefix}], ' '), ''))
                       AS prefix_hash,
                   CASE WHEN len(list_filter(string_split_regex(text, '\s+'),
                                             w -> w <> '')) = 0 THEN 0
                        ELSE len(list_distinct(list_filter(
                                 string_split_regex(text, '\s+'), w -> w <> '')))
                             * 1000
                             // len(list_filter(string_split_regex(text, '\s+'),
                                                w -> w <> '')) END AS qpm
            FROM documents
        ), ranked AS (
            SELECT prefix_hash, doc_id, qpm,
                   ROW_NUMBER() OVER (PARTITION BY prefix_hash
                                      ORDER BY qpm DESC, doc_id) AS rn,
                   COUNT(*) OVER (PARTITION BY prefix_hash) AS dup_count
            FROM q
        )
        SELECT prefix_hash, CAST(doc_id AS BIGINT) AS kept_doc_id,
               CAST(qpm AS BIGINT) AS quality_pm,
               CAST(dup_count AS BIGINT) AS dup_count
        FROM ranked WHERE rn = 1 AND dup_count >= 2
        ORDER BY prefix_hash
    """


def dedup_weight_correction(sf_dir: str) -> pd.DataFrame:
    """Distribution-preserving dedup accounting: after exact dedup the
    kept copy should carry its group's multiplicity as a WEIGHT (train
    on unique text, weight by how often it occurred) — this op reports,
    per language, the kept-doc count, their raw token count, and the
    duplicate-weighted token count the sampler should target. The gap
    between the last two columns is exactly what naive dedup distorts.

    Distributed plan: one md5-keyed fold picks each group's kept doc
    (min doc_id) and multiplicity; languages/token-counts ride along
    packed so no second scan or join is needed (lang and tokens are
    functions of the text, identical within a group)."""
    import numpy as np

    ds = _docs(sf_dir, columns=("doc_id", "text", "lang"))

    def prep(t: pa.Table) -> pa.Table:
        th, toks = [], []
        for txt in t["text"].to_pylist():
            th.append(hashlib.md5(txt.encode("utf-8")).hexdigest())
            toks.append(len(txt.split()))
        return pa.table(
            {
                "text_hash": pa.array(th, pa.string()),
                "lang": t["lang"],
                "n_tokens": pa.array(toks, pa.int64()),
                "one": pa.array(np.ones(len(t), dtype=np.int64), pa.int64()),
            }
        )

    from ray.data.aggregate import Max, Sum

    groups = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["text_hash", "lang", "n_tokens"])  # lang/tokens constant per hash
        .aggregate(Sum("one", alias_name="dup_count"))
    )

    def finalize(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return pa.table(
            {
                "lang": t["lang"],
                "kept": _pc.cast(_pc.greater(t["dup_count"], 0), pa.int64()),
                "raw_tokens": t["n_tokens"],
                "weighted_tokens": _pc.multiply(t["n_tokens"], t["dup_count"]),
            }
        )

    out = (
        groups.map_batches(finalize, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("kept", alias_name="n_docs_kept"),
            Sum("raw_tokens", alias_name="tokens_kept"),
            Sum("weighted_tokens", alias_name="tokens_weighted"),
        )
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    for c in ("n_docs_kept", "tokens_kept", "tokens_weighted"):
        out[c] = out[c].astype("int64")
    return out


def dedup_weight_correction_sql() -> str:
    return r"""
        WITH g AS (
            SELECT md5(text) AS h, lang,
                   len(list_filter(string_split_regex(text, '\s+'),
                                   w -> w <> '')) AS n_tokens,
                   COUNT(*) AS dup_count
            FROM documents GROUP BY 1, 2, 3
        )
        SELECT lang,
               CAST(COUNT(*) AS BIGINT) AS n_docs_kept,
               CAST(SUM(n_tokens) AS BIGINT) AS tokens_kept,
               CAST(SUM(n_tokens * dup_count) AS BIGINT) AS tokens_weighted
        FROM g GROUP BY 1 ORDER BY 1
    """


def cluster_lang_purity(sf_dir: str) -> pd.DataFrame:
    """Label-consistency audit of the near-dup clusters: how many
    distinct language labels does each connected component of the
    exact-Jaccard pair graph span? A multi-lang cluster means
    mislabeled language metadata or cross-lingual templating — both
    things a curation wants surfaced before per-language sampling.
    Output: (n_langs, n_clusters) histogram.

    Distributed plan: clusters come from the existing dedup_clusters
    pipeline (shuffle-shaped label propagation); languages attach via
    a pushed-down doc_id read of only the clustered docs (clusters are
    a tiny fraction of the corpus by construction); the histogram
    folds on the cluster-table-sized frame."""
    clusters = dedup_clusters(sf_dir)
    if not len(clusters):
        return pd.DataFrame(
            {"n_langs": pd.Series([], dtype="int64"),
             "n_clusters": pd.Series([], dtype="int64")}
        )
    import pyarrow.parquet as _pq

    ids = sorted(int(x) for x in clusters["doc_id"])
    langs = _pq.read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang"],
        filters=[("doc_id", "in", ids)],
    ).to_pandas()
    j = clusters.merge(langs, on="doc_id")
    per = j.groupby("cluster_id")["lang"].nunique()
    hist = per.value_counts().sort_index()
    return pd.DataFrame(
        {"n_langs": hist.index.astype("int64"), "n_clusters": hist.to_numpy().astype("int64")}
    ).reset_index(drop=True)


def cluster_lang_purity_sql(threshold: float = 0.8, k: int = 5) -> str:
    cc = dedup_clusters_sql(threshold=threshold, k=k)
    return f"""
        WITH cc AS MATERIALIZED (
            SELECT doc_id, cluster_id FROM ({cc})
        ), per AS (
            SELECT cluster_id, COUNT(DISTINCT d.lang) AS n_langs
            FROM cc JOIN documents d USING (doc_id)
            GROUP BY 1
        )
        SELECT CAST(n_langs AS BIGINT) AS n_langs,
               CAST(COUNT(*) AS BIGINT) AS n_clusters
        FROM per GROUP BY 1 ORDER BY 1
    """


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def simhash_hamming_histogram(sf_dir: str) -> pd.DataFrame:
    """Pairwise Hamming-distance histogram over the 64-bit SimHash
    signatures of every document pair — the similarity-landscape audit
    that tells you where to put the near-dup threshold before running
    the dedup itself.  Exact SQL oracle: simhash64 is md5-based by
    design, so DuckDB rebuilds every signature and cross-joins
    bit_count(xor) (same _SIMHASH_SIG_CTE the pair oracle uses).

    Distributed plan (the embedding_pair_distance_histogram shape): the
    signature table is computed once with map_batches and materialized
    (16 B/doc — broadcastable to ~10^8 docs); each anchor batch XORs
    its signatures against the broadcast array for strictly-larger
    doc_ids, popcounts via a uint8 lookup, and reduces IN PLACE to a
    65-bin partial histogram — the exchange is histogram-sized, never
    pair-sized."""
    from ray.data.aggregate import Sum

    from ..functions.minhash import simhash64

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def sig(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        sigs = np.array(
            [simhash64(x) for x in t["text"].to_pylist()], dtype=np.uint64
        )
        return pa.table({"doc_id": pa.array(ids), "sig": pa.array(sigs.view(np.int64))})

    sig_ds = docs.map_batches(sig, batch_format="pyarrow").materialize()
    pdf = sig_ds.to_pandas().sort_values("doc_id")
    all_ids = pdf["doc_id"].to_numpy(np.int64)
    all_sigs = pdf["sig"].to_numpy(np.int64).view(np.uint64)
    bref = ray.put((all_ids, all_sigs))

    def partial(t: pa.Table) -> pa.Table:
        ids_, sigs_ = ray.get(bref)
        a_id = t["doc_id"].to_numpy(zero_copy_only=False)
        a_sig = t["sig"].to_numpy(zero_copy_only=False).view(np.uint64)
        hist = np.zeros(65, dtype=np.int64)
        for k in range(len(a_id)):
            start = np.searchsorted(ids_, a_id[k], side="right")
            if start >= len(ids_):
                continue
            x = sigs_[start:] ^ a_sig[k]
            h = _POP8[x.view(np.uint8).reshape(-1, 8)].sum(axis=1)
            hist += np.bincount(h, minlength=65)
        return pa.table({"hamming": pa.array(np.arange(65)), "n": pa.array(hist)})

    out = (
        sig_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hamming")
        .aggregate(Sum("n", alias_name="n_pairs"))
        .to_pandas()
    )
    out = out[out["n_pairs"] > 0].sort_values("hamming").reset_index(drop=True)
    return out.astype("int64")


def simhash_hamming_histogram_sql() -> str:
    return rf"""
        {_SIMHASH_SIG_CTE}
        SELECT CAST(bit_count(xor(a.lo, b.lo))
                    + bit_count(xor(a.hi, b.hi)) AS BIGINT) AS hamming,
               CAST(COUNT(*) AS BIGINT) AS n_pairs
        FROM sig0 a JOIN sig0 b ON a.doc_id < b.doc_id
        GROUP BY 1 ORDER BY 1
    """


def simhash_hamming_histogram_banded(sf_dir: str, n_bands: int = 4) -> pd.DataFrame:
    """SCALE SIBLING of simhash_hamming_histogram — the banded
    (LSH-bucketed) Hamming landscape.  The exact variant broadcasts
    the whole signature table to every task and scans all N^2/2 pairs;
    this one never materializes anything on the driver: each doc's
    64-bit SimHash is split into n_bands contiguous bit-slices, each
    doc emits n_bands (band, key) rows into ONE hash-bucket groupby,
    and each bucket histograms only its own co-located pairs.  A pair
    sharing several bands is counted once, in its FIRST shared band —
    checkable locally from the two sigs, so the dedup needs no
    pair-sized exchange; partials are 65-bin histograms merged by Sum.

    The guarantee that makes the truncation principled (pigeonhole):
    any pair with hamming < n_bands must agree on at least one of the
    n_bands slices, so bins 0 .. n_bands-1 are EXACT — and the audit's
    purpose is exactly that near-dup region (where to put the dedup
    threshold).  Bins >= n_bands count only banded candidates (a lower
    bound on the exact histogram; the agreement pytest pins both
    properties vs the exact variant).

    Scale shape at 100 TB: the exchange is n_bands rows/doc through a
    single groupby (signatures move, never documents); per-bucket work
    is proportional to the LSH candidate mass — the same collision
    structure the MinHash dedup itself pays — and the driver sees only
    the 65-bin result.  Hot buckets (mass duplication) cost m^2 inside
    one group, which IS the audit's signal; anchor rows stream through
    a vectorized XOR/popcount per anchor, never an m x m matrix.  The
    groupby key is a COARSE shard (bucket % 256), not the bucket
    itself: Ray dispatches Python once per group, and a corpus yields
    ~n_docs distinct buckets — per-bucket dispatch cost O(N) python
    calls (measured 12.4 s at 50k docs), per-shard O(256) with the
    buckets segmented by one sort inside the task (7.3 s).

    Honest crossover note (measured, /tmp/sf1, 50k docs): the exact
    variant's brute broadcast scan is still FASTER here (6.6 s vs
    7.3 s banded) — 1.25e9 vectorized XORs are cheap at 50k docs;
    banded wins asymptotically because exact's O(N) driver
    materialization and O(N^2) scan are infeasible at 10^9 docs while
    banded's work tracks the candidate mass (19.1M pairs = 1.5% of
    N^2 on this corpus) and its driver footprint is the 65-bin
    histogram.

    SQL-exact at the operating setting (not just a degenerate): the
    twin rebuilds the same band slices from the md5 signature CTE and
    keeps pairs agreeing on ANY band — set-identical to first-band
    counting.  Output: (hamming, n_pairs) int64, zero bins dropped,
    ORDER BY hamming."""
    from ray.data.aggregate import Sum

    from ..functions.minhash import simhash64

    assert 64 % n_bands == 0 and (64 // n_bands) <= 32, n_bands
    w = 64 // n_bands
    mask = np.uint64((1 << w) - 1)

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n_shards = 256

    def explode(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sigs = np.array(
            [simhash64(x) for x in t["text"].to_pylist()], dtype=np.uint64
        )
        buckets, out_sigs = [], []
        for j in range(n_bands):
            key = (sigs >> np.uint64(j * w)) & mask
            buckets.append((np.int64(j) << np.int64(w)) | key.astype(np.int64))
            out_sigs.append(sigs.view(np.int64))
        bk = np.concatenate(buckets)
        return pa.table(
            {
                "shard": pa.array(bk % n_shards),
                "bucket": pa.array(bk),
                "sig": pa.array(np.concatenate(out_sigs)),
            }
        )

    def shard_hist(g: pd.DataFrame) -> pd.DataFrame:
        bk = g["bucket"].to_numpy(np.int64)
        sg = g["sig"].to_numpy(np.int64).view(np.uint64)
        order = np.argsort(bk, kind="mergesort")
        bk, sg = bk[order], sg[order]
        bounds = np.flatnonzero(np.r_[True, bk[1:] != bk[:-1], True])
        hist = np.zeros(65, dtype=np.int64)
        for s, e in zip(bounds[:-1], bounds[1:]):
            m = e - s
            if m < 2:
                continue
            j = int(bk[s]) >> w
            sigs = np.sort(sg[s:e])
            for a in range(m - 1):
                x = sigs[a + 1 :] ^ sigs[a]
                # first-shared-band rule: skip pairs already counted in
                # an earlier band's bucket
                keep = np.ones(len(x), dtype=bool)
                for jp in range(j):
                    keep &= ((x >> np.uint64(jp * w)) & mask) != 0
                if not keep.any():
                    continue
                h = _POP8[x[keep].view(np.uint8).reshape(-1, 8)].sum(axis=1)
                hist += np.bincount(h, minlength=65)
        return pd.DataFrame(
            {
                "hamming": np.arange(65, dtype=np.int64),
                "n": hist,
            }
        )

    out = (
        docs.map_batches(explode, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(shard_hist, batch_format="pandas")
        .groupby("hamming")
        .aggregate(Sum("n", alias_name="n_pairs"))
        .to_pandas()
    )
    out = out[out["n_pairs"] > 0].sort_values("hamming").reset_index(drop=True)
    return out.astype("int64")


def simhash_band_skew_census(sf_dir: str, n_bands: int = 4) -> pd.DataFrame:
    """LSH health audit for the banded landscape (and any banded
    SimHash dedup): the distribution of band-bucket sizes, binned by
    floor(log2(size)) per band.  This is the number you read BEFORE
    paying the banded shuffle - sum(n_pairs) IS the candidate mass the
    banded histogram / dedup verify stage will touch, and a fat
    log2_size tail is the skew warning (mass duplication or a
    degenerate band slice).

    Scale shape: the same n_bands rows/doc exchange as the banded
    histogram, reduced per coarse shard (bucket % 256 - buckets never
    straddle shards) to (band, log2_size) partials; the global
    aggregate is histogram-sized.  Exact SQL twin from the md5
    signature CTE (same band slices; floor(log2(m)) is exact in
    float64 for m < 2^50).

    Output: (band, log2_size, n_buckets, n_pairs) int64 — n_pairs =
    sum of m*(m-1)/2 over that bin's buckets — ORDER BY band,
    log2_size."""
    from ray.data.aggregate import Sum

    from ..functions.minhash import simhash64

    assert 64 % n_bands == 0 and (64 // n_bands) <= 32, n_bands
    w = 64 // n_bands
    mask = np.uint64((1 << w) - 1)
    n_shards = 256

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def explode(t: pa.Table) -> pa.Table:
        sigs = np.array(
            [simhash64(x) for x in t["text"].to_pylist()], dtype=np.uint64
        )
        buckets = []
        for j in range(n_bands):
            key = (sigs >> np.uint64(j * w)) & mask
            buckets.append((np.int64(j) << np.int64(w)) | key.astype(np.int64))
        bk = np.concatenate(buckets)
        return pa.table({"shard": pa.array(bk % n_shards), "bucket": pa.array(bk)})

    def shard_census(g: pd.DataFrame) -> pd.DataFrame:
        bk = g["bucket"].to_numpy(np.int64)
        uniq, m = np.unique(bk, return_counts=True)
        band = uniq >> w
        lg = np.frompyfunc(lambda v: int(v).bit_length() - 1, 1, 1)(m).astype(
            np.int64
        )
        pairs = m.astype(np.int64) * (m.astype(np.int64) - 1) // 2
        df = pd.DataFrame(
            {"band": band, "log2_size": lg, "ones": 1, "pairs": pairs}
        )
        out = df.groupby(["band", "log2_size"], as_index=False).sum()
        return out.astype("int64")

    out = (
        docs.map_batches(explode, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(shard_census, batch_format="pandas")
        .groupby(["band", "log2_size"])
        .aggregate(
            Sum("ones", alias_name="n_buckets"),
            Sum("pairs", alias_name="n_pairs"),
        )
        .to_pandas()
    )
    return (
        out.sort_values(["band", "log2_size"])
        .reset_index(drop=True)
        .astype("int64")
    )


def simhash_band_skew_census_sql(n_bands: int = 4) -> str:
    """Exact twin: same md5 signatures and band slices; per-band
    bucket sizes via GROUP BY key, binned by floor(log2(m))."""
    assert 64 % n_bands == 0 and (64 // n_bands) <= 32, n_bands
    w = 64 // n_bands
    mask = (1 << w) - 1
    parts = []
    for j in range(n_bands):
        lo_bit = j * w
        half, shift = ("lo", lo_bit) if lo_bit < 32 else ("hi", lo_bit - 32)
        parts.append(
            f"SELECT {j} AS band, (({half} >> {shift}) & {mask}) AS key"
            " FROM sig0"
        )
    keys = "\n            UNION ALL ".join(parts)
    return rf"""
        {_SIMHASH_SIG_CTE}, bk AS (
            {keys}
        ), sizes AS (
            SELECT band, key, CAST(COUNT(*) AS BIGINT) AS m
            FROM bk GROUP BY 1, 2
        )
        SELECT CAST(band AS BIGINT) AS band,
               CAST(FLOOR(log2(m)) AS BIGINT) AS log2_size,
               CAST(COUNT(*) AS BIGINT) AS n_buckets,
               CAST(SUM(m * (m - 1) // 2) AS BIGINT) AS n_pairs
        FROM sizes GROUP BY 1, 2 ORDER BY 1, 2
    """


def simhash_hamming_histogram_banded_sql(n_bands: int = 4) -> str:
    """Exact twin at the operating setting: same md5 signatures, same
    band slices; a pair qualifies iff ANY slice agrees (set-identical
    to the engine's first-shared-band counting)."""
    assert 64 % n_bands == 0 and (64 // n_bands) <= 32, n_bands
    w = 64 // n_bands
    mask = (1 << w) - 1
    conds = []
    for j in range(n_bands):
        lo_bit = j * w
        half, shift = ("lo", lo_bit) if lo_bit < 32 else ("hi", lo_bit - 32)
        conds.append(f"((xor(a.{half}, b.{half}) >> {shift}) & {mask}) = 0")
    ors = "\n            OR ".join(conds)
    return rf"""
        {_SIMHASH_SIG_CTE}
        SELECT CAST(bit_count(xor(a.lo, b.lo))
                    + bit_count(xor(a.hi, b.hi)) AS BIGINT) AS hamming,
               CAST(COUNT(*) AS BIGINT) AS n_pairs
        FROM sig0 a JOIN sig0 b ON a.doc_id < b.doc_id
        WHERE {ors}
        GROUP BY 1 ORDER BY 1
    """


def lsh_plan_table(sf_dir: str, n_hashes: int = 128, grid: int = 20) -> pd.DataFrame:
    """LSH banding-parameter planner: for every (bands b, rows r)
    factorization of the n_hashes-minhash signature and every Jaccard
    similarity t on a 1/grid grid, the collision probability
    1-(1-t^r)^b plus the band scheme's threshold estimate (1/b)^(1/r)
    — the S-curve table a dedup owner reads to pick banding before
    committing a 100-TB shuffle (minhash_lsh_dedup's b=32 x r=4 row
    sits in this table).  Every row is an independent libm-pow
    expression, so the doubles hash-match the SQL twin exactly.

    Distributed plan: generated via ray.data.range -> map_batches
    (the grid is tiny; the op documents the planning math, the
    distribution pattern is the same per-batch pure function as any
    scoring stage)."""
    import math

    import numpy as np
    import ray.data as rd

    facts = [r for r in (1, 2, 4, 8, 16, 32, 64, 128) if n_hashes % r == 0]
    combos = [(n_hashes // r, r) for r in facts]

    ds = rd.range(len(combos) * grid)

    def rows(batch: dict) -> pa.Table:
        ids = batch["id"]
        b_, r_, t_, p_, thr_ = [], [], [], [], []
        for i in ids:
            ci, ti = divmod(int(i), grid)
            b, r = combos[ci]
            t = (ti + 1) / grid
            b_.append(b)
            r_.append(r)
            t_.append(t)
            p_.append(1.0 - math.pow(1.0 - math.pow(t, float(r)), float(b)))
            thr_.append(math.pow(1.0 / b, 1.0 / r))
        return pa.table(
            {
                "bands": pa.array(np.asarray(b_, np.int64)),
                "rows_per_band": pa.array(np.asarray(r_, np.int64)),
                "t": pa.array(np.asarray(t_, np.float64)),
                "p_collide": pa.array(np.asarray(p_, np.float64)),
                "threshold_est": pa.array(np.asarray(thr_, np.float64)),
            }
        )

    out = ds.map_batches(rows, batch_format="numpy").to_pandas()
    return out.sort_values(["bands", "t"]).reset_index(drop=True)


def lsh_plan_table_sql(n_hashes: int = 128, grid: int = 20) -> str:
    facts = [r for r in (1, 2, 4, 8, 16, 32, 64, 128) if n_hashes % r == 0]
    combos = " UNION ALL ".join(
        f"SELECT {n_hashes // r} AS bands, {r} AS rows_per_band" for r in facts
    )
    return f"""
        WITH combos AS ({combos}),
        grid AS (SELECT (UNNEST(range(1, {grid + 1})) * 1.0) / {grid} AS t)
        SELECT bands, rows_per_band, t,
               1.0 - POW(1.0 - POW(t, CAST(rows_per_band AS DOUBLE)),
                         CAST(bands AS DOUBLE)) AS p_collide,
               POW(1.0 / bands, 1.0 / rows_per_band) AS threshold_est
        FROM combos CROSS JOIN grid
        ORDER BY bands, t
    """


def bloom_dedup_audit_sql(
    m_bits: int = 1 << 16, k_hashes: int = 4, n_probes: int = 10000
) -> str:
    """EXACT DuckDB twin of bloom_dedup_audit: the bit indices are a
    pure function of md5 (first 8 digest bytes as 4 little-endian
    uint16 words, m_bits = 2^16 so the modulo is the identity), so the
    filter's bit SET, both probe passes and the theoretical-fpp double
    are all recomputable in SQL."""
    assert m_bits == 1 << 16, "twin assumes the 2^16 default"

    def idx_exprs(col: str) -> list[str]:
        b = [
            f"CAST(('0x' || substr(md5({col}), {2 * i + 1}, 2)) AS INTEGER)"
            for i in range(8)
        ]
        return [f"({b[2 * j]} + 256 * {b[2 * j + 1]})" for j in range(k_hashes)]

    doc_idx = ", ".join(idx_exprs("text"))
    probe_idx = ", ".join(idx_exprs("pk"))
    return f"""
        WITH bits AS (
            SELECT DISTINCT unnest([{doc_idx}]) AS bit FROM documents
        ), nd AS (SELECT COUNT(*) AS n_docs FROM documents),
        member AS (
            SELECT CAST(COUNT(*) AS BIGINT) AS n_found FROM (
                SELECT doc_id FROM (
                    SELECT doc_id, unnest([{doc_idx}]) AS bit FROM documents
                ) d JOIN bits USING (bit)
                GROUP BY doc_id HAVING COUNT(*) = {k_hashes}
            )
        ), pk AS (
            SELECT 'probe:' || CAST(i AS VARCHAR) AS pk FROM range({n_probes}) t(i)
        ), fp AS (
            SELECT CAST(COUNT(*) AS BIGINT) AS n_fp FROM (
                SELECT pk FROM (
                    SELECT pk, unnest([{probe_idx}]) AS bit FROM pk
                ) p JOIN bits USING (bit)
                GROUP BY pk HAVING COUNT(*) = {k_hashes}
            )
        )
        SELECT CAST(nd.n_docs AS BIGINT) AS n_docs,
               member.n_found AS n_members_found,
               CAST({n_probes} AS BIGINT) AS n_probes,
               fp.n_fp AS n_false_positives,
               ROUND(POWER(1.0 - POWER(1.0 - 1.0 / {float(m_bits)},
                                       {k_hashes} * nd.n_docs), {k_hashes}),
                     8) AS theoretical_fpp
        FROM nd, member, fp
    """


def winnowing_dedup(
    sf_dir: str,
    k: int = 8,
    w: int = 4,
    min_shared: int = 10,
    stop_df: int = 25,
) -> pd.DataFrame:
    """Winnowing near-duplicate pairs (Schleimer, Wilkerson, Aiken —
    the MOSS local fingerprinting scheme): every document selects the
    MINIMUM k-gram hash inside each sliding window of w consecutive
    k-grams (any shared substring of length >= k + w - 1 is guaranteed
    to share a fingerprint); pairs sharing >= min_shared distinct
    selected fingerprints are reported with the shared count.
    Fingerprints present in more than stop_df documents are dropped as
    stop-fingerprints before pairing — the standard MOSS move that
    keeps hot buckets from going quadratic (same role as minhash's
    BUCKET_CAP).

    Distributed plan: fingerprint extraction is a stateless
    map_batches (per doc: one md5 pass over k-grams, a vectorized
    sliding-window min, set dedup) emitting (fp, doc_id) rows — hashes
    ship, text never does; document frequency and the stop filter are
    one fp-keyed Count; pairs come from capped per-fp buckets via
    groupby(fp).map_groups, and the final pair fold is a
    (doc_a, doc_b)-keyed Count with the min_shared HAVING. The SQL
    twin (winnowing_dedup_sql) recomputes hashes, window minima, stop
    filter and pair counts value-exactly."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fingerprints(t: pa.Table) -> pa.Table:
        from ..functions.md5vec import md5_prefix_u64

        # collect every k-gram in the batch, hash them in ONE
        # vectorized single-block md5 pass, then split back per doc
        docs, grams, offsets = [], [], [0]
        for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            n = len(txt)
            if n < k:
                continue
            docs.append(int(did))
            grams.extend(txt[i : i + k].encode() for i in range(n - k + 1))
            offsets.append(len(grams))
        all_h = (md5_prefix_u64(grams) >> np.uint64(1)).astype(np.int64)
        out_d, out_f = [], []
        for j, did in enumerate(docs):
            hs = all_h[offsets[j] : offsets[j + 1]]
            if len(hs) >= w:
                win = np.lib.stride_tricks.sliding_window_view(hs, w)
                sel = np.unique(win.min(axis=1))
            else:
                sel = np.unique(hs.min(keepdims=True))
            out_d.extend([did] * len(sel))
            out_f.extend(sel.tolist())
        fp_arr = np.asarray(out_f, dtype=np.int64)
        return pa.table(
            {
                "fp": pa.array(fp_arr, pa.int64()),
                # 64-way coarse shard so Ray dispatches 64 groups, not
                # one task per fingerprint (the minhash shard trick)
                "_shard": pa.array(fp_arr & 63, pa.int64()),
                "doc_id": pa.array(out_d, pa.int64()),
            }
        )

    fps = ds.map_batches(fingerprints, batch_format="pyarrow").materialize()

    def shard_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # many fp buckets per shard group; stop filter (df > stop_df)
        # applied per bucket
        outs_a, outs_b = [], []
        for _, grp in g.groupby("fp", sort=False):
            ids = np.unique(grp["doc_id"].to_numpy(np.int64))
            if len(ids) < 2 or len(ids) > stop_df:
                continue
            iu = np.triu_indices(len(ids), k=1)
            outs_a.append(ids[iu[0]])
            outs_b.append(ids[iu[1]])
        if not outs_a:
            return pd.DataFrame(
                {
                    "pk": pd.Series([], dtype="int64"),
                    "_pshard": pd.Series([], dtype="int64"),
                }
            )
        # pack the pair into ONE int64 key (doc ids < 2^31): the
        # single-key groupby is the fast exchange; the 2-key variant
        # sorts pathologically
        a = np.concatenate(outs_a)
        b = np.concatenate(outs_b)
        if int(b.max()) >= (1 << 31):
            raise ValueError(
                "winnowing_dedup: doc_id >= 2^31 breaks int64 pair packing"
            )
        pk = (a << 31) | b
        return pd.DataFrame({"pk": pk, "_pshard": pk & 63})

    def count_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized multiset count within the pair shard; only pairs
        # clearing min_shared leave the task
        u, c = np.unique(g["pk"].to_numpy(np.int64), return_counts=True)
        keep = c >= min_shared
        return pd.DataFrame(
            {"pk": u[keep], "n_shared": c[keep].astype(np.int64)}
        )

    pairs = (
        fps.groupby("_shard")
        .map_groups(shard_pairs, batch_format="pandas")
        .groupby("_pshard")
        .map_groups(count_pairs, batch_format="pandas")
        .to_pandas()
    )
    if len(pairs) == 0 or "pk" not in pairs.columns:
        # no pair survived the stop filter / min_shared gate — a
        # corpus with no near-dups reaches this at defaults
        return pd.DataFrame(
            {
                "doc_a": pd.Series([], dtype="int64"),
                "doc_b": pd.Series([], dtype="int64"),
                "n_shared": pd.Series([], dtype="int64"),
            }
        )
    pk = pairs["pk"].to_numpy(np.int64)
    out = pd.DataFrame(
        {
            "doc_a": pk >> 31,
            "doc_b": pk & ((1 << 31) - 1),
            "n_shared": pairs["n_shared"].to_numpy(np.int64),
        }
    )
    return (
        out.sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
        .astype("int64")
    )


def winnowing_dedup_sql(
    k: int = 8, w: int = 4, min_shared: int = 10, stop_df: int = 25
) -> str:
    """EXACT DuckDB twin of winnowing_dedup: k-gram md5 hashes
    ('0x'||substr(md5,1,16) as UBIGINT >> 1 == Python
    int.from_bytes(digest[:8],'big') >> 1), per-position window MIN
    over the following w hashes, DISTINCT selected per doc, stop-df
    filter, pair self-join, HAVING count >= min_shared."""
    return f"""
        WITH grams AS (
            SELECT doc_id::BIGINT AS doc_id,
                   CAST(CAST(('0x' || substr(md5(substr(text, i, {k})), 1, 16))
                             AS UBIGINT) >> 1 AS BIGINT) AS h,
                   i
            FROM documents, LATERAL (
                SELECT UNNEST(range(1, length(text) - {k} + 2)) AS i
            ) t
            WHERE length(text) >= {k}
        ),
        winmin AS (
            SELECT doc_id,
                   MIN(h) OVER (PARTITION BY doc_id ORDER BY i
                                ROWS BETWEEN CURRENT ROW
                                AND {w - 1} FOLLOWING) AS m,
                   i,
                   COUNT(*) OVER (PARTITION BY doc_id) AS n_grams
            FROM grams
        ),
        sel AS (
            SELECT DISTINCT doc_id, m AS fp FROM winmin
            WHERE n_grams < {w} AND i = 1
               OR n_grams >= {w} AND i <= n_grams - {w} + 1
        ),
        keep AS (
            SELECT fp FROM sel GROUP BY fp
            HAVING COUNT(DISTINCT doc_id) BETWEEN 2 AND {stop_df}
        )
        SELECT CAST(a.doc_id AS BIGINT) AS doc_a,
               CAST(b.doc_id AS BIGINT) AS doc_b,
               CAST(COUNT(*) AS BIGINT) AS n_shared
        FROM sel a JOIN sel b ON a.fp = b.fp AND a.doc_id < b.doc_id
        JOIN keep kf ON kf.fp = a.fp
        GROUP BY 1, 2 HAVING COUNT(*) >= {min_shared}
        ORDER BY 1, 2
    """


def soft_dedup_reweight(sf_dir: str, threshold: float = 0.8) -> pd.DataFrame:
    """Soft deduplication: instead of DROPPING near-duplicates, keep
    every copy but down-weight it by 1/cluster_size (the soft-dedup
    alternative SemDeDup/D4 discuss — preserves the distributional
    signal that a text is common while removing its gradient
    over-count). Weights are exact integer ppm
    (1_000_000 // cluster_size, truncating division, bit-stable);
    documents with no near-duplicate keep weight 1_000_000.

    Scale shape: cluster labels come from dedup_clusters (banded
    MinHash-LSH + distributed exact verify + components — near-dup
    members are the small minority of a real corpus, the same
    minority contract as segment_dedup's banned set), their sizes are
    a cluster-keyed fold of that minority table, and the weight
    assignment is a broadcast (ray.put) lookup inside one zero-shuffle
    scan of the doc-id column — text is never read in the scan and the
    corpus is never collected.

    Output: (doc_id, cluster_size, weight_ppm) ORDER BY doc_id."""
    labels = dedup_clusters(sf_dir, threshold=threshold)
    sizes = labels.groupby("cluster_id")["doc_id"].transform("size")
    size_of = dict(zip(labels["doc_id"].astype(int), sizes.astype(int)))
    size_ref = ray.put(size_of)

    def weight(t: pa.Table) -> pa.Table:
        size_of = worker_value(size_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        cs = np.array([size_of.get(int(d), 1) for d in ids], dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "cluster_size": pa.array(cs, pa.int64()),
                "weight_ppm": pa.array(1_000_000 // cs, pa.int64()),
            }
        )

    out = (
        _docs(sf_dir, columns=("doc_id",))
        .map_batches(weight, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def soft_dedup_reweight_sql(threshold: float = 0.8, k: int = 5) -> str:
    """Exact twin: component sizes over the recursive-CTE closure of
    the exact shingle-Jaccard pair graph, defaulted to 1 for
    un-clustered documents."""
    return f"""
        WITH labels AS ({dedup_clusters_sql(threshold, k)}),
        sizes AS (
            SELECT cluster_id, CAST(COUNT(*) AS BIGINT) AS cs
            FROM labels GROUP BY 1
        ), per_doc AS (
            SELECT l.doc_id, s.cs
            FROM labels l JOIN sizes s USING (cluster_id)
        )
        SELECT d.doc_id,
               CAST(COALESCE(p.cs, 1) AS BIGINT) AS cluster_size,
               CAST(1000000 // COALESCE(p.cs, 1) AS BIGINT) AS weight_ppm
        FROM documents d LEFT JOIN per_doc p ON d.doc_id = p.doc_id
        ORDER BY d.doc_id
    """
