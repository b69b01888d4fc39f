"""Distributed graph analytics over relational-derived edge lists.

PageRank joins the iterative-algorithm family (k-means, BPE, Lloyd
rounds) with the graph shape the inventory was missing: per round, the
edge list streams once, each edge forwards its source's rank share to
its destination, and a node-keyed groupby sums contributions. All
arithmetic is INTEGER (pico-rank units, floor division, damping as
*85 // 100), so a SQL twin with unrolled CTE rounds matches
bit-for-bit — no float order-of-summation hazard.

Scale notes: the rank/degree tables are node-cardinality-sized and are
broadcast per round (ray.put once per round); at web-graph scale
(nodes >> driver RAM) each round becomes edges.join(ranks, on=src) +
groupby(dst) — the same exchange dedup_clusters documents for its
distributed-label path. The edge build reuses the hash-partitioned
Dataset.join of order_priority_revenue.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd
from ray.data.aggregate import Count, Min, Sum

# suppliers are offset into their own node-id range so a custkey and a
# suppkey with the same integer never merge into one graph node.
# 2^31 keeps node ids < 2^32 (the pair-packing bound) while covering
# custkeys far beyond the fixtures; _edges asserts the invariant so a
# corpus that outgrows it fails loudly instead of silently merging.
SUPP_OFFSET = 1 << 31
_R0 = 1_000_000_000_000  # initial rank: 1.0 in pico-units
_TELEPORT = 150_000_000_000  # (1 - 0.85) * R0


def _edges(sf_dir: str) -> pd.DataFrame:
    """Distinct (custkey -> suppkey+OFFSET) edges from the order/line
    fact tables: hash-partitioned join on orderkey (both sides fact-
    sized), then a pair-keyed groupby collapses duplicates so the edge
    list carries each relationship once."""
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"])
    od = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    joined = li.join(
        od,
        join_type="inner",
        num_partitions=8,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def pairs(t: pa.Table) -> pa.Table:
        # pack (cust, supp) into one int64 and pre-dedupe per batch —
        # the combiner that keeps the distinct exchange pair-set-sized
        ck = t["o_custkey"].to_numpy()
        sk = t["l_suppkey"].to_numpy()
        if len(ck) and (int(ck.max()) >= SUPP_OFFSET or int(sk.max()) >= SUPP_OFFSET):
            raise ValueError(
                "key exceeds SUPP_OFFSET: customer/supplier node ranges would merge"
            )
        key = np.unique(ck * (1 << 32) + (sk + SUPP_OFFSET))
        return pa.table({"key": pa.array(key, pa.int64())})

    # coarse-shard distinct (stages/shard.py) replaces a 2-key
    # groupby-distinct: ray 2.49's hash aggregate is much slower at
    # this key cardinality, and its multi-key output also breaks
    # downstream joins — see cohort_retention
    from pdfrust_ray.stages.shard import shard_distinct

    key = (
        shard_distinct(joined.map_batches(pairs, batch_format="pyarrow"))
        .to_pandas()["key"]
        .to_numpy()
    )
    return pd.DataFrame(
        {
            "src": pd.Series(key >> 32, dtype="int64"),
            "dst": pd.Series(key & ((1 << 32) - 1), dtype="int64"),
        }
    )


def bipartite_pagerank(sf_dir: str, n_rounds: int = 2, k: int = 20) -> pd.DataFrame:
    """Integer PageRank over the customer->supplier purchase graph:
    rank_{t+1}(v) = TELEPORT + sum over in-edges of
    (rank_t(u) // outdeg(u)) * 85 // 100. Returns the top-k nodes by
    (rank DESC, node ASC) after n_rounds."""
    edges_df = _edges(sf_dir)
    edges = rd.from_pandas(edges_df)

    deg = edges_df.groupby("src").size()
    nodes = np.union1d(edges_df["src"].unique(), edges_df["dst"].unique())
    ranks = {int(n): _R0 for n in nodes}

    # dense per-source share LUT (src ids are customer-range ints):
    # one vectorized gather per batch instead of a per-edge dict loop
    src_ids = edges_df["src"].unique()
    lut_size = int(src_ids.max()) + 1

    deg_arr = deg[src_ids].to_numpy(dtype=np.int64)

    for _ in range(n_rounds):
        rank_arr = pd.Series(ranks)[src_ids].to_numpy(dtype=np.int64)
        share_lut = np.zeros(lut_size, dtype=np.int64)
        share_lut[src_ids] = (rank_arr // deg_arr) * 85 // 100
        state = ray.put(share_lut)

        def contrib(t: pa.Table) -> pa.Table:
            lut = ray.get(state)
            dst = t["dst"].to_numpy()
            share = lut[t["src"].to_numpy()]
            # per-batch combiner: collapse to one row per distinct dst
            # before the exchange (np sort + reduceat — no Python loop)
            order = np.argsort(dst, kind="stable")
            d_sorted, s_sorted = dst[order], share[order]
            starts = np.flatnonzero(
                np.r_[True, d_sorted[1:] != d_sorted[:-1]]
            )
            uniq = d_sorted[starts]
            sums = np.add.reduceat(s_sorted, starts)
            return pa.table(
                {
                    "node": pa.array(uniq, pa.int64()),
                    "contrib": pa.array(sums, pa.int64()),
                }
            )

        # coarse-shard sum (stages/shard.py) instead of
        # groupby(node).aggregate — same Sum, ~10x faster in ray 2.49
        from pdfrust_ray.stages.shard import shard_sum

        c = shard_sum(
            edges.map_batches(contrib, batch_format="pyarrow"), "node", "contrib"
        ).to_pandas()
        lut = dict(zip(c["node"].astype(int), c["contrib"].astype(int)))
        ranks = {int(n): _TELEPORT + lut.get(int(n), 0) for n in nodes}

    out = pd.DataFrame(
        {"node": list(ranks), "r": pd.Series(list(ranks.values()), dtype="int64")}
    )
    out["node"] = out["node"].astype("int64")
    out = out.sort_values(["r", "node"], ascending=[False, True], kind="mergesort")
    return out.head(k).reset_index(drop=True)


def bipartite_pagerank_sql(n_rounds: int = 2, k: int = 20) -> str:
    assert n_rounds == 2, "SQL twin is unrolled for 2 rounds"
    return f"""
        WITH edges AS (SELECT DISTINCT o.o_custkey AS src,
                              l.l_suppkey + {SUPP_OFFSET} AS dst
                       FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey),
        nodes AS (SELECT src AS node FROM edges UNION SELECT dst FROM edges),
        deg AS (SELECT src, CAST(COUNT(*) AS BIGINT) AS d FROM edges GROUP BY src),
        r0 AS (SELECT node, CAST({_R0} AS BIGINT) AS r FROM nodes),
        c1 AS (SELECT e.dst AS node,
                      CAST(SUM((r0.r // deg.d) * 85 // 100) AS BIGINT) AS contrib
               FROM edges e JOIN r0 ON r0.node = e.src JOIN deg ON deg.src = e.src
               GROUP BY e.dst),
        r1 AS (SELECT n.node, CAST({_TELEPORT} + COALESCE(c1.contrib, 0) AS BIGINT) AS r
               FROM nodes n LEFT JOIN c1 USING (node)),
        c2 AS (SELECT e.dst AS node,
                      CAST(SUM((r1.r // deg.d) * 85 // 100) AS BIGINT) AS contrib
               FROM edges e JOIN r1 ON r1.node = e.src JOIN deg ON deg.src = e.src
               GROUP BY e.dst),
        r2 AS (SELECT n.node, CAST({_TELEPORT} + COALESCE(c2.contrib, 0) AS BIGINT) AS r
               FROM nodes n LEFT JOIN c2 USING (node))
        SELECT node, r FROM r2 ORDER BY r DESC, node LIMIT {k}
    """


# ---------------------------------------------------------------------------
# bipartite motif counting (butterflies = 4-cycles)
# ---------------------------------------------------------------------------


def supplier_butterflies(sf_dir: str) -> pd.DataFrame:
    """Exact butterfly (bipartite 4-cycle) count over the customer-
    supplier purchase graph — the standard bipartite cohesion motif.

    butterflies = sum over same-side pairs (u, v) of C(codeg(u,v), 2),
    and the codegree table is built by exploding wedges from a pivot
    side. Wedge volume is sum C(deg, 2) over the pivot side, so the
    engine first computes both sides' degree histograms (two cheap
    groupby-counts) and pivots on the CHEAPER side — the standard
    vertex-ordering trick, decided from data, not hardcoded. The
    butterfly total is side-invariant, so the SQL twin (which pivots on
    customers) matches either way. Pair keys are packed into one int64
    so the codegree exchange shuffles a single column.

    Scale note: a hot pivot vertex with degree d emits C(d, 2) wedges;
    at web scale you additionally degree-order within each edge
    (emit wedges only from the lower-degree endpoint's adjacency) and
    hash-partition the pair keys — the exchange stays pair-set-sized,
    never corpus^2."""
    edges_df = _edges(sf_dir)  # distinct (src=cust, dst=supp+OFFSET)
    n_edges = len(edges_df)

    def wedge_sum(s: pd.Series) -> int:
        d = s.value_counts().to_numpy(dtype=np.int64)
        return int((d * (d - 1) // 2).sum())

    pivot, other = ("src", "dst") if wedge_sum(edges_df["src"]) <= wedge_sum(
        edges_df["dst"]
    ) else ("dst", "src")
    # 8 coarse pivot shards: wide enough to parallelize the wedge
    # explosion, narrow enough that the per-shard unique collapses
    # repeated pairs hard (64 shards left ~3x more partial rows in the
    # exchange — measured at sf0.1: 10.4M vs 3.8M)
    edges_df["shard"] = (edges_df[pivot] % 8).astype("int32")
    edges = rd.from_pandas(edges_df)

    def pairs_of_shard(g: pd.DataFrame) -> pd.DataFrame:
        # coarse sharding amortizes Ray's per-group dispatch (pivot %
        # N keeps every pivot vertex whole within a shard); the
        # per-shard unique+count is the combiner: the pair exchange
        # carries one (pair, partial_k) row per distinct pair per
        # shard, not one row per wedge
        all_keys = []
        for _p, grp in g.groupby(pivot, sort=False):
            ids = np.unique(grp[other].to_numpy())
            if len(ids) < 2:
                continue
            i, j = np.triu_indices(len(ids), 1)
            all_keys.append(ids[i] * (1 << 32) + ids[j])
        if not all_keys:
            return pd.DataFrame(
                {
                    "pair": pd.Series([], dtype="int64"),
                    "k_part": pd.Series([], dtype="int64"),
                    "pshard": pd.Series([], dtype="int32"),
                }
            )
        uk, uc = np.unique(np.concatenate(all_keys), return_counts=True)
        return pd.DataFrame(
            {
                "pair": pd.Series(uk, dtype="int64"),
                "k_part": pd.Series(uc, dtype="int64"),
                "pshard": pd.Series((uk % 16).astype(np.int32), dtype="int32"),
            }
        )

    def reduce_pshard(g: pd.DataFrame) -> pd.DataFrame:
        # second-level coarse shard: global k per pair, then the local
        # C(k,2) partial. (groupby("pair").aggregate(Sum) is the
        # textbook finish, but ray 2.49's hash aggregate measured 87 s
        # vs 1.2 s for this map_groups reduce on 300k partial rows —
        # the same per-key overhead the dedup shard-grouping avoids.)
        k = g.groupby("pair", sort=False)["k_part"].sum().to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {"bf": pd.Series([int((k * (k - 1) // 2).sum())], dtype="int64")}
        )

    parts = (
        edges.groupby("shard")
        .map_groups(pairs_of_shard, batch_format="pandas")
        .groupby("pshard")
        .map_groups(reduce_pshard, batch_format="pandas")
        .to_pandas()
    )
    return pd.DataFrame(
        {
            "n_edges": pd.Series([n_edges], dtype="int64"),
            "n_butterflies": pd.Series([int(parts["bf"].sum())], dtype="int64"),
        }
    )


def supplier_butterflies_sql() -> str:
    return f"""
        WITH edges AS (SELECT DISTINCT o.o_custkey AS c,
                              l.l_suppkey + {SUPP_OFFSET} AS s
                       FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey),
        codeg AS (SELECT e1.s AS a, e2.s AS b, COUNT(*) AS k
                  FROM edges e1 JOIN edges e2 ON e1.c = e2.c AND e1.s < e2.s
                  GROUP BY 1, 2)
        SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM edges) AS n_edges,
               CAST(COALESCE(SUM(k * (k - 1) // 2), 0) AS BIGINT) AS n_butterflies
        FROM codeg
    """


# ---------------------------------------------------------------------------
# triangle counting (degree-ordered wedge check)
# ---------------------------------------------------------------------------


def user_triangles(sf_dir: str, min_shared: int = 3) -> pd.DataFrame:
    """Exact triangle count over the user co-occurrence graph: users are
    connected when they were BOTH active in >= `min_shared` distinct
    (event_type, hour) buckets — the support threshold keeps the graph
    sparse instead of the near-clique a raw co-occurrence join yields.

    Distributed shape (the standard degree-ordered algorithm):
      1. distinct (bucket, user) keys, sharded BY BUCKET so each bucket
         stays whole: per shard, per-bucket pair explosion with a local
         unique+count combiner (same pattern as supplier_butterflies);
      2. pair-sharded reduce sums the shared-bucket counts and keeps
         pairs with k >= min_shared — the edge set;
      3. degrees by a coarse-shard reduce; edges are then ORIENTED from
         the lower (degree, id) endpoint, so a vertex of degree d emits
         only C(d+, 2) wedges with d+ <= max(d, sqrt(2m)) — the bound
         that keeps wedge volume near-linear in m on skewed graphs;
      4. wedges check membership against the packed edge-key set,
         broadcast once as a sorted int64 array (|E| * 8 bytes; past
         driver RAM this check becomes a hash-partitioned join of
         wedge keys against edge keys — the order_priority_revenue
         exchange — without touching steps 1-3).
    All counters are integers; the SQL twin is exact."""
    from pdfrust_ray.pipelines.relational import _EVENT_TYPES

    type_idx = {t: i for i, t in enumerate(sorted(_EVENT_TYPES))}
    tref = ray.put(type_idx)
    n_types = len(type_idx)

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"])

    def keys_of_batch(t: pa.Table) -> pa.Table:
        ti = ray.get(tref)
        u = t["user_id"].to_numpy()
        if len(u) and int(u.max()) >= (1 << 31):
            raise ValueError("user_id exceeds the 31-bit pair-packing bound")
        hours = t["ts"].to_numpy().astype("datetime64[h]").astype(np.int64)
        tix = np.array([ti[x] for x in t["event_type"].to_pylist()], dtype=np.int64)
        bucket = hours * n_types + tix
        key = np.unique((bucket << 32) | u.astype(np.int64))
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "shard": pa.array(((key >> 32) % 64).astype(np.int32), pa.int32()),
            }
        )

    def pairs_of_shard(g: pd.DataFrame) -> pd.DataFrame:
        key = np.unique(g["key"].to_numpy())
        bucket = key >> 32
        u = key & ((1 << 32) - 1)
        starts = np.flatnonzero(np.r_[True, bucket[1:] != bucket[:-1]])
        bounds = np.r_[starts, len(key)]
        all_pairs = []
        for i in range(len(starts)):
            ids = u[bounds[i] : bounds[i + 1]]  # unique & ascending within bucket
            if len(ids) < 2:
                continue
            a, b = np.triu_indices(len(ids), 1)
            all_pairs.append((ids[a] << 32) | ids[b])
        if not all_pairs:
            return pd.DataFrame(
                {
                    "pair": pd.Series([], dtype="int64"),
                    "k_part": pd.Series([], dtype="int64"),
                }
            )
        uk, uc = np.unique(np.concatenate(all_pairs), return_counts=True)
        return pd.DataFrame(
            {
                "pair": pd.Series(uk, dtype="int64"),
                "k_part": pd.Series(uc, dtype="int64"),
            }
        )

    from pdfrust_ray.stages.shard import shard_sum

    edges_df = shard_sum(
        ds.map_batches(keys_of_batch, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(pairs_of_shard, batch_format="pandas"),
        "pair",
        "k_part",
    ).to_pandas()
    edges_df = edges_df[edges_df["k_part"] >= min_shared]
    pair = edges_df["pair"].to_numpy(dtype=np.int64)
    n_edges = len(pair)
    if n_edges == 0:
        return pd.DataFrame(
            {
                "n_edges": pd.Series([0], dtype="int64"),
                "n_wedges": pd.Series([0], dtype="int64"),
                "n_triangles": pd.Series([0], dtype="int64"),
            }
        )

    x = (pair >> 32).astype(np.int64)
    y = (pair & ((1 << 32) - 1)).astype(np.int64)
    nodes, deg = np.unique(np.concatenate([x, y]), return_counts=True)
    n_wedges = int((deg.astype(np.int64) * (deg - 1) // 2).sum())

    # orient from the lower (degree, id) endpoint; ranks are dense ids
    order = np.argsort(deg, kind="stable")  # (deg, id) since nodes ascending
    pos = np.empty(len(nodes), dtype=np.int64)
    pos[order] = np.arange(len(nodes))
    rx = pos[np.searchsorted(nodes, x)]
    ry = pos[np.searchsorted(nodes, y)]
    src = np.where(rx < ry, x, y)
    dst = np.where(rx < ry, y, x)

    edge_keys_ref = ray.put(np.sort(pair))
    oriented = rd.from_pandas(
        pd.DataFrame(
            {
                "src": pd.Series(src, dtype="int64"),
                "dst": pd.Series(dst, dtype="int64"),
                "sshard": pd.Series((src % 64).astype(np.int32), dtype="int32"),
            }
        )
    )

    def tri_of_shard(g: pd.DataFrame) -> pd.DataFrame:
        keys = ray.get(edge_keys_ref)
        s = g["src"].to_numpy()
        d = g["dst"].to_numpy()
        o = np.argsort(s, kind="stable")
        s, d = s[o], d[o]
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        bounds = np.r_[starts, len(s)]
        total = 0
        for i in range(len(starts)):
            nb = np.sort(d[bounds[i] : bounds[i + 1]])
            if len(nb) < 2:
                continue
            a, b = np.triu_indices(len(nb), 1)
            wk = (nb[a] << 32) | nb[b]  # nb ascending => id-ordered pack
            idx = np.searchsorted(keys, wk)
            idx[idx >= len(keys)] = len(keys) - 1
            total += int((keys[idx] == wk).sum())
        return pd.DataFrame({"t": pd.Series([total], dtype="int64")})

    parts = oriented.groupby("sshard").map_groups(tri_of_shard, batch_format="pandas").to_pandas()
    return pd.DataFrame(
        {
            "n_edges": pd.Series([n_edges], dtype="int64"),
            "n_wedges": pd.Series([n_wedges], dtype="int64"),
            "n_triangles": pd.Series([int(parts["t"].sum())], dtype="int64"),
        }
    )


def user_triangles_sql(min_shared: int = 3) -> str:
    return f"""
        WITH ev AS (SELECT DISTINCT user_id AS u, event_type,
                           date_trunc('hour', ts) AS h FROM events),
        pairs AS (SELECT a.u AS x, b.u AS y, COUNT(*) AS k
                  FROM ev a JOIN ev b
                    ON a.event_type = b.event_type AND a.h = b.h AND a.u < b.u
                  GROUP BY 1, 2),
        edges AS (SELECT x, y FROM pairs WHERE k >= {min_shared}),
        deg AS (SELECT n, COUNT(*) AS d
                FROM (SELECT x AS n FROM edges UNION ALL SELECT y FROM edges)
                GROUP BY n),
        tri AS (SELECT COUNT(*) AS t
                FROM edges e1
                JOIN edges e2 ON e1.y = e2.x
                JOIN edges e3 ON e3.x = e1.x AND e3.y = e2.y)
        SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM edges) AS n_edges,
               (SELECT CAST(COALESCE(SUM(d * (d - 1) // 2), 0) AS BIGINT) FROM deg)
                 AS n_wedges,
               (SELECT CAST(t AS BIGINT) FROM tri) AS n_triangles
    """


def part_bfs_levels(sf_dir: str, max_depth: int = 3) -> pd.DataFrame:
    """Breadth-first search over the part co-purchase graph (parts are
    adjacent when some order contains both) from the lowest partkey:
    per level 0..max_depth, how many parts are first reached there,
    with a sum-of-partkey checksum pinning the exact membership —
    the reachability / neighborhood-size primitive graph-expansion
    features (and SQL's WITH RECURSIVE) compute.

    Distributed plan: the edge list is built ONCE (64-way coarse shard
    on orderkey finishes per-order grouping; the sorted-lag trick emits
    both edge directions vectorized) and materialized; each BFS round
    streams the edges with the CURRENT FRONTIER broadcast (ray.put of
    a vertex-id array — frontier/visited state is vertex-sized, never
    edge-sized; at node counts beyond driver RAM the round becomes the
    label-propagation exchange dedup_clusters documents). Rounds are
    O(max_depth), each one edge scan."""
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"])
    seed = int(li.min("l_partkey"))

    def shardify(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        d = (
            pa.table(
                {
                    "o": pc.cast(t["l_orderkey"], pa.int64()),
                    "p": pc.cast(t["l_partkey"], pa.int64()),
                }
            )
            .group_by(["o", "p"])
            .aggregate([])
        )
        return d.append_column(
            "_shard", pc.cast(pc.bit_wise_and(d["o"], 63), pa.int32())
        )

    def shard_edges(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["o", "p"]).sort_values(["o", "p"])
        o = g["o"].to_numpy(np.int64)
        p = g["p"].to_numpy(np.int64)
        if len(p) and int(p.max()) >= (1 << 31):
            raise ValueError("partkey exceeds the 31-bit packing bound")
        src, dst = [], []
        lag = 1
        while lag < len(o):
            same = o[lag:] == o[:-lag]
            if not same.any():
                break
            a = p[:-lag][same]
            b = p[lag:][same]
            src.append(np.concatenate([a, b]))  # both directions
            dst.append(np.concatenate([b, a]))
            lag += 1
        if not src:
            return pd.DataFrame(
                {"x": pd.Series([], dtype="int64"), "y": pd.Series([], dtype="int64")}
            )
        packed = np.unique(np.concatenate(src) * (1 << 32) + np.concatenate(dst))
        return pd.DataFrame(
            {
                "x": (packed >> 32).astype("int64"),
                "y": (packed & ((1 << 32) - 1)).astype("int64"),
            }
        )

    edges = (
        li.map_batches(shardify, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(shard_edges, batch_format="pandas")
        .materialize()
    )

    visited = {seed}
    frontier = np.array([seed], dtype=np.int64)
    rows = [(0, 1, seed)]
    for lvl in range(1, max_depth + 1):
        fref = ray.put(frontier)

        def expand(t: pa.Table) -> pa.Table:
            f = ray.get(fref)
            x = t["x"].to_numpy()
            hit = np.isin(x, f)
            return pa.table({"y": pa.array(np.unique(t["y"].to_numpy()[hit]), pa.int64())})

        # per-block unique neighbor ids -> vertex-sized driver merge
        nxt_tbl = edges.map_batches(expand, batch_format="pyarrow").to_pandas()
        nxt = np.unique(nxt_tbl["y"].to_numpy(np.int64))
        nxt = nxt[~np.isin(nxt, np.fromiter(visited, dtype=np.int64, count=len(visited)))]
        if not len(nxt):
            break
        visited.update(int(v) for v in nxt)
        rows.append((lvl, len(nxt), int(nxt.sum())))
        frontier = nxt
    return pd.DataFrame(rows, columns=["lvl", "n_parts", "sum_partkey"]).astype("int64")


def part_bfs_levels_sql(max_depth: int = 3) -> str:
    return f"""
        WITH RECURSIVE pairs AS (
            SELECT DISTINCT a.l_partkey AS x, b.l_partkey AS y
            FROM lineitem a JOIN lineitem b
              ON a.l_orderkey = b.l_orderkey AND a.l_partkey <> b.l_partkey
        ), seed AS (SELECT MIN(l_partkey) AS m FROM lineitem),
        bfs AS (
            SELECT m AS node, 0 AS lvl FROM seed
            UNION
            SELECT p.y, b.lvl + 1 FROM bfs b JOIN pairs p ON p.x = b.node
            WHERE b.lvl < {max_depth}
        ), first_seen AS (
            SELECT node, MIN(lvl) AS lvl FROM bfs GROUP BY 1
        )
        SELECT CAST(lvl AS BIGINT) AS lvl,
               CAST(COUNT(*) AS BIGINT) AS n_parts,
               CAST(SUM(node) AS BIGINT) AS sum_partkey
        FROM first_seen GROUP BY 1 ORDER BY 1
    """


def _copurchase_edges(sf_dir: str) -> "rd.Dataset":
    """Distinct undirected co-purchase edges (x < y), built exactly like
    part_bfs_levels' edge stage (orderkey-sharded sorted-lag emission)
    but emitting each edge once in canonical orientation."""
    import pyarrow.compute as pc

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"])

    def shardify(t: pa.Table) -> pa.Table:
        d = (
            pa.table(
                {
                    "o": pc.cast(t["l_orderkey"], pa.int64()),
                    "p": pc.cast(t["l_partkey"], pa.int64()),
                }
            )
            .group_by(["o", "p"])
            .aggregate([])
        )
        return d.append_column("_shard", pc.cast(pc.bit_wise_and(d["o"], 63), pa.int32()))

    def shard_edges(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["o", "p"]).sort_values(["o", "p"])
        o = g["o"].to_numpy(np.int64)
        p = g["p"].to_numpy(np.int64)
        if len(p) and int(p.max()) >= (1 << 31):
            raise ValueError("partkey exceeds the 31-bit packing bound")
        packed = []
        lag = 1
        while lag < len(o):
            same = o[lag:] == o[:-lag]
            if not same.any():
                break
            packed.append(p[:-lag][same] * (1 << 32) + p[lag:][same])  # a < b
            lag += 1
        if not packed:
            return pd.DataFrame(
                {"x": pd.Series([], dtype="int64"), "y": pd.Series([], dtype="int64")}
            )
        u = np.unique(np.concatenate(packed))
        return pd.DataFrame(
            {"x": (u >> 32).astype("int64"), "y": (u & ((1 << 32) - 1)).astype("int64")}
        )

    per_order = (
        li.map_batches(shardify, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(shard_edges, batch_format="pandas")
    )

    # the same pair can arise from different ORDERS in different shards;
    # a second pass keyed on the packed edge makes the list globally
    # distinct (k-core degrees must count each neighbour once)
    def edge_shard(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        packed = pc.add(pc.multiply(t["x"], 1 << 32), t["y"])
        return pa.table(
            {
                "e": packed,
                "_eshard": pc.cast(pc.bit_wise_and(packed, 63), pa.int32()),
            }
        )

    def dedupe(g: pd.DataFrame) -> pd.DataFrame:
        u = np.unique(g["e"].to_numpy(np.int64))
        return pd.DataFrame(
            {"x": (u >> 32).astype("int64"), "y": (u & ((1 << 32) - 1)).astype("int64")}
        )

    return (
        per_order.map_batches(edge_shard, batch_format="pyarrow")
        .groupby("_eshard")
        .map_groups(dedupe, batch_format="pandas")
        .materialize()
    )


def part_kcore_sizes(sf_dir: str, ks: tuple = (2, 3, 4)) -> pd.DataFrame:
    """k-core decomposition of the co-purchase graph: for each k, the
    maximal subgraph where every part co-occurs with >= k surviving
    parts — the density ladder community/recommendation mining peels
    first. ITERATIVE PEELING: repeatedly drop nodes with degree < k
    until a fixpoint; the round count is the peeling depth.

    Distributed plan: each round streams the edge list once with the
    REMOVED-NODE set broadcast, reduces surviving degrees via a node
    histogram (per-block np.unique partials), and grows the removal
    set by the new under-k nodes — vertex-sized driver state, never
    edges (the dedup_clusters label-Dataset exchange is the stated
    path past driver RAM). Output: per k, surviving node/edge counts
    and a node-id checksum; value-exact vs the round-unrolled
    recursive-CTE twin (part_kcore_sizes_sql) plus the serial-peel
    pytest."""
    import ray as _ray

    edges = _copurchase_edges(sf_dir)
    rows = []
    for k in ks:
        removed: set[int] = set()
        rounds = 0
        while True:
            rounds += 1
            rref = _ray.put(np.fromiter(removed, dtype=np.int64, count=len(removed)))

            def degrees(t: pa.Table) -> pa.Table:
                rm = _ray.get(rref)
                x = t["x"].to_numpy()
                y = t["y"].to_numpy()
                live = ~(np.isin(x, rm) | np.isin(y, rm))
                nodes = np.concatenate([x[live], y[live]])
                u, c = np.unique(nodes, return_counts=True)
                return pa.table(
                    {"node": pa.array(u, pa.int64()), "d": pa.array(c, pa.int64())}
                )

            from ray.data.aggregate import Sum

            deg = (
                edges.map_batches(degrees, batch_format="pyarrow")
                .groupby("node")
                .aggregate(Sum("d", alias_name="deg"))
                .to_pandas()
            )
            if deg.empty:
                # total collapse: every edge died, the aggregate comes
                # back schemaless — the peel is done with an empty core
                deg = pd.DataFrame({"node": pd.Series([], dtype="int64"),
                                    "deg": pd.Series([], dtype="int64")})
            under = deg.loc[deg["deg"] < k, "node"].to_numpy(np.int64)
            if not len(under):
                n_nodes = len(deg)
                n_edges = int(deg["deg"].sum()) // 2
                checksum = int(deg["node"].sum())
                break
            removed.update(int(v) for v in under)
        rows.append((k, rounds, n_nodes, n_edges, checksum))
    return pd.DataFrame(
        rows, columns=["k", "peel_rounds", "n_nodes", "n_edges", "node_checksum"]
    ).astype("int64")


def part_kcore_sizes_sql(ks: tuple = (64, 80, 96), rmax: int = 30) -> str:
    """EXACT DuckDB twin of part_kcore_sizes: the peel fixpoint is
    unrolled as a round-tagged recursive CTE — live(r) = nodes whose
    degree within live(r-1) is >= k; peel_rounds is the first r where
    the live count stops shrinking (peeling is monotone, so equal
    counts imply equal sets), matching the engine loop that counts its
    final no-removal check as a round. rmax bounds the unroll (the
    engine's deepest observed cascade is 6 rounds at sf0.01)."""

    def block(k: int) -> str:
        return f"""
        live_{k}(r, node) AS (
            SELECT 0, node FROM (SELECT x AS node FROM edges UNION SELECT y FROM edges)
            UNION ALL
            SELECT d.r + 1, d.node FROM (
                SELECT l1.r, n.node, COUNT(*) AS deg FROM (
                    SELECT x AS node, y AS other FROM edges
                    UNION ALL
                    SELECT y AS node, x AS other FROM edges
                ) n
                JOIN live_{k} l1 ON l1.node = n.node
                JOIN live_{k} l2 ON l2.node = n.other AND l2.r = l1.r
                GROUP BY 1, 2
            ) d
            WHERE d.deg >= {k} AND d.r < {rmax}
        ),
        cnt_{k} AS (
            SELECT r.r, COALESCE(c.n, 0) AS n, COALESCE(c.s, 0) AS s
            FROM range(0, {rmax + 1}) r(r)
            LEFT JOIN (SELECT r, COUNT(*) n, SUM(node) s
                       FROM live_{k} GROUP BY 1) c USING (r)
        ),
        rounds_{k} AS (
            SELECT MIN(a.r) AS rounds FROM cnt_{k} a
            JOIN cnt_{k} b ON b.r = a.r - 1
            WHERE a.n = b.n AND a.r >= 1
        ),
        final_{k} AS (
            SELECT CAST({k} AS BIGINT) AS k,
                   CAST(rd.rounds AS BIGINT) AS peel_rounds,
                   CAST(c.n AS BIGINT) AS n_nodes,
                   CAST(COALESCE((
                       SELECT COUNT(*) FROM edges e
                       JOIN live_{k} a ON a.node = e.x AND a.r = rd.rounds
                       JOIN live_{k} b ON b.node = e.y AND b.r = rd.rounds
                   ), 0) AS BIGINT) AS n_edges,
                   CAST(c.s AS BIGINT) AS node_checksum
            FROM rounds_{k} rd JOIN cnt_{k} c ON c.r = rd.rounds
        )"""

    blocks = ",".join(block(k) for k in ks)
    union = " UNION ALL ".join(f"SELECT * FROM final_{k}" for k in ks)
    return f"""
        WITH RECURSIVE edges AS (
            SELECT DISTINCT LEAST(a.l_partkey, b.l_partkey) AS x,
                            GREATEST(a.l_partkey, b.l_partkey) AS y
            FROM lineitem a JOIN lineitem b
              ON a.l_orderkey = b.l_orderkey AND a.l_partkey <> b.l_partkey
        ),{blocks}
        SELECT * FROM ({union}) ORDER BY k
    """


def bipartite_assortativity_stats(sf_dir: str) -> pd.DataFrame:
    """Degree-assortativity sufficient statistics of the part-supplier
    bipartite graph: over every distinct (part, supplier) edge, the
    exact integer Pearson inputs of (part degree, supplier degree) —
    do high-fanout parts source from high-fanout suppliers (hub-hub
    wiring) or the opposite. One row of int64 sums; the float r is the
    analyst's division.

    Distributed plan: distinct edges via a packed single-key fold;
    both degree tables are single-key counts whose SMALL side
    (suppliers) broadcasts; part degrees attach by sorting the edge
    stream through the part-keyed shard it already lives in — here at
    fixture scale both attach via one broadcast Arrow join inside
    map_batches (documented bound: degree tables are vertex-sized)."""
    import pyarrow.compute as pc

    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"])

    def pack(t: pa.Table) -> pa.Table:
        p = pc.cast(t["l_partkey"], pa.int64())
        s = pc.cast(t["l_suppkey"], pa.int64())
        d = (
            pa.table({"ps": pc.add(pc.multiply(p, 1 << 20), s)})
            .group_by("ps")
            .aggregate([])
        )
        return d

    edges = (
        li.map_batches(pack, batch_format="pyarrow")
        .groupby("ps")
        .aggregate(Count(alias_name="_n"))
        .map_batches(
            lambda t: pa.table(
                {
                    "p": pc.divide(t["ps"], 1 << 20),
                    "s": pc.bit_wise_and(t["ps"], (1 << 20) - 1),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    pdeg = edges.groupby("p").aggregate(Count(alias_name="dp")).to_pandas()
    sdeg = edges.groupby("s").aggregate(Count(alias_name="ds")).to_pandas()
    pref = ray.put(pa.Table.from_pandas(pdeg, preserve_index=False))
    sref = ray.put(pa.Table.from_pandas(sdeg, preserve_index=False))

    def stats(t: pa.Table) -> pa.Table:
        j = t.join(ray.get(pref), keys="p").join(ray.get(sref), keys="s")
        x = j["dp"].to_numpy().astype(np.int64)
        y = j["ds"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "n": pa.array([len(j)], pa.int64()),
                "sx": pa.array([int(x.sum())], pa.int64()),
                "sy": pa.array([int(y.sum())], pa.int64()),
                "sxx": pa.array([int((x * x).sum())], pa.int64()),
                "syy": pa.array([int((y * y).sum())], pa.int64()),
                "sxy": pa.array([int((x * y).sum())], pa.int64()),
            }
        )

    parts = edges.map_batches(stats, batch_format="pyarrow").to_pandas()
    return pd.DataFrame({c: [int(parts[c].sum())] for c in ("n", "sx", "sy", "sxx", "syy", "sxy")})


def bipartite_assortativity_stats_sql() -> str:
    return """
        WITH e AS (
            SELECT DISTINCT l_partkey AS p, l_suppkey AS s FROM lineitem
        ), pd AS (SELECT p, COUNT(*) AS dp FROM e GROUP BY 1),
        sd AS (SELECT s, COUNT(*) AS ds FROM e GROUP BY 1),
        j AS (
            SELECT dp AS x, ds AS y
            FROM e JOIN pd USING (p) JOIN sd USING (s)
        )
        SELECT CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
               CAST(SUM(x * x) AS BIGINT) AS sxx,
               CAST(SUM(y * y) AS BIGINT) AS syy,
               CAST(SUM(x * y) AS BIGINT) AS sxy
        FROM j
    """


def part_weighted_sssp(sf_dir: str, bound: int = 15) -> pd.DataFrame:
    """Weighted single-source shortest paths over the part co-purchase
    graph (parts adjacent when some order contains both; deterministic
    edge weight (x + y) % 7 + 1 so the SQL twin can rebuild it), from
    the lowest partkey, capped at total distance <= `bound`.  Output is
    the per-distance histogram (count + partkey-sum membership
    checksum) — exact, because positive weights mean every prefix of a
    shortest path is itself <= bound, so the bounded recursive-CTE walk
    and Bellman-Ford agree on the reachable set and distances.

    Distributed plan: the distinct weighted edge list is built once
    (64-way orderkey shard, per-order distinct-part cliques, global
    (x, y) dedup groupby) and materialized; each relaxation round
    streams the edges with the CURRENT tentative-distance table
    broadcast (vertex-sized, like part_bfs_levels' frontier), relaxes
    only edges out of nodes improved last round, and applies a
    groupby(dst).min — rounds are <= bound/min_weight, each one edge
    scan.  Node counts beyond driver RAM turn the broadcast into the
    edges-join-labels exchange dedup_clusters documents."""
    li = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"])
    seed = int(li.min("l_partkey"))

    def both_dirs(t: pa.Table) -> pa.Table:
        # weights are symmetric, so the canonical x<y edge list expands
        # to both orientations with one cheap concat
        return pa.table(
            {
                "x": pa.concat_arrays(
                    [t["x"].combine_chunks(), t["y"].combine_chunks()]
                ),
                "y": pa.concat_arrays(
                    [t["y"].combine_chunks(), t["x"].combine_chunks()]
                ),
            }
        )

    # the packed-lag vectorized builder (no per-order Python loop) —
    # shared with part_kcore_sizes / part_mst_boruvka
    edges = _copurchase_edges(sf_dir).map_batches(
        both_dirs, batch_format="pyarrow"
    ).materialize()

    INF = np.int64(1 << 60)
    dist: dict[int, int] = {seed: 0}
    frontier = {seed}
    while frontier:
        fref = ray.put((dict(dist), set(frontier)))

        def relax(t: pa.Table) -> pa.Table:
            d, fr = ray.get(fref)
            x = t["x"].to_numpy(zero_copy_only=False)
            y = t["y"].to_numpy(zero_copy_only=False)
            mask = np.array([xi in fr for xi in x], dtype=bool)
            if not mask.any():
                return pa.table({"node": pa.array([], pa.int64()), "cand": pa.array([], pa.int64())})
            x, y = x[mask], y[mask]
            w = (x + y) % 7 + 1
            cand = np.array([d[xi] for xi in x], dtype=np.int64) + w
            keep = cand <= bound
            return pa.table({"node": pa.array(y[keep]), "cand": pa.array(cand[keep])})

        best = (
            edges.map_batches(relax, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Min("cand", alias_name="cand"))
            .to_pandas()
        )
        frontier = set()
        for node, cand in zip(best["node"].to_numpy(np.int64), best["cand"].to_numpy(np.int64)):
            if cand < dist.get(int(node), INF):
                dist[int(node)] = int(cand)
                frontier.add(int(node))

    df = pd.DataFrame({"node": list(dist.keys()), "d": list(dist.values())})
    out = (
        df.groupby("d")
        .agg(n_parts=("node", "size"), sum_partkey=("node", "sum"))
        .reset_index()
        .rename(columns={"d": "dist"})
        .sort_values("dist")
        .reset_index(drop=True)
    )
    return out.astype("int64")


def part_weighted_sssp_sql(bound: int = 15) -> str:
    return f"""
        WITH RECURSIVE pairs AS (
            SELECT DISTINCT a.l_partkey AS x, b.l_partkey AS y
            FROM lineitem a JOIN lineitem b
              ON a.l_orderkey = b.l_orderkey AND a.l_partkey <> b.l_partkey
        ), e AS (SELECT x, y, (x + y) % 7 + 1 AS w FROM pairs),
        seed AS (SELECT MIN(l_partkey) AS m FROM lineitem),
        walk AS (
            SELECT m AS node, 0 AS d FROM seed
            UNION
            SELECT e.y, walk.d + e.w FROM walk JOIN e ON e.x = walk.node
            WHERE walk.d + e.w <= {bound}
        ),
        dist AS (SELECT node, MIN(d) AS d FROM walk GROUP BY node)
        SELECT CAST(d AS BIGINT) AS dist,
               CAST(COUNT(*) AS BIGINT) AS n_parts,
               CAST(SUM(node) AS BIGINT) AS sum_partkey
        FROM dist GROUP BY d ORDER BY d
    """


def part_supplier_articulation_sql(rmax: int = 40) -> str:
    """EXACT DuckDB twin of part_supplier_articulation via the
    supplier-projection reduction: a vertex v is an articulation point
    iff G - v has more components, and in a bipartite graph that count
    is computable on the (tiny) supplier side — removing part p drops
    exactly the supplier-pair edges ONLY p mediates (shared-part
    counts decrement); removing supplier s drops its projection vertex
    and isolates its degree-1 parts. One round-tagged min-label
    recursion runs ALL removal scenarios simultaneously (rid-keyed);
    articulation <=> (supplier components within the old component)
    + (isolated parts) >= 2. Degree-1 parts are never articulation
    and are skipped. Tarjan low-links (the engine) and this removal
    definition agree by the standard theorem; the planted-bridge
    pytest exercises the non-vacuous paths the dense fixtures never
    hit."""
    return f"""
WITH RECURSIVE edges AS (
    SELECT DISTINCT l_partkey::BIGINT AS p, l_suppkey::BIGINT AS s FROM lineitem
),
parts AS (SELECT p, COUNT(*) AS deg FROM edges GROUP BY 1),
sups AS (SELECT DISTINCT s FROM edges),
trip AS (
    SELECT a.s AS u, b.s AS v, a.p
    FROM edges a JOIN edges b ON a.p = b.p AND a.s < b.s
),
pairs AS (SELECT u, v, COUNT(*) AS cnt FROM trip GROUP BY 1, 2),
-- global supplier components (min-label over the projection)
glab(r, s, l) AS (
    SELECT 0, s, s FROM sups
    UNION ALL
    (
      WITH prev AS (SELECT * FROM glab),
      rr AS (SELECT MAX(r) AS r FROM prev),
      adj AS (
          SELECT pr.u AS n, lv.l FROM pairs pr JOIN prev lv ON lv.s = pr.v
          UNION ALL
          SELECT pr.v AS n, lu.l FROM pairs pr JOIN prev lu ON lu.s = pr.u
      ),
      hop AS (SELECT c1.s AS n, c2.l FROM prev c1 JOIN prev c2 ON c2.s = c1.l),
      nxt AS (
          SELECT prev.s,
                 LEAST(prev.l,
                       COALESCE((SELECT MIN(h.l) FROM hop h WHERE h.n = prev.s), prev.l),
                       COALESCE((SELECT MIN(a2.l) FROM adj a2 WHERE a2.n = prev.s), prev.l)) AS l
          FROM prev
      ),
      chg AS (SELECT EXISTS (SELECT 1 FROM nxt JOIN prev ON prev.s = nxt.s
                             WHERE nxt.l <> prev.l) AS c)
      SELECT rr.r + 1, nxt.s, nxt.l FROM nxt, rr, chg WHERE chg.c AND rr.r < {rmax}
    )
),
gfin AS (SELECT MAX(r) AS r FROM glab),
gcomp AS (SELECT s, l AS g FROM glab, gfin WHERE glab.r = gfin.r),
-- removal ids: rid = 2*p for parts (deg >= 2 only), 2*s + 1 for suppliers
rem_vertex AS (
    SELECT 2 * p AS rid, NULL::BIGINT AS rs, p AS rp FROM parts WHERE deg >= 2
    UNION ALL
    SELECT 2 * s + 1, s, NULL FROM sups
),
rem_edges AS (
    -- removing part rp: supplier pair survives iff another part mediates it
    SELECT 2 * pt.p AS rid, pr.u, pr.v
    FROM (SELECT p FROM parts WHERE deg >= 2) pt
    CROSS JOIN pairs pr
    LEFT JOIN trip t ON t.u = pr.u AND t.v = pr.v AND t.p = pt.p
    WHERE pr.cnt - (CASE WHEN t.p IS NULL THEN 0 ELSE 1 END) > 0
    UNION ALL
    -- removing supplier rs: drop its vertex, pair edges unchanged
    SELECT 2 * sp.s + 1, pr.u, pr.v
    FROM sups sp JOIN pairs pr ON pr.u <> sp.s AND pr.v <> sp.s
),
lab2(r, rid, s, l) AS (
    SELECT 0, rv.rid, sups.s, sups.s
    FROM rem_vertex rv JOIN sups ON (rv.rs IS NULL OR sups.s <> rv.rs)
    UNION ALL
    (
      WITH prev AS (SELECT * FROM lab2),
      rr AS (SELECT MAX(r) AS r FROM prev),
      adj AS (
          SELECT e.rid, e.u AS n, lv.l FROM rem_edges e
          JOIN prev lv ON lv.rid = e.rid AND lv.s = e.v
          UNION ALL
          SELECT e.rid, e.v AS n, lu.l FROM rem_edges e
          JOIN prev lu ON lu.rid = e.rid AND lu.s = e.u
      ),
      hop AS (SELECT c1.rid, c1.s AS n, c2.l FROM prev c1
              JOIN prev c2 ON c2.rid = c1.rid AND c2.s = c1.l),
      nxt AS (
          SELECT prev.rid, prev.s,
                 LEAST(prev.l,
                       COALESCE((SELECT MIN(h.l) FROM hop h
                                 WHERE h.rid = prev.rid AND h.n = prev.s), prev.l),
                       COALESCE((SELECT MIN(a2.l) FROM adj a2
                                 WHERE a2.rid = prev.rid AND a2.n = prev.s), prev.l)) AS l
          FROM prev
      ),
      chg AS (SELECT EXISTS (SELECT 1 FROM nxt JOIN prev
                             ON prev.rid = nxt.rid AND prev.s = nxt.s
                             WHERE nxt.l <> prev.l) AS c)
      SELECT rr.r + 1, nxt.rid, nxt.s, nxt.l FROM nxt, rr, chg
      WHERE chg.c AND rr.r < {rmax}
    )
),
lfin AS (SELECT MAX(r) AS r FROM lab2),
flab2 AS (SELECT rid, s, l FROM lab2, lfin WHERE lab2.r = lfin.r),
-- removed vertex's own G-component
rv_comp AS (
    SELECT rv.rid,
           COALESCE(gs.g, gp.g) AS g
    FROM rem_vertex rv
    LEFT JOIN gcomp gs ON gs.s = rv.rs
    LEFT JOIN (
        SELECT e.p, MIN(gc.g) AS g FROM edges e JOIN gcomp gc ON gc.s = e.s
        GROUP BY 1
    ) gp ON gp.p = rv.rp
),
-- k: supplier components after removal, within the removed vertex's old comp
k_cnt AS (
    SELECT f.rid, COUNT(DISTINCT f.l) AS k
    FROM flab2 f
    JOIN rv_comp rc ON rc.rid = f.rid
    JOIN gcomp gc ON gc.s = f.s AND gc.g = rc.g
    GROUP BY 1
),
-- e: parts made isolated by a supplier removal (their ONLY supplier)
excl AS (
    SELECT 2 * e.s + 1 AS rid, COUNT(*) AS e
    FROM edges e JOIN parts pt ON pt.p = e.p AND pt.deg = 1
    GROUP BY 1
),
artic AS (
    SELECT rv.rid, rv.rs, rv.rp, rc.g,
           COALESCE(k.k, 0) + COALESCE(x.e, 0) >= 2 AS is_art
    FROM rem_vertex rv
    JOIN rv_comp rc ON rc.rid = rv.rid
    LEFT JOIN k_cnt k ON k.rid = rv.rid
    LEFT JOIN excl x ON x.rid = rv.rid
),
-- per-component assembly
pcomp AS (
    SELECT e.p, MIN(gc.g) AS g FROM edges e JOIN gcomp gc ON gc.s = e.s GROUP BY 1
),
comp_stats AS (
    SELECT g,
           (SELECT COUNT(*) FROM pcomp WHERE pcomp.g = cg.g) AS n_parts,
           (SELECT COUNT(*) FROM gcomp WHERE gcomp.g = cg.g) AS n_suppliers,
           (SELECT COUNT(*) FROM edges e JOIN gcomp gc2 ON gc2.s = e.s
            WHERE gc2.g = cg.g) AS n_edges,
           (SELECT MIN(p) FROM pcomp WHERE pcomp.g = cg.g) AS min_p
    FROM (SELECT DISTINCT g FROM gcomp) cg
),
art_stats AS (
    SELECT g,
           SUM(CASE WHEN is_art THEN 1 ELSE 0 END) AS n_articulation,
           MIN(CASE WHEN is_art THEN COALESCE(rp, rs) END) AS min_art_key
    FROM artic GROUP BY 1
)
SELECT CAST(COALESCE(cs.min_p, cs.g) AS BIGINT) AS comp_id,
       CASE WHEN cs.min_p IS NOT NULL THEN 'part' ELSE 'supplier' END AS comp_side,
       CAST(cs.n_parts AS BIGINT) AS n_parts,
       CAST(cs.n_suppliers AS BIGINT) AS n_suppliers,
       CAST(cs.n_edges AS BIGINT) AS n_edges,
       CAST(COALESCE(a.n_articulation, 0) AS BIGINT) AS n_articulation,
       CAST(COALESCE(a.min_art_key, -1) AS BIGINT) AS min_art_key
FROM comp_stats cs LEFT JOIN art_stats a ON a.g = cs.g
ORDER BY comp_id
"""


def part_mst_boruvka(sf_dir: str) -> pd.DataFrame:
    """Minimum spanning forest of the weighted part co-purchase graph
    via distributed Boruvka rounds.  Edge weight is the same
    deterministic (x + y) % 7 + 1 part_weighted_sssp uses, made UNIQUE
    by packing the canonical edge id into the low bits
    (w << 42 | min << 21 | max — partkeys < 2^21 at fixture scale,
    2^32-packing at production key widths), so the MSF is unique and
    the serial-Kruskal pytest can assert edge-set equality, not just
    total weight. Uniqueness also gives the value-exact SQL twin
    (part_mst_boruvka_sql): any correct MSF algorithm reproduces the
    audit row, so the twin runs a flattened Boruvka recursion.  Output is one audit row: nodes, components, MSF
    edge count, total (primary) weight, and an edge-membership
    checksum.

    Distributed plan: the distinct canonical edge list is built once
    (64-way orderkey shard, per-order cliques) and materialized; each
    Boruvka round broadcasts the vertex-sized component labels,
    streams the edges, takes a groupby(component).Min over the packed
    weight (cheapest outgoing edge per component — the classic
    message), and the driver merges the O(components) winners with
    union-find.  O(log V) rounds, each one edge scan; label tables
    beyond driver RAM become the edges-join-labels exchange
    dedup_clusters documents."""
    # the packed-lag vectorized canonical (x < y) edge list — shared
    # with part_kcore_sizes / part_weighted_sssp
    edges = _copurchase_edges(sf_dir)

    nodes = sorted(
        set(edges.groupby("x").aggregate(Count(alias_name="_n")).to_pandas()["x"])
        | set(edges.groupby("y").aggregate(Count(alias_name="_n")).to_pandas()["y"])
    )
    parent = {v: v for v in nodes}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    mst_packed: list[int] = []
    while True:
        comp = {v: find(v) for v in nodes}
        cref = ray.put(comp)

        def cheapest(t: pa.Table) -> pa.Table:
            c = ray.get(cref)
            x = t["x"].to_numpy(zero_copy_only=False)
            y = t["y"].to_numpy(zero_copy_only=False)
            cx = np.array([c[v] for v in x], dtype=np.int64)
            cy = np.array([c[v] for v in y], dtype=np.int64)
            keep = cx != cy
            x, y, cx, cy = x[keep], y[keep], cx[keep], cy[keep]
            w = ((x + y) % 7 + 1) << 42 | (x << 21) | y
            # each endpoint component bids for its cheapest cut edge
            return pa.table(
                {
                    "comp": pa.array(np.concatenate([cx, cy])),
                    "pw": pa.array(np.concatenate([w, w])),
                }
            )

        winners = (
            edges.map_batches(cheapest, batch_format="pyarrow")
            .groupby("comp")
            .aggregate(Min("pw", alias_name="pw"))
            .to_pandas()
        )
        if "pw" not in winners.columns or winners.empty:
            break  # no inter-component edges left anywhere
        merged = 0
        for pw in sorted(int(v) for v in winners["pw"]):
            x = (pw >> 21) & ((1 << 21) - 1)
            y = pw & ((1 << 21) - 1)
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
                mst_packed.append(pw)
                merged += 1
        if merged == 0:
            break

    n_components = len({find(v) for v in nodes})
    total_weight = sum(pw >> 42 for pw in mst_packed)
    checksum = sum(
        ((pw >> 21) & ((1 << 21) - 1)) * 31 + (pw & ((1 << 21) - 1)) for pw in mst_packed
    )
    return pd.DataFrame(
        {
            "n_nodes": [len(nodes)],
            "n_components": [n_components],
            "n_mst_edges": [len(mst_packed)],
            "total_weight": [total_weight],
            "edge_checksum": [checksum],
        }
    ).astype("int64")


def part_mst_boruvka_sql(rmax: int = 400) -> str:
    """EXACT DuckDB twin of part_mst_boruvka: with unique packed
    weights the minimum spanning forest is unique, so the twin runs a
    flattened Boruvka inside one recursive CTE — the working table
    mixes node labels ('lab') and chosen MSF edges ('mst'); an
    iteration either propagates min labels along MSF edges (with a
    label-of-label pointer-jump hop) while any MSF edge still crosses
    labels, or, once converged, adds each component's cheapest cut
    edge (min over BOTH incident sides). Terminates when no cut edges
    remain."""
    return f"""
WITH RECURSIVE edges AS (
    SELECT x, y, ((x + y) % 7 + 1) * (1::BIGINT << 42)
                 + x * (1::BIGINT << 21) + y AS pw
    FROM (
        SELECT DISTINCT LEAST(a.l_partkey, b.l_partkey)::BIGINT AS x,
                        GREATEST(a.l_partkey, b.l_partkey)::BIGINT AS y
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey <> b.l_partkey
    )
),
nodes AS (SELECT DISTINCT n FROM (SELECT x AS n FROM edges UNION ALL SELECT y FROM edges) t),
state(r, kind, a, b) AS (
    SELECT 0, 'lab', n, n FROM nodes
    UNION ALL
    (
      WITH prev AS (SELECT * FROM state),
      rr AS (SELECT MAX(r) AS r FROM prev),
      lab AS (SELECT a AS n, b AS l FROM prev WHERE kind = 'lab'),
      mst AS (SELECT a AS pw,
                     (a >> 21) & ((1::BIGINT << 21) - 1) AS x,
                     a & ((1::BIGINT << 21) - 1) AS y
              FROM prev WHERE kind = 'mst'),
      stale AS (
          SELECT EXISTS (
              SELECT 1 FROM mst m
              JOIN lab lx ON lx.n = m.x JOIN lab ly ON ly.n = m.y
              WHERE lx.l <> ly.l) AS s
      ),
      -- propagate mode: min(label, label-of-label, mst-neighbor labels)
      adj AS (
          SELECT m.x AS n, ly.l FROM mst m JOIN lab ly ON ly.n = m.y
          UNION ALL
          SELECT m.y AS n, lx.l FROM mst m JOIN lab lx ON lx.n = m.x
      ),
      hop AS (
          SELECT l1.n, l2.l FROM lab l1 JOIN lab l2 ON l2.n = l1.l
      ),
      newlab AS (
          SELECT lab.n,
                 LEAST(lab.l,
                       COALESCE((SELECT MIN(h.l) FROM hop h WHERE h.n = lab.n), lab.l),
                       COALESCE((SELECT MIN(a2.l) FROM adj a2 WHERE a2.n = lab.n), lab.l))
                     AS l
          FROM lab
      ),
      -- choose mode: per-component cheapest cut edge
      cut AS (
          SELECT e.pw, lx.l AS cx, ly.l AS cy
          FROM edges e JOIN lab lx ON lx.n = e.x JOIN lab ly ON ly.n = e.y
          WHERE lx.l <> ly.l
      ),
      winners AS (
          SELECT DISTINCT pw FROM (
              SELECT c, MIN(pw) AS pw FROM (
                  SELECT cx AS c, pw FROM cut
                  UNION ALL
                  SELECT cy AS c, pw FROM cut
              ) GROUP BY c
          )
      )
      SELECT rr.r + 1, 'lab', x.n, x.l FROM rr, stale, (
          SELECT n, l FROM newlab WHERE (SELECT s FROM stale)
          UNION ALL
          SELECT n, l FROM lab
          WHERE NOT (SELECT s FROM stale)
            AND EXISTS (SELECT 1 FROM winners)
      ) x WHERE rr.r < {rmax}
      UNION ALL
      SELECT rr.r + 1, 'mst', x.pw, NULL FROM rr, stale, (
          SELECT pw FROM mst WHERE (SELECT s FROM stale)
          UNION ALL
          SELECT pw FROM (
              SELECT pw FROM mst UNION SELECT pw FROM winners
          ) WHERE NOT (SELECT s FROM stale)
            AND EXISTS (SELECT 1 FROM winners)
      ) x WHERE rr.r < {rmax}
    )
),
fin AS (SELECT MAX(r) AS r FROM state),
flab AS (SELECT a AS n, b AS l FROM state, fin
         WHERE kind = 'lab' AND state.r = fin.r),
fmst AS (SELECT a AS pw FROM state, fin
         WHERE kind = 'mst' AND state.r = fin.r)
SELECT CAST((SELECT COUNT(*) FROM nodes) AS BIGINT) AS n_nodes,
       CAST((SELECT COUNT(DISTINCT l) FROM flab) AS BIGINT) AS n_components,
       CAST((SELECT COUNT(*) FROM fmst) AS BIGINT) AS n_mst_edges,
       CAST((SELECT COALESCE(SUM(pw >> 42), 0) FROM fmst) AS BIGINT)
           AS total_weight,
       CAST((SELECT COALESCE(SUM(((pw >> 21) & ((1::BIGINT << 21) - 1)) * 31
                                 + (pw & ((1::BIGINT << 21) - 1))), 0)
             FROM fmst) AS BIGINT) AS edge_checksum
"""


def event_debruijn_balance(sf_dir: str) -> pd.DataFrame:
    """De Bruijn graph balance over per-user event-type sequences:
    nodes are type BIGRAMS, each within-user type trigram (t1,t2,t3)
    is an edge (t1,t2) -> (t2,t3); the in/out degree per node is the
    Eulerian-path existence algebra assembly pipelines run over k-mer
    graphs.  Output per node with any degree: the bigram and its exact
    in/out degrees.

    Distributed plan: user-keyed groupby emits trigram partials (two
    degree rows each); a node-keyed Sum folds them — the exchange is
    O(T^2) nodes, never event-sized."""
    import pyarrow.compute as pc

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"])

    def keys(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "ts": pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64()),
                "event_type": t["event_type"],
            }
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("ts")
        ev = g["event_type"].to_numpy()
        if len(ev) < 3:
            return pd.DataFrame(
                {"t1": pd.Series([], dtype="object")}
            ).reindex(columns=["t1", "t2", "out_d", "in_d"])
        a, b, c = ev[:-2], ev[1:-1], ev[2:]
        df = pd.concat(
            [
                pd.DataFrame({"t1": a, "t2": b, "out_d": 1, "in_d": 0}),
                pd.DataFrame({"t1": b, "t2": c, "out_d": 0, "in_d": 1}),
            ]
        )
        agg = df.groupby(["t1", "t2"], as_index=False).sum()
        return agg

    out = (
        ds.map_batches(keys, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(fold, batch_format="pandas")
        .groupby(["t1", "t2"])
        .aggregate(Sum("out_d", alias_name="out_deg"), Sum("in_d", alias_name="in_deg"))
        .to_pandas()
        .sort_values(["t1", "t2"])
        .reset_index(drop=True)
    )
    for c in ("out_deg", "in_deg"):
        out[c] = out[c].astype("int64")
    return out


def event_debruijn_balance_sql() -> str:
    return """
        WITH s AS (
            SELECT user_id,
                   event_type AS t2,
                   LAG(event_type) OVER w AS t1,
                   LEAD(event_type) OVER w AS t3
            FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
        ),
        tri AS (
            SELECT t1, t2, t3 FROM s WHERE t1 IS NOT NULL AND t3 IS NOT NULL
        ),
        deg AS (
            SELECT t1, t2, 1 AS out_d, 0 AS in_d FROM tri
            UNION ALL
            SELECT t2, t3, 0, 1 FROM tri
        )
        SELECT t1, t2,
               CAST(SUM(out_d) AS BIGINT) AS out_deg,
               CAST(SUM(in_d) AS BIGINT) AS in_deg
        FROM deg GROUP BY 1, 2 ORDER BY 1, 2
    """


def part_supplier_max_matching(sf_dir: str) -> pd.DataFrame:
    """Maximum bipartite matching between parts and suppliers over the
    DISTINCT (l_partkey, l_suppkey) edges — "how many part<->supplier
    assignments can ship simultaneously if each entity handles one
    order at a time", the assignment-capacity audit.  Hopcroft-Karp
    computes the matching; the König construction (left vertices NOT
    reached by alternating BFS from unmatched lefts, plus right
    vertices reached) yields a vertex cover of equal size — an
    optimality CERTIFICATE checked in tests, since no SQL oracle can
    express max matching.

    Distributed plan: the distinct edge list is reduced by one
    groupby (entity-sized, bounded by parts x suppliers, not by
    lineitem rows); the augmenting search runs on the driver over the
    entity graph.  Scale path at 10^12 rows: same reduction, then a
    distributed auction / Israeli-Itai maximal-matching round as the
    seed and HK only on the residual."""
    from collections import deque

    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"])
    edges = (
        ds.groupby(["l_partkey", "l_suppkey"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    lefts = sorted(edges["l_partkey"].unique())
    rights = sorted(edges["l_suppkey"].unique())
    lidx = {v: i for i, v in enumerate(lefts)}
    ridx = {v: i for i, v in enumerate(rights)}
    adj: list[list[int]] = [[] for _ in lefts]
    for p, s in zip(edges["l_partkey"], edges["l_suppkey"]):
        adj[lidx[p]].append(ridx[s])
    for a in adj:
        a.sort()

    INF = float("inf")
    match_l = [-1] * len(lefts)
    match_r = [-1] * len(rights)

    def bfs() -> bool:
        dist = [INF] * len(lefts)
        q = deque()
        for u in range(len(lefts)):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
        found = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] is INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        bfs.dist = dist  # type: ignore[attr-defined]
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = match_r[v]
            if w == -1 or (bfs.dist[w] == bfs.dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        bfs.dist[u] = INF
        return False

    while bfs():
        for u in range(len(lefts)):
            if match_l[u] == -1:
                dfs(u)
    m_size = sum(1 for v in match_l if v != -1)

    # König: alternating BFS from unmatched lefts
    visited_l = [False] * len(lefts)
    visited_r = [False] * len(rights)
    q = deque(u for u in range(len(lefts)) if match_l[u] == -1)
    for u in q:
        visited_l[u] = True
    while q:
        u = q.popleft()
        for v in adj[u]:
            if not visited_r[v]:
                visited_r[v] = True
                w = match_r[v]
                if w != -1 and not visited_l[w]:
                    visited_l[w] = True
                    q.append(w)
    cover_l = [lefts[u] for u in range(len(lefts)) if not visited_l[u]]
    cover_r = [rights[v] for v in range(len(rights)) if visited_r[v]]
    return pd.DataFrame(
        {
            "n_left": pd.Series([len(lefts)], dtype="int64"),
            "n_right": pd.Series([len(rights)], dtype="int64"),
            "n_edges": pd.Series([len(edges)], dtype="int64"),
            "matching_size": pd.Series([m_size], dtype="int64"),
            "cover_size": pd.Series([len(cover_l) + len(cover_r)], dtype="int64"),
        }
    )


def part_supplier_articulation(sf_dir: str) -> pd.DataFrame:
    """Biconnectivity audit of the part-supplier bipartite graph
    (distinct lineitem edges): per connected component, its size and
    its count of articulation vertices — entities whose removal
    disconnects some currently-connected pair, the strongest 'single
    point of failure' notion (complements supplier_part_herfindahl's
    concentration view with an exact topological one).  A component
    row with n_articulation=0 is itself the audit finding: that
    supply subgraph is biconnected (no single entity can sever it).
    Tarjan low-link over the entity graph; value-exact SQL twin
    (part_supplier_articulation_sql, the vertex-removal definition
    evaluated on the supplier projection) plus brute-force
    vertex-removal pytests.

    Distributed plan: the corpus-to-entity-graph reduction is one
    distinct-edge groupby; Tarjan runs on the driver over the bounded
    entity graph (scale path: per-component Tarjan after a distributed
    connected-components pass)."""
    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"])
    edges = (
        ds.groupby(["l_partkey", "l_suppkey"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    # vertex namespace: ('p', key) and ('s', key)
    adj: dict = {}
    for p, s in zip(edges["l_partkey"], edges["l_suppkey"]):
        a, b = ("p", int(p)), ("s", int(s))
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for v in adj:
        adj[v].sort()

    disc: dict = {}
    low: dict = {}
    comps = []
    timer = 0
    for root in sorted(adj):
        if root in disc:
            continue
        # iterative Tarjan DFS over this component
        art: set = set()
        comp = [root]
        stack = [(root, None, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if w in disc:
                    low[v] = min(low[v], disc[w])
                else:
                    disc[w] = low[w] = timer
                    timer += 1
                    comp.append(w)
                    if v == root:
                        root_children += 1
                    stack.append((w, v, iter(adj[w])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if u != root and low[v] >= disc[u]:
                        art.add(u)
        if root_children > 1:
            art.add(root)
        n_parts = sum(1 for t, _ in comp if t == "p")
        comps.append(
            {
                "comp_id": int(root[1]),
                "comp_side": "part" if root[0] == "p" else "supplier",
                "n_parts": n_parts,
                "n_suppliers": len(comp) - n_parts,
                "n_edges": sum(len(adj[v]) for v in comp) // 2,
                "n_articulation": len(art),
                "min_art_key": min((k for _, k in art), default=-1),
            }
        )

    out = pd.DataFrame(
        comps,
        columns=[
            "comp_id",
            "comp_side",
            "n_parts",
            "n_suppliers",
            "n_edges",
            "n_articulation",
            "min_art_key",
        ],
    )
    for c in out.columns:
        if c != "comp_side":
            out[c] = out[c].astype("int64")
    return out.sort_values(["comp_side", "comp_id"]).reset_index(drop=True)
