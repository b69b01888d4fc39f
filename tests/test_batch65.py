"""Batch-65: weighted SSSP, per-user LIS, simhash hamming histogram."""

import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_weighted_sssp_oracle_and_dijkstra(ray_session, con):
    import heapq

    from pdfrust_ray.pipelines.graph import part_weighted_sssp, part_weighted_sssp_sql

    mine = part_weighted_sssp(SF)
    compare_twin(mine, con, part_weighted_sssp_sql())
    # seed sits alone at distance 0
    assert int(mine["dist"].iloc[0]) == 0 and int(mine["n_parts"].iloc[0]) == 1
    assert int(mine["dist"].max()) <= 15

    # serial Dijkstra over the same clique edge list must agree
    pairs = con.execute(
        "SELECT DISTINCT a.l_partkey, b.l_partkey FROM lineitem a JOIN lineitem b "
        "ON a.l_orderkey = b.l_orderkey AND a.l_partkey <> b.l_partkey"
    ).fetchall()
    seed = con.execute("SELECT MIN(l_partkey) FROM lineitem").fetchone()[0]
    adj: dict[int, list[tuple[int, int]]] = {}
    for x, y in pairs:
        adj.setdefault(x, []).append((y, (x + y) % 7 + 1))
    dist = {seed: 0}
    pq = [(0, seed)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist.get(u, 1 << 60):
            continue
        for v, w in adj.get(u, []):
            nd = d + w
            if nd <= 15 and nd < dist.get(v, 1 << 60):
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    ser = pd.Series(dist).groupby(pd.Series(dist)).size()
    got = dict(zip(mine["dist"], mine["n_parts"]))
    assert got == {int(k): int(v) for k, v in ser.items()}


def test_lis_oracle_and_brute(ray_session, con):
    from pdfrust_ray.pipelines.relational import user_lis_lengths, user_lis_lengths_sql

    mine = user_lis_lengths(SF)
    compare_twin(mine, con, user_lis_lengths_sql())
    assert (mine["lis_len"] >= 1).all() and (mine["lis_len"] <= mine["n_events"]).all()

    # quadratic DP for every user (pure python, no patience shortcut)
    rows = con.execute(
        "SELECT user_id, CAST(ROUND(value*100) AS BIGINT) FROM events "
        "ORDER BY user_id, ts, event_id"
    ).fetchall()
    seqs: dict[int, list[int]] = {}
    for u, x in rows:
        seqs.setdefault(u, []).append(x)
    for _, r in mine.iterrows():
        xs = seqs[int(r["user_id"])]
        dp = []
        for i, v in enumerate(xs):
            dp.append(1 + max((dp[j] for j in range(i) if xs[j] < v), default=0))
        assert int(r["lis_len"]) == max(dp)


def test_hamming_histogram_oracle_and_mass(ray_session, con):
    from pdfrust_ray.stages.dedup import (
        simhash_dedup_sql,
        simhash_hamming_histogram,
        simhash_hamming_histogram_sql,
    )

    mine = simhash_hamming_histogram(SF)
    compare_twin(mine, con, simhash_hamming_histogram_sql())
    n_docs = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert int(mine["n_pairs"].sum()) == n_docs * (n_docs - 1) // 2
    # histogram mass at hamming <= 3 equals the exact near-dup pair count
    close = int(mine[mine["hamming"] <= 3]["n_pairs"].sum())
    assert close == len(con.execute(simhash_dedup_sql()).fetchdf())


def test_hamming_histogram_banded_agreement(ray_session, con):
    """The banded scale sibling vs the exact landscape: bins below
    n_bands are exact (pigeonhole over the contiguous band slices),
    every bin is a lower bound, and the SQL twin matches bit-for-bit
    at the operating setting."""
    from pdfrust_ray.stages.dedup import (
        simhash_hamming_histogram,
        simhash_hamming_histogram_banded,
        simhash_hamming_histogram_banded_sql,
    )

    exact = simhash_hamming_histogram(SF).set_index("hamming")["n_pairs"]
    for n_bands in (4, 8):
        banded = simhash_hamming_histogram_banded(SF, n_bands=n_bands)
        if n_bands == 4:  # the registered operating setting
            compare_twin(banded, con, simhash_hamming_histogram_banded_sql(n_bands))
        b = banded.set_index("hamming")["n_pairs"]
        # pigeonhole: any pair with hamming < n_bands shares a band
        for h in range(n_bands):
            assert int(b.get(h, 0)) == int(exact.get(h, 0)), (n_bands, h)
        # every bin counts a subset of the exact pairs
        assert all(int(b[h]) <= int(exact.get(h, 0)) for h in b.index)
        # and the banded mass is a strict subset overall on this corpus
        assert int(b.sum()) <= int(exact.sum())


def test_band_skew_census_oracle_and_mass(ray_session, con):
    """The census's pair mass equals what the banded histogram
    actually touches — before first-band dedup it's an upper bound;
    its per-band bucket counts sum to n_docs per band."""
    from pdfrust_ray.stages.dedup import (
        simhash_band_skew_census,
        simhash_band_skew_census_sql,
        simhash_hamming_histogram_banded,
    )

    mine = simhash_band_skew_census(SF)
    compare_twin(mine, con, simhash_band_skew_census_sql())
    assert sorted(mine["band"].unique()) == [0, 1, 2, 3]
    # singleton buckets contribute no pairs; every bin is consistent
    assert (mine.loc[mine["log2_size"] == 0, "n_pairs"] == 0).all()
    assert (mine["n_pairs"] >= 0).all() and (mine["n_buckets"] > 0).all()
    mass = int(mine["n_pairs"].sum())
    banded = simhash_hamming_histogram_banded(SF)
    assert int(banded["n_pairs"].sum()) <= mass  # first-band dedup only removes
