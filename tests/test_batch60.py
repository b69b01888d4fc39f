"""Batch-60: iterative k-core peeling vs a serial reference peel."""

import duckdb
import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _serial_kcore(pairs: np.ndarray, k: int):
    """Reference peel on a [(x, y)] array of distinct undirected edges."""
    edges = {tuple(p) for p in pairs}
    while True:
        deg: dict[int, int] = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        under = {n for n, d in deg.items() if d < k}
        if not under:
            nodes = sorted(deg)
            return len(nodes), len(edges), sum(nodes)
        edges = {(a, b) for a, b in edges if a not in under and b not in under}


def test_part_kcore_vs_serial_peel(ray_session):
    from pdfrust_ray.pipelines.graph import part_kcore_sizes

    mine = part_kcore_sizes(SF)
    con = duckdb.connect()
    pairs = con.execute(
        f"""SELECT DISTINCT LEAST(a.l_partkey, b.l_partkey) x,
                            GREATEST(a.l_partkey, b.l_partkey) y
            FROM read_parquet('{SF}/lineitem.parquet') a
            JOIN read_parquet('{SF}/lineitem.parquet') b
              ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey"""
    ).fetchdf().to_numpy()
    for _, row in mine.iterrows():
        n_nodes, n_edges, checksum = _serial_kcore(pairs, int(row["k"]))
        assert int(row["n_nodes"]) == n_nodes
        assert int(row["n_edges"]) == n_edges
        assert int(row["node_checksum"]) == checksum


def test_part_kcore_contract_ks_vs_serial_peel(ray_session):
    """The registered contract runs at the sf0.01 core phase
    transition, ks=(64, 80, 96); pin those ks against the serial peel
    at sf0.001 too (they collapse the sparser graph — the cascade
    path, rounds > 1, must still agree)."""
    from pdfrust_ray.pipelines.graph import part_kcore_sizes

    mine = part_kcore_sizes(SF, ks=(4, 64, 96))
    con = duckdb.connect()
    pairs = con.execute(
        f"""SELECT DISTINCT LEAST(a.l_partkey, b.l_partkey) x,
                            GREATEST(a.l_partkey, b.l_partkey) y
            FROM read_parquet('{SF}/lineitem.parquet') a
            JOIN read_parquet('{SF}/lineitem.parquet') b
              ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey"""
    ).fetchdf().to_numpy()
    for _, row in mine.iterrows():
        n_nodes, n_edges, checksum = _serial_kcore(pairs, int(row["k"]))
        assert int(row["n_nodes"]) == n_nodes
        assert int(row["n_edges"]) == n_edges
        assert int(row["node_checksum"]) == checksum


def test_kcore_sql_twin_matches_engine_rounds(ray_session, con):
    """The recursive-CTE twin must agree with the engine on ALL
    columns including peel_rounds (the fixpoint-detection subtlety)."""
    from pdfrust_ray.pipelines.graph import part_kcore_sizes, part_kcore_sizes_sql

    ks = (4, 64, 96)
    mine = part_kcore_sizes(SF, ks=ks).reset_index(drop=True)
    ora = con.execute(part_kcore_sizes_sql(ks=ks)).fetchdf()
    pd.testing.assert_frame_equal(mine, ora, check_dtype=False)


def test_kcore_nesting(ray_session):
    """Cores are nested: the (k+1)-core is a subgraph of the k-core."""
    from pdfrust_ray.pipelines.graph import part_kcore_sizes

    mine = part_kcore_sizes(SF)
    n = mine["n_nodes"].to_numpy()
    e = mine["n_edges"].to_numpy()
    assert (np.diff(n) <= 0).all()
    assert (np.diff(e) <= 0).all()
