"""Batch-164: DBSCAN over embeddings with exact integer geometry."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
EPS2 = 1_350_000_000_000
MIN_PTS = 4


def _serial_dbscan(mat: np.ndarray, ids: np.ndarray):
    """Textbook DBSCAN on the quantized matrix (O(n^2) reference)."""
    d2 = (
        (mat * mat).sum(axis=1)[:, None]
        + (mat * mat).sum(axis=1)[None, :]
        - 2 * (mat @ mat.T)
    )
    within = d2 <= EPS2
    ncnt = within.sum(axis=1)
    core_idx = np.flatnonzero(ncnt >= MIN_PTS)
    core = set(ids[core_idx].tolist())
    # components over core-core eps edges
    parent = {int(v): int(v) for v in core}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pos = {int(v): i for i, v in enumerate(ids)}
    for a in core:
        for b in core:
            if a < b and within[pos[a], pos[b]]:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    cluster = {v: find(v) for v in core}
    border = {}
    for i, v in enumerate(ids):
        v = int(v)
        if v in core:
            continue
        labs = [cluster[int(u)] for u in ids[within[i]] if int(u) in core]
        if labs:
            border[v] = min(labs)
    rows = [(-1, 0, len(ids) - len(core) - len(border))]
    for cid in sorted(set(cluster.values())):
        rows.append(
            (
                cid,
                sum(1 for c in cluster.values() if c == cid),
                sum(1 for c in border.values() if c == cid),
            )
        )
    return pd.DataFrame(rows, columns=["cluster_id", "n_core", "n_border"]).astype(
        "int64"
    )


@pytest.fixture(scope="module")
def quantized():
    t = duckdb.sql(
        f"SELECT vec_id, embedding FROM read_parquet('{SF}/embeddings.parquet') ORDER BY vec_id"
    ).fetchdf()
    ids = t["vec_id"].to_numpy(np.int64)
    mat = np.round(np.stack(t["embedding"].to_numpy()).astype(np.float64) * 1e6).astype(np.int64)
    return ids, mat


def test_dbscan_matches_serial_reference(ray_session, quantized):
    from pdfrust_ray.stages.similarity import dbscan_embeddings

    ids, mat = quantized
    mine = dbscan_embeddings(SF)
    ref = _serial_dbscan(mat, ids)
    pd.testing.assert_frame_equal(mine.reset_index(drop=True), ref)


def test_dbscan_partition_is_complete(ray_session, quantized):
    """core + border + noise partitions every vector exactly once."""
    from pdfrust_ray.stages.similarity import dbscan_embeddings

    ids, _ = quantized
    mine = dbscan_embeddings(SF)
    noise = int(mine.loc[mine["cluster_id"] == -1, "n_border"].iloc[0])
    clusters = mine[mine["cluster_id"] >= 0]
    assert noise + int(clusters["n_core"].sum()) + int(
        clusters["n_border"].sum()
    ) == len(ids)
    # every cluster has at least min_pts-dense structure: >= 1 core
    assert (clusters["n_core"] >= 1).all()


def test_dbscan_sql_twin_exact(ray_session, con):
    from pdfrust_ray.stages.similarity import (
        dbscan_embeddings,
        dbscan_embeddings_sql,
    )

    mine = dbscan_embeddings(SF)
    ora = con.execute(dbscan_embeddings_sql()).fetchdf().astype("int64")
    pd.testing.assert_frame_equal(mine.reset_index(drop=True), ora)
