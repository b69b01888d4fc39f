"""Batch-170: IVF-bucketed scale siblings for the broadcast-pool
embedding audits (mutual-kNN, pair histogram, triplet margins, DBSCAN,
facility location).

Each sibling runs the audit within IVF buckets only (no driver read of
the embeddings table); with n_centroids=1 (or all_candidates=True for
facility location) it must reproduce the exact variant bit-for-bit —
that degenerate is also wired as a *_ivf_exact driver query carrying
the exact SQL oracle."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def test_mutual_knn_ivf_degenerate_equals_exact(ray_session):
    from pdfrust_ray.stages.similarity import (
        mutual_knn_degree,
        mutual_knn_degree_ivf,
    )

    exact = mutual_knn_degree(SF)
    ivf1 = mutual_knn_degree_ivf(SF, n_centroids=1)
    pd.testing.assert_frame_equal(ivf1, exact)


def test_mutual_knn_ivf_histogram_accounts_every_vector(ray_session):
    from pdfrust_ray.stages.similarity import mutual_knn_degree_ivf

    out = mutual_knn_degree_ivf(SF, n_centroids=8)
    n = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id"]).num_rows
    assert int(out["n_vectors"].sum()) == n
    assert (out["degree"] >= 0).all() and (out["degree"] <= 5).all()


def test_pair_histogram_ivf_degenerate_equals_exact(ray_session):
    from pdfrust_ray.stages.similarity import (
        embedding_pair_distance_histogram,
        embedding_pair_distance_histogram_ivf,
    )

    exact = embedding_pair_distance_histogram(SF)
    ivf1 = embedding_pair_distance_histogram_ivf(SF, n_centroids=1)
    pd.testing.assert_frame_equal(ivf1, exact)


def test_pair_histogram_ivf_counts_subset_of_exact(ray_session):
    from pdfrust_ray.stages.similarity import (
        embedding_pair_distance_histogram,
        embedding_pair_distance_histogram_ivf,
    )

    exact = embedding_pair_distance_histogram(SF).set_index("bucket")["n_pairs"]
    ivf = embedding_pair_distance_histogram_ivf(SF, n_centroids=8)
    # within-bucket pairs are a subset of all pairs, bucket-wise
    for _, r in ivf.iterrows():
        assert int(r["n_pairs"]) <= int(exact.get(int(r["bucket"]), 0))
    assert int(ivf["n_pairs"].sum()) <= int(exact.sum())


def test_triplet_ivf_degenerate_equals_exact(ray_session):
    from pdfrust_ray.stages.similarity import (
        triplet_margin_violations,
        triplet_margin_violations_ivf,
    )

    exact = triplet_margin_violations(SF)
    ivf1 = triplet_margin_violations_ivf(SF, n_centroids=1)
    pd.testing.assert_frame_equal(ivf1, exact)


def test_triplet_ivf_anchor_conservation(ray_session):
    from pdfrust_ray.stages.similarity import triplet_margin_violations_ivf

    out = triplet_margin_violations_ivf(SF, n_centroids=8)
    n = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id"]).num_rows
    assert int(out["n_anchors"].sum()) == n
    assert (out["n_violations"] <= out["n_anchors"]).all()


def test_dbscan_ivf_degenerate_equals_exact(ray_session):
    from pdfrust_ray.stages.similarity import (
        dbscan_embeddings,
        dbscan_embeddings_ivf,
    )

    exact = dbscan_embeddings(SF)
    ivf1 = dbscan_embeddings_ivf(SF, n_centroids=1)
    pd.testing.assert_frame_equal(ivf1, exact)


def test_dbscan_ivf_point_conservation(ray_session):
    from pdfrust_ray.stages.similarity import dbscan_embeddings_ivf

    out = dbscan_embeddings_ivf(SF, n_centroids=8)
    n = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id"]).num_rows
    noise = int(out.loc[out["cluster_id"] == -1, "n_border"].iloc[0])
    clustered = out[out["cluster_id"] >= 0]
    assert noise + int(clustered["n_core"].sum()) + int(clustered["n_border"].sum()) == n
    # cluster ids are real vec_ids, unique, and the frame leads with -1
    assert int(out["cluster_id"].iloc[0]) == -1
    assert clustered["cluster_id"].is_unique


def test_facility_ivf_all_candidates_equals_exact(ray_session):
    from pdfrust_ray.stages.similarity import (
        facility_location_selection,
        facility_location_selection_ivf,
    )

    exact = facility_location_selection(SF)
    ivf = facility_location_selection_ivf(SF, all_candidates=True)
    pd.testing.assert_frame_equal(ivf, exact)


def _serial_reps_and_greedy(sf_dir: str, k: int, n_centroids: int, scale: int):
    """Independent serial recompute: engine bucket rule (nearest of the
    first-n normalized centroids), min-id representative per bucket,
    then greedy facility location restricted to those candidates."""
    t = pq.read_table(sf_dir + "/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy().astype(np.int64)
    mat = np.asarray([list(x) for x in t["embedding"].to_pylist()], dtype=np.float64)
    order = np.argsort(ids)
    ids, mat = ids[order], mat[order]

    def norm(m):
        n = np.linalg.norm(m, axis=1, keepdims=True)
        n[n == 0] = 1.0
        return m / n

    cent = norm(mat[:n_centroids].copy())
    bucket = (norm(mat.copy()) @ cent.T).argmax(axis=1)
    reps = []
    for b in sorted(set(bucket.tolist())):
        members = np.flatnonzero(bucket == b)
        reps.append(members[np.argmin(ids[members])])
    reps = sorted(reps, key=lambda i: ids[i])
    q = np.round(mat * scale).astype(np.int64)
    cand = q[reps]
    cand_ids = ids[reps]
    sims = np.maximum(q @ cand.T, 0)  # [N, C]
    curmax = np.zeros(len(q), dtype=np.int64)
    sel, rows = [], []
    for rank in range(1, k + 1):
        gains = np.maximum(sims - curmax[:, None], 0).sum(axis=0)
        gains[[list(cand_ids).index(s) for s in sel]] = -1
        best = int(np.flatnonzero(gains == gains.max())[0])  # ties: min id (sorted)
        if gains[best] <= 0:
            break
        rows.append((rank, int(cand_ids[best]), int(gains[best])))
        sel.append(int(cand_ids[best]))
        curmax = np.maximum(curmax, sims[:, best])
    return pd.DataFrame(rows, columns=["rank", "vec_id", "marginal_gain"]).astype(
        "int64"
    )


def test_facility_ivf_matches_serial_restricted_greedy(ray_session):
    from pdfrust_ray.stages.similarity import facility_location_selection_ivf

    k, n_centroids, scale = 10, 8, 1_000_000
    mine = facility_location_selection_ivf(SF, k=k, n_centroids=n_centroids)
    serial = _serial_reps_and_greedy(SF, k, n_centroids, scale)
    pd.testing.assert_frame_equal(mine, serial)


def test_facility_ivf_selects_only_representatives(ray_session):
    from pdfrust_ray.stages.similarity import facility_location_selection_ivf

    out = facility_location_selection_ivf(SF, k=5, n_centroids=8)
    n_c = len(out)
    assert 0 < n_c <= 5
    # gains strictly decrease (submodularity) under a fixed candidate set
    g = out["marginal_gain"].to_numpy()
    assert (np.diff(g) <= 0).all()
