"""Batch-166: greedy facility-location (submodular) selection."""

import duckdb
import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _serial(k=10, scale=1_000_000):
    t = duckdb.sql(
        f"SELECT vec_id, embedding FROM read_parquet('{SF}/embeddings.parquet') ORDER BY vec_id"
    ).fetchdf()
    ids = t["vec_id"].to_numpy(np.int64)
    mat = np.round(
        np.stack(t["embedding"].to_numpy()).astype(np.float64) * scale
    ).astype(np.int64)
    s = np.maximum(mat @ mat.T, 0)
    curmax = np.zeros(len(ids), dtype=np.int64)
    sel: list[int] = []
    rows = []
    for rank in range(1, k + 1):
        gain = np.maximum(s - curmax[:, None], 0).sum(axis=0)
        for x in sel:
            gain[np.flatnonzero(ids == x)[0]] = -1
        order = np.lexsort((ids, -gain))
        c = order[0]
        if gain[c] <= 0:
            break
        rows.append((rank, int(ids[c]), int(gain[c])))
        sel.append(int(ids[c]))
        curmax = np.maximum(curmax, s[:, c])
    return pd.DataFrame(rows, columns=["rank", "vec_id", "marginal_gain"]).astype(
        "int64"
    )


def test_facility_location_matches_serial(ray_session):
    from pdfrust_ray.stages.similarity import facility_location_selection

    mine = facility_location_selection(SF)
    pd.testing.assert_frame_equal(mine.reset_index(drop=True), _serial())


def test_facility_location_gains_diminish(ray_session):
    """Submodularity: greedy marginal gains are non-increasing."""
    from pdfrust_ray.stages.similarity import facility_location_selection

    mine = facility_location_selection(SF)
    g = mine["marginal_gain"].to_numpy()
    assert (np.diff(g) <= 0).all()
    assert mine["vec_id"].is_unique


def test_facility_location_sql_twin_exact(ray_session, con):
    from pdfrust_ray.stages.similarity import (
        facility_location_selection,
        facility_location_selection_sql,
    )

    mine = facility_location_selection(SF)
    ora = con.execute(facility_location_selection_sql()).fetchdf().astype("int64")
    pd.testing.assert_frame_equal(mine.reset_index(drop=True), ora)


def test_bpe_train_sql_twin_exact(ray_session, con):
    from pdfrust_ray.pipelines.llmdata import bpe_train, bpe_train_sql

    mine = bpe_train(SF)
    ora = con.execute(bpe_train_sql()).fetchdf()
    ora["merge_rank"] = ora["merge_rank"].astype("int64")
    ora["pair_count"] = ora["pair_count"].astype("int64")
    pd.testing.assert_frame_equal(mine.reset_index(drop=True), ora)


def test_bpe_encode_counts_sql_twin_exact(ray_session, con):
    from pdfrust_ray.pipelines.llmdata import (
        bpe_encode_counts,
        bpe_encode_counts_sql,
    )

    mine = bpe_encode_counts(SF)
    ora = con.execute(bpe_encode_counts_sql()).fetchdf()
    ora["doc_id"] = ora["doc_id"].astype("int64")
    pd.testing.assert_frame_equal(mine.reset_index(drop=True), ora)
