"""Batch-165: Gonzalez farthest-first k-center coreset."""

import duckdb
import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _quantized():
    t = duckdb.sql(
        f"SELECT vec_id, embedding FROM read_parquet('{SF}/embeddings.parquet') ORDER BY vec_id"
    ).fetchdf()
    ids = t["vec_id"].to_numpy(np.int64)
    mat = np.round(np.stack(t["embedding"].to_numpy()).astype(np.float64) * 1e6).astype(np.int64)
    return ids, mat


def test_kcenter_matches_serial_gonzalez(ray_session):
    from pdfrust_ray.stages.similarity import kcenter_coreset

    ids, mat = _quantized()
    n2 = (mat * mat).sum(axis=1)
    pos = {int(v): i for i, v in enumerate(ids)}
    sel = [0]
    rows = [(1, 0, 0)]
    mind = n2 + n2[pos[0]] - 2 * (mat @ mat[pos[0]])
    for rank in range(2, 13):
        order = np.lexsort((ids, -mind))
        champ = order[0]
        radius2 = int(mind[champ])
        if radius2 == 0:
            break
        rows.append((rank, int(ids[champ]), radius2))
        d = n2 + n2[champ] - 2 * (mat @ mat[champ])
        mind = np.minimum(mind, d)
    exp = pd.DataFrame(rows, columns=["rank", "vec_id", "radius2"]).astype("int64")
    mine = kcenter_coreset(SF)
    pd.testing.assert_frame_equal(mine.reset_index(drop=True), exp)


def test_kcenter_radius_monotone_nonincreasing(ray_session):
    from pdfrust_ray.stages.similarity import kcenter_coreset

    mine = kcenter_coreset(SF)
    r = mine["radius2"].to_numpy()[1:]  # skip the seed's 0 placeholder
    assert (np.diff(r) <= 0).all()
    assert mine["vec_id"].is_unique


def test_kcenter_sql_twin_exact(ray_session, con):
    from pdfrust_ray.stages.similarity import kcenter_coreset, kcenter_coreset_sql

    mine = kcenter_coreset(SF)
    ora = con.execute(kcenter_coreset_sql()).fetchdf().astype("int64")
    pd.testing.assert_frame_equal(mine.reset_index(drop=True), ora)
