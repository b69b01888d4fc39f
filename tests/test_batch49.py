"""Batch-49: exact all-pairs embedding dot-product histogram."""

import numpy as np
import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_embedding_pair_distance_histogram_oracle(ray_session, con):
    from pdfrust_ray.stages.similarity import (
        embedding_pair_distance_histogram,
        embedding_pair_distance_histogram_sql,
    )

    mine = embedding_pair_distance_histogram(SF)
    # histogram mass == C(n, 2): every unordered pair exactly once
    n = con.execute("SELECT COUNT(*) FROM embeddings").fetchone()[0]
    assert int(mine["n_pairs"].sum()) == n * (n - 1) // 2
    assert len(mine) > 1  # non-degenerate spread
    compare_twin(mine, con, embedding_pair_distance_histogram_sql())


def test_pair_histogram_brute_force(ray_session):
    """Re-derive the full histogram with one numpy matmul."""
    import pyarrow.parquet as pq

    from pdfrust_ray.stages.similarity import embedding_pair_distance_histogram

    mine = embedding_pair_distance_histogram(SF)
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    m = np.round(
        np.asarray(t["embedding"].to_pylist(), dtype=np.float64) * 1_000_000
    ).astype(np.int64)
    dots = m @ m.T
    iu = np.triu_indices(len(m), k=1)
    b = (dots[iu] + 20_000_000_000_000) // 100_000_000_000
    u, c = np.unique(b, return_counts=True)
    exp = pd.DataFrame({"bucket": u.astype("int64"), "n_pairs": c.astype("int64")})
    pd.testing.assert_frame_equal(mine, exp)
