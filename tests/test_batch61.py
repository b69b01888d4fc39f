"""Batch-61: hyperplane sign-LSH near-dup pairs (subset + recall)."""

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def test_sign_lsh_subset_and_recall(ray_session):
    """LSH-verified pairs must be a SUBSET of the exact cosine pair set
    (verification is exact), with banding recall >= 0.4 (theory for
    cos 0.45 at 4x4-bit bands is ~0.54; the bound leaves fixture
    slack)."""
    from pdfrust_ray.stages.dedup import embedding_dedup
    from pdfrust_ray.stages.similarity import embedding_sign_lsh_pairs

    lsh = embedding_sign_lsh_pairs(SF)
    exact = embedding_dedup(SF)
    ca, cb = exact.columns[0], exact.columns[1]
    es = set(zip(exact[ca].astype(int), exact[cb].astype(int)))
    ls = set(zip(lsh["vec_a"].astype(int), lsh["vec_b"].astype(int)))
    assert ls <= es
    if es:
        assert len(ls & es) / len(es) >= 0.4


def test_sign_lsh_deterministic(ray_session):
    from pdfrust_ray.stages.similarity import embedding_sign_lsh_pairs

    a = embedding_sign_lsh_pairs(SF)
    b = embedding_sign_lsh_pairs(SF)
    pd.testing.assert_frame_equal(a, b)


def test_sign_planes_shape():
    from pdfrust_ray.stages.similarity import _sign_planes

    p = _sign_planes()
    assert p.shape == (16, 64)
    assert set(np.unique(p)) == {-1, 1}
    # deterministic across calls
    assert (p == _sign_planes()).all()
