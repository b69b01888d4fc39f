"""Batch-6 ops: snapshot diff, global rank transform, perceptual-hash
image near-dup."""

import numpy as np
import pandas as pd
import pytest
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_snapshot_diff_matches_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import snapshot_diff, snapshot_diff_sql

    mine = snapshot_diff(SF)
    assert set(mine["status"]) == {"added", "removed", "changed"}
    compare_twin(mine, con, snapshot_diff_sql())


def test_snapshot_diff_classes_by_construction(ray_session):
    # the derivation makes the class a function of doc_id % 10 —
    # verify the engine classifies every key accordingly and emits
    # nothing for unchanged keys
    from pdfrust_ray.pipelines.datasetops import snapshot_diff

    mine = snapshot_diff(SF)
    mod = mine["doc_id"] % 10
    assert (mine.loc[mod == 9, "status"] == "added").all()
    assert (mine.loc[mod == 0, "status"] == "removed").all()
    assert (mine.loc[mod == 5, "status"] == "changed").all()
    assert set(mod) <= {0, 5, 9}


def test_rank_normalize_matches_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_value_rank_normalize,
        events_value_rank_normalize_sql,
    )

    mine = events_value_rank_normalize(SF)
    compare_twin(mine, con, events_value_rank_normalize_sql())


def test_rank_normalize_properties(ray_session):
    from pdfrust_ray.pipelines.relational import events_value_rank_normalize

    mine = events_value_rank_normalize(SF)
    assert mine["pr"].between(0.0, 1.0).all()
    # monotone: higher value_cents never gets a lower percent rank
    s = mine.sort_values("value_cents")
    assert (np.diff(s["pr"].to_numpy()) >= 0).all()
    # ties share a rank
    dup = mine.groupby("value_cents")["pr"].nunique()
    assert (dup == 1).all()


def test_image_phash_matches_serial_brute_force(ray_session):
    # engine's banded + verified pair set must equal a serial
    # brute-force over the same deterministic corpus (pigeonhole:
    # hamming <= 3 with 4 x 16-bit bands always shares a band)
    from pdfrust_ray.functions.minhash import hamming64
    from pdfrust_ray.stages.multimodal import (
        ahash64,
        image_phash_dedup,
        sniff_decode_image,
        synthesize_image_dedup_table,
    )

    t = synthesize_image_dedup_table()
    hashes = {}
    for mid, payload in zip(t["media_id"].to_pylist(), t["payload"].to_pylist()):
        hashes[mid] = ahash64(sniff_decode_image(payload))
    ids = sorted(hashes)
    expect = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            d = hamming64(hashes[a], hashes[b])
            if d <= 3:
                expect.append((a, b, d))
    expect_df = pd.DataFrame(
        expect, columns=["media_a", "media_b", "hamming"]
    ).astype("int64")
    mine = image_phash_dedup()
    pd.testing.assert_frame_equal(mine, expect_df, check_dtype=False)


def test_image_phash_planted_families(ray_session):
    # lossless re-encodes (PPM) and tiny-noise variants must pair with
    # their base at hamming ~0; no cross-family pairs exist
    from pdfrust_ray.stages.multimodal import image_phash_dedup

    mine = image_phash_dedup()
    fam_a, fam_b = mine["media_a"] // 10, mine["media_b"] // 10
    assert (fam_a == fam_b).all()  # never across families
    planted = set(mine[["media_a", "media_b"]].itertuples(index=False, name=None))
    for k in (0, 30, 60, 90, 120, 150):
        assert (k, k + 1) in planted  # container re-encode found
        assert (k, k + 2) in planted  # noise variant found


def test_ahash_container_invariance():
    # PNG and PPM of the same pixels decode identically -> same hash
    from pdfrust_ray.functions.png import decode_png, encode_png, to_rgb
    from pdfrust_ray.stages.multimodal import ahash64, decode_ppm, encode_ppm

    rng = np.random.RandomState(3)
    pix = rng.randint(0, 256, size=(33, 47, 3)).astype(np.uint8)
    h_png = ahash64(to_rgb(decode_png(encode_png(pix))))
    h_ppm = ahash64(decode_ppm(encode_ppm(pix))[0])
    assert h_png == h_ppm


def test_ahash_rejects_tiny_images():
    from pdfrust_ray.stages.multimodal import ahash64

    with pytest.raises(ValueError):
        ahash64(np.zeros((4, 4, 3), dtype=np.uint8))
