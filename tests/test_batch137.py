"""Batch-137: real-codec decode-vs-metadata media audit."""

import duckdb
import pytest
from tools.contract_check import compare_twin


def test_media_header_audit_oracle(ray_session):
    from pdfrust_ray.stages.multimodal import media_header_audit, media_header_audit_sql

    mine = media_header_audit()
    compare_twin(mine, duckdb.connect(), media_header_audit_sql())
    m = mine.set_index("kind")
    # every visual payload decodes and matches its metadata dims
    assert m.loc["image", "n_dim_match"] == m.loc["image", "n"]
    assert m.loc["video", "n_dim_match"] == m.loc["video", "n"]
    assert int(mine["n_decode_err"].sum()) == 0
    assert int(mine["n"].sum()) == 64


def test_media_audit_catches_corruption(ray_session):
    # the audit is only evidence if a corrupted payload actually fails
    from pdfrust_ray.stages.multimodal import (
        iter_media_frames,
        sniff_decode_image,
        synthesize_media_table,
    )

    t = synthesize_media_table(n=6, seed=1)
    kinds = t["kind"].to_pylist()
    payloads = t["payload"].to_pylist()
    img = next(p for k, p in zip(kinds, payloads) if k == "image")
    # truncate the payload: decode must raise, not silently succeed
    with pytest.raises(Exception):
        sniff_decode_image(bytes(img)[: len(img) // 4])
    vid = next(p for k, p in zip(kinds, payloads) if k == "video")
    frame = next(iter_media_frames(bytes(vid)))
    assert frame.ndim == 3 and frame.shape[2] == 3
