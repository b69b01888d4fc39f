"""Batch-34 ops: hard-negative mining, largest-remainder allocation,
hash-partition skew, Arrow IPC round trip, audio energy segmentation."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_hard_negative_mining_oracle(ray_session, con):
    from pdfrust_ray.stages.similarity import (
        hard_negative_mining,
        hard_negative_mining_sql,
    )

    mine = hard_negative_mining(SF)
    n = con.execute("SELECT COUNT(*) FROM embeddings").fetchone()[0]
    assert len(mine) == n  # one negative per anchor
    assert (mine["label"] != mine["neg_label"]).all()
    assert (mine["vec_id"] != mine["neg_id"]).all()
    compare_twin(mine, con, hard_negative_mining_sql())


def test_hard_negative_is_argmax(ray_session, con):
    """Spot-check one anchor: no other-label vector has a larger
    quantized dot than the mined negative."""
    from pdfrust_ray.stages.similarity import hard_negative_mining

    mine = hard_negative_mining(SF).set_index("vec_id")
    emb = con.execute("SELECT vec_id, embedding, label FROM embeddings").fetchdf()
    q = {
        int(r.vec_id): (np.round(np.array(r.embedding, np.float64) * 1e6).astype(np.int64), int(r.label))
        for r in emb.itertuples()
    }
    anchor = int(emb["vec_id"].iloc[0])
    av, al = q[anchor]
    best = max(
        (int(av @ v), vid) for vid, (v, lab) in q.items() if lab != al
    )
    assert int(mine.loc[anchor, "dot"]) == best[0]


def test_largest_remainder_allocation_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        largest_remainder_allocation,
        largest_remainder_allocation_sql,
    )

    mine = largest_remainder_allocation(SF)
    assert int(mine["bps"].sum()) == 10000  # the whole point
    # every share within 1 bp of the unrounded proportion
    frac = mine["cents"] / mine["cents"].sum() * 10000
    assert (np.abs(mine["bps"] - frac) < 1.0 + 1e-9).all()
    compare_twin(mine, con, largest_remainder_allocation_sql())


def test_hash_partition_skew_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        hash_partition_skew,
        hash_partition_skew_sql,
    )

    mine = hash_partition_skew(SF)
    n = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    assert mine["n_rows"].sum() == n
    compare_twin(mine, con, hash_partition_skew_sql())


def test_documents_arrow_ipc_roundtrip_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        documents_arrow_ipc_roundtrip,
        documents_arrow_ipc_roundtrip_sql,
    )

    mine = documents_arrow_ipc_roundtrip(SF)
    compare_twin(mine, con, documents_arrow_ipc_roundtrip_sql())


def test_audio_energy_segments_recovers_bursts(ray_session):
    """Every clip decodes, and the segment count equals the planted
    burst count for the lossless PCM16 codec (lossy codecs may split or
    merge at the threshold: allow +-1)."""
    from pdfrust_ray.stages.multimodal import (
        audio_energy_segments,
        synthesize_speech_table,
    )

    t = synthesize_speech_table()
    out = audio_energy_segments(t).set_index("media_id")
    truth = {int(m): int(b) for m, b in zip(t["media_id"].to_pylist(), t["n_bursts"].to_pylist())}
    assert (out["decode_status"] == "ok").all()
    exact = 0
    for mid, row in out.iterrows():
        assert abs(int(row["n_segments"]) - truth[mid]) <= 1, mid
        exact += int(row["n_segments"]) == truth[mid]
        assert 0 < row["active_ms"] <= row["total_ms"]
    assert exact >= int(0.9 * len(out))  # near-perfect recovery overall


def test_audio_energy_segments_error_rows(ray_session):
    """Corrupt payloads become error rows, not exceptions."""
    import pyarrow as pa

    from pdfrust_ray.stages.multimodal import audio_energy_segments

    t = pa.table(
        {
            "media_id": pa.array([0, 1], pa.int64()),
            "payload": pa.array([b"not a wav", b"RIFF....WAVE"], pa.binary()),
        }
    )
    out = audio_energy_segments(t)
    assert (out["decode_status"].str.startswith("error:")).all()
    assert (out["n_segments"] == 0).all()
