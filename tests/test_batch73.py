"""Batch-73: BWT compressibility, histogram convolution, top-k overlap."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_bwt_roundtrip_and_runs(ray_session, con):
    from pdfrust_ray.pipelines.textops import (
        _suffix_array,
        bwt_compressibility,
        bwt_inverse,
    )

    out = bwt_compressibility(SF)
    n_docs = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert len(out) == n_docs
    # run counts bounded by length + sentinel; BWT clusters — on this
    # token corpus the transform should win on average
    assert (out["runs_bwt"] <= out["n_chars"] + 1).all()
    assert out["runs_bwt"].mean() < out["runs_orig"].mean()

    texts = [r[0] for r in con.execute("SELECT text FROM documents LIMIT 25").fetchall()]
    for t in texts:
        raw = t.encode("ascii") + b"\x00"
        arr = np.frombuffer(raw, dtype=np.uint8)
        sa = _suffix_array(raw)
        # suffix array of distinct-rotation string is a true sort
        bwt = arr[(sa - 1) % len(raw)]
        assert bwt_inverse(bwt).rstrip(b"\x00") == t.encode("ascii")
        # runs counted like the engine
        assert int((bwt[1:] != bwt[:-1]).sum()) + 1 <= len(raw)


def test_convolution_oracle_and_mass(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        value_sum_convolution,
        value_sum_convolution_sql,
    )

    mine = value_sum_convolution(SF)
    compare_twin(mine, con, value_sum_convolution_sql())
    nc, np_ = con.execute(
        "SELECT SUM(CASE WHEN event_type='click' THEN 1 ELSE 0 END), "
        "SUM(CASE WHEN event_type='purchase' THEN 1 ELSE 0 END) FROM events"
    ).fetchone()
    assert int(mine["n_pairs"].sum()) == int(nc) * int(np_)


def test_topk_overlap_oracle_and_monotone(ray_session, con):
    from pdfrust_ray.pipelines.relational import topk_overlap_profile, topk_overlap_profile_sql

    mine = topk_overlap_profile(SF)
    compare_twin(mine, con, topk_overlap_profile_sql())
    ov = mine["overlap"].to_numpy()
    assert (np.diff(ov) >= 0).all()  # top-d sets are nested
    assert (ov <= mine["depth"].to_numpy()).all()
    # at full part-table depth both rankings cover everything
    n_parts = con.execute("SELECT COUNT(DISTINCT l_partkey) FROM lineitem").fetchone()[0]
    if n_parts <= 20:
        assert int(ov[-1]) == n_parts
