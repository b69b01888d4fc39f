"""Batch-96: running median, JL projection audit, minimizer sketches."""

import hashlib

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_running_median_oracle_and_serial_replay(ray_session, con):
    from pdfrust_ray.pipelines.relational import user_running_median, user_running_median_sql

    mine = user_running_median(SF)
    odf = con.execute(user_running_median_sql()).fetchdf()
    assert mine["running_median"].tolist() == odf["running_median"].tolist()
    compare_twin(mine, con, user_running_median_sql())
    # serial replay for the busiest user
    uid = int(
        con.execute(
            "SELECT user_id FROM events GROUP BY 1 ORDER BY COUNT(*) DESC, user_id LIMIT 1"
        ).fetchone()[0]
    )
    vals = [
        r[0]
        for r in con.execute(
            f"SELECT value FROM events WHERE user_id = {uid} ORDER BY event_id"
        ).fetchall()
    ]
    import bisect

    hist: list = []
    sub = mine[mine["user_id"] == uid].sort_values("event_id")
    for v, got in zip(vals, sub["running_median"]):
        bisect.insort(hist, v)
        n = len(hist)
        want = hist[n // 2] if n % 2 else (hist[n // 2 - 1] + hist[n // 2]) / 2.0
        assert got == want
    # final running median equals the user's plain median
    assert sub["running_median"].iloc[-1] == float(np.median(np.array(vals)))


def test_jl_audit_oracle_and_distortion_bound(ray_session, con):
    from pdfrust_ray.stages.similarity import jl_projection_audit, jl_projection_audit_sql

    mine = jl_projection_audit(SF)
    compare_twin(mine, con, jl_projection_audit_sql())
    assert len(mine) == 16 * 15 // 2
    # JL with d_out=16 preserves distances within a loose factor after
    # the 1/d_out scale: E[d2_proj] = d_out * d2_orig for ±1 signs
    ratio = mine["d2_proj_q"] / (mine["d2_orig_q"] * 16)
    assert 0.05 < ratio.median() < 20
    # self-consistency: all distances positive for distinct vectors
    assert (mine["d2_orig_q"] > 0).all()


def test_minimizer_oracle_and_containment_property(ray_session, con):
    from pdfrust_ray.pipelines.textops import (
        _word_ngrams,
        doc_minimizer_sketch,
        doc_minimizer_sketch_sql,
    )

    mine = doc_minimizer_sketch(SF)
    compare_twin(mine, con, doc_minimizer_sketch_sql())
    # brute-force one document
    txt = con.execute("SELECT text FROM documents WHERE doc_id = 0").fetchone()[0]
    grams = _word_ngrams(txt, 3)
    h = [int(hashlib.md5(g.encode()).hexdigest()[:8], 16) for g in grams]
    if len(h) <= 4:
        mins = {min(h)}
    else:
        mins = {min(h[i : i + 4]) for i in range(len(h) - 3)}
    row = mine[mine["doc_id"] == 0].iloc[0]
    assert int(row["n_minimizers"]) == len(mins)
    srt = sorted(mins)
    assert row["minimizers_md5"] == hashlib.md5(
        ",".join(str(m) for m in srt).encode()
    ).hexdigest()
    # sketch is never bigger than the gram count, and ~2/(w+1) of it
    assert (mine["n_minimizers"] <= mine["n_grams"]).all()
    frac = mine["n_minimizers"].sum() / mine["n_grams"].sum()
    assert 0.1 < frac < 0.9
    # identical docs share identical sketches: duplicate text check
    dup = con.execute(
        "SELECT md5(text) h, COUNT(*) c FROM documents GROUP BY 1 HAVING COUNT(*) > 1 LIMIT 1"
    ).fetchall()
    if dup:
        ids = [
            r[0]
            for r in con.execute(
                f"SELECT doc_id FROM documents WHERE md5(text) = '{dup[0][0]}'"
            ).fetchall()
        ]
        sk = mine[mine["doc_id"].isin(ids)]["minimizers_md5"].unique()
        assert len(sk) == 1
