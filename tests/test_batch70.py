"""Batch-70: weighted interval scheduling, triplet margin violations."""

import duckdb
import numpy as np
import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_interval_scheduling_oracle_and_brute(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_interval_scheduling,
        user_interval_scheduling_sql,
    )

    mine = user_interval_scheduling(SF)
    compare_twin(mine, con, user_interval_scheduling_sql())

    # exponential brute force vs the SQL twin on a SYNTHETIC tiny log
    # (engine == twin is already hash-pinned above, so this closes the
    # twin-derived-from-the-same-design loophole)
    import itertools

    rng = np.random.RandomState(3)
    c2 = duckdb.connect()
    n = 14
    ts = np.cumsum(rng.randint(30, 400, size=n))
    vals = rng.randint(1, 900, size=n) / 100.0
    c2.execute(
        "CREATE TABLE events AS SELECT * FROM (VALUES "
        + ", ".join(
            f"(7, TIMESTAMP '2024-01-01' + INTERVAL ({int(t)}) SECOND, {v})"
            for t, v in zip(ts, vals)
        )
        + ") AS t(user_id, ts, value)"
    )
    twin = c2.execute(user_interval_scheduling_sql()).fetchdf()
    iv = [
        (int(t), int(t) + 60 + (int(round(v * 100)) % 600), int(round(v * 100)))
        for t, v in zip(ts + 1704067200, vals)
    ]
    best = 0
    for mask in range(1 << n):
        sel = sorted(iv[i] for i in range(n) if mask >> i & 1)
        if all(a[1] <= b[0] for a, b in zip(sel, sel[1:])):
            best = max(best, sum(x[2] for x in sel))
    assert int(twin["best_cents"].iloc[0]) == best
    assert int(twin["n_intervals"].iloc[0]) == n

    # selecting everything is only possible if no two intervals overlap
    totals = con.execute(
        "SELECT user_id, SUM(CAST(ROUND(value*100) AS BIGINT)) FROM events GROUP BY 1"
    ).fetchall()
    tot = dict(totals)
    assert all(
        int(r["best_cents"]) <= int(tot[int(r["user_id"])]) for _, r in mine.iterrows()
    )


def test_triplet_violations_oracle_and_brute(ray_session, con):
    from pdfrust_ray.stages.similarity import (
        triplet_margin_violations,
        triplet_margin_violations_sql,
    )

    mine = triplet_margin_violations(SF)
    compare_twin(mine, con, triplet_margin_violations_sql())
    assert (mine["n_violations"] <= mine["n_anchors"]).all()

    # numpy brute force over the full quantized pool
    t = con.execute("SELECT vec_id, embedding, label FROM embeddings ORDER BY vec_id").fetchdf()
    mat = np.round(np.asarray(list(t["embedding"]), dtype=np.float64) * 1_000_000).astype(
        np.int64
    )
    lab = t["label"].to_numpy(np.int64)
    dots = mat @ mat.T
    np.fill_diagonal(dots, np.iinfo(np.int64).min)
    NEG = np.int64(-(1 << 62))
    same = lab[:, None] == lab[None, :]
    np.fill_diagonal(same, False)
    bp = np.where(same, dots, NEG).max(axis=1)
    bn = np.where(lab[:, None] != lab[None, :], dots, NEG).max(axis=1)
    viol = (bn >= bp) & (bp > NEG) & (bn > NEG)
    expect = pd.DataFrame({"label": lab, "v": viol.astype(int)}).groupby("label")["v"].agg(
        ["count", "sum"]
    )
    got = mine.set_index("label")
    for label, row in expect.iterrows():
        assert int(got.loc[label, "n_anchors"]) == int(row["count"])
        assert int(got.loc[label, "n_violations"]) == int(row["sum"])
