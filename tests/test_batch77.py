"""Batch-77: Haar coefficients, exclusion funnel, interval stabbing."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_haar_oracle_and_reconstruction(ray_session, con):
    from pdfrust_ray.pipelines.relational import daily_haar_coeffs, daily_haar_coeffs_sql

    mine = daily_haar_coeffs(SF)
    compare_twin(mine, con, daily_haar_coeffs_sql())
    assert len(mine) == 32  # 16+8+4+2+1 details + 1 approx
    # invert the transform and recover the original zero-padded series
    daily = con.execute(
        "SELECT epoch_us(ts)//86400000000, SUM(CAST(ROUND(value*100) AS BIGINT)) "
        "FROM events GROUP BY 1 ORDER BY 1"
    ).fetchall()
    d0 = daily[0][0]
    x = np.zeros(32, np.int64)
    for d, r in daily:
        x[d - d0] = r
    s = np.array([int(mine[(mine["level"] == 6)]["coeff"].iloc[0])], np.int64)
    for lvl in range(5, 0, -1):
        det = mine[mine["level"] == lvl].sort_values("idx")["coeff"].to_numpy(np.int64)
        a = (s + det) // 2
        b = (s - det) // 2
        nxt = np.empty(2 * len(s), np.int64)
        nxt[0::2], nxt[1::2] = a, b
        s = nxt
    assert (s == x).all()


def test_clean_funnel_oracle_and_brute(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        signup_to_purchase_clean,
        signup_to_purchase_clean_sql,
    )

    mine = signup_to_purchase_clean(SF)
    compare_twin(mine, con, signup_to_purchase_clean_sql())
    rows = con.execute(
        "SELECT user_id, epoch_us(ts), event_type FROM events ORDER BY user_id, ts"
    ).fetchall()
    seqs: dict[int, list] = {}
    for u, t, e in rows:
        seqs.setdefault(u, []).append((t, e))
    expect = {}
    for u, seq in seqs.items():
        last_sig = last_err = None
        clean = []
        for t, e in seq:
            if e == "purchase" and last_sig is not None and (
                last_err is None or last_sig > last_err
            ):
                clean.append(t)
            if e == "signup":
                last_sig = t
            if e == "error":
                last_err = t
        if clean:
            expect[u] = (len(clean), clean[0])
    got = {
        int(r["user_id"]): (int(r["n_clean_purchases"]), int(r["first_clean_ts"]))
        for _, r in mine.iterrows()
    }
    assert got == expect


def test_stabbing_oracle_and_optimality(ray_session, con):
    from pdfrust_ray.pipelines.relational import min_audit_points, min_audit_points_sql

    mine = min_audit_points(SF)
    compare_twin(mine, con, min_audit_points_sql())
    starts = sorted(
        r[0]
        for r in con.execute(
            "SELECT epoch_us(ts)//1000000 FROM events WHERE event_type='purchase'"
        ).fetchall()
    )
    # greedy replay + coverage + a lower bound: any set of pairwise
    # disjoint intervals needs one point each
    pts = []
    i = 0
    while i < len(starts):
        pt = starts[i] + 600
        pts.append(pt)
        while i < len(starts) and starts[i] <= pt:
            i += 1
    assert int(mine["n_points"].iloc[0]) == len(pts)
    assert all(any(s <= p <= s + 600 for p in pts) for s in starts)
    disjoint = 0
    last_end = -1
    for s in starts:
        if s > last_end:
            disjoint += 1
            last_end = s + 600
    assert len(pts) == disjoint  # greedy hits the disjoint-intervals bound
