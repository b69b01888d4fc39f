"""Batch-68: Pettitt change-point, gapped triples, lead-lag xcorr."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_pettitt_oracle_and_brute(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_pettitt_change,
        events_pettitt_change_sql,
    )

    mine = events_pettitt_change(SF)
    compare_twin(mine, con, events_pettitt_change_sql())
    # brute force with scipy-free average ranks
    x = np.array(
        [r[0] for r in con.execute(
            "SELECT CAST(ROUND(value*100) AS BIGINT) FROM events ORDER BY event_id"
        ).fetchall()],
        dtype=np.int64,
    )
    n = len(x)
    order = np.argsort(x, kind="stable")
    d = np.empty(n, np.int64)
    sx = x[order]
    starts = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1]])
    ends = np.r_[starts[1:], n]
    for s, e in zip(starts, ends):
        d[order[s:e]] = (s + 1) + (e - 1 + 1)  # 2 * average rank
    u2 = np.cumsum(d) - np.arange(1, n + 1) * (n + 1)
    au = np.abs(u2[: n - 1])
    k = int(au.max())
    t_at = int(np.flatnonzero(au == k)[0]) + 1
    assert int(mine["k2_stat"].iloc[0]) == k
    assert int(mine["t_at"].iloc[0]) == t_at
    assert int(mine["u2_at"].iloc[0]) == int(u2[t_at - 1])


def test_gapped_triples_oracle_and_brute(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        gapped_triple_patterns,
        gapped_triple_patterns_sql,
    )

    mine = gapped_triple_patterns(SF)
    compare_twin(mine, con, gapped_triple_patterns_sql())
    # brute-force subsequence containment (no greedy shortcut)
    rows = con.execute(
        "SELECT user_id, event_type FROM events ORDER BY user_id, ts"
    ).fetchall()
    seqs: dict[int, list[str]] = {}
    for u, t in rows:
        seqs.setdefault(u, []).append(t)

    def contains(seq, pat):
        it = iter(seq)
        return all(any(s == p for s in it) for p in pat)

    types = sorted({t for s in seqs.values() for t in s})
    expect = {}
    for a in types:
        for b in types:
            for c in types:
                n = sum(contains(s, (a, b, c)) for s in seqs.values())
                if n:
                    expect[(a, b, c)] = n
    got = {
        (r["a_type"], r["b_type"], r["c_type"]): int(r["n_users"])
        for _, r in mine.iterrows()
    }
    assert got == expect


def test_xcorr_oracle_and_symmetry(ray_session, con):
    from pdfrust_ray.pipelines.relational import daily_lead_lag_xcorr, daily_lead_lag_xcorr_sql

    mine = daily_lead_lag_xcorr(SF)
    compare_twin(mine, con, daily_lead_lag_xcorr_sql())
    assert list(mine["lag"]) == list(range(-3, 4))
    # lag-0 equals the plain same-day dot product
    dot = con.execute(
        """
        WITH c AS (SELECT CAST(ts AS DATE) d, COUNT(*) n FROM events
                   WHERE event_type='click' GROUP BY 1),
             p AS (SELECT CAST(ts AS DATE) d, COUNT(*) n FROM events
                   WHERE event_type='purchase' GROUP BY 1)
        SELECT COALESCE(SUM(c.n * p.n), 0) FROM c JOIN p USING (d)
        """
    ).fetchone()[0]
    assert int(mine[mine["lag"] == 0]["xcorr"].iloc[0]) == int(dot)
