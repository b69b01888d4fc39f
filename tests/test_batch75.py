"""Batch-75: Kadane max burst, fairness-capped leaderboard."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_max_burst_oracle_and_brute(ray_session, con):
    from pdfrust_ray.pipelines.relational import user_max_burst, user_max_burst_sql

    mine = user_max_burst(SF)
    compare_twin(mine, con, user_max_burst_sql())
    # O(n^2) brute force over every user: max non-empty segment sum
    rows = con.execute(
        "SELECT user_id, CASE WHEN event_type='purchase' THEN 1 ELSE -1 END "
        "* CAST(ROUND(value*100) AS BIGINT) FROM events ORDER BY user_id, ts"
    ).fetchall()
    seqs: dict[int, list[int]] = {}
    for u, v in rows:
        seqs.setdefault(u, []).append(v)
    for _, r in mine.iterrows():
        xs = seqs[int(r["user_id"])]
        best = max(
            sum(xs[i:j]) for i in range(len(xs)) for j in range(i + 1, len(xs) + 1)
        )
        assert int(r["best_burst_cents"]) == best


def test_capped_top_oracle_and_quota(ray_session, con):
    from pdfrust_ray.pipelines.relational import capped_top_events, capped_top_events_sql

    mine = capped_top_events(SF)
    compare_twin(mine, con, capped_top_events_sql())
    # quota respected; ranking sorted; no event appears twice
    assert mine.groupby("user_id").size().max() <= 3
    assert (mine["cents"].diff().dropna() <= 0).all()
    assert mine["event_id"].is_unique
    # every excluded higher-value event must be a quota casualty
    top_floor = int(mine["cents"].min())
    missing = con.execute(
        "SELECT user_id, COUNT(*) FROM events "
        f"WHERE CAST(ROUND(value*100) AS BIGINT) > {top_floor} GROUP BY 1"
    ).fetchall()
    kept = mine.groupby("user_id").size()
    for u, cnt in missing:
        if cnt > int(kept.get(u, 0)):
            assert int(kept.get(u, 0)) == 3  # capped, not dropped arbitrarily
