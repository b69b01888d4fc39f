"""Batch-64: Spearman stats, 0-1 stump, runs test, Theil-Sen slopes."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_spearman_oracle_and_bounds(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_spearman_stats,
        events_spearman_stats_sql,
    )

    mine = events_spearman_stats(SF)
    compare_twin(mine, con, events_spearman_stats_sql())
    n, sx, sy, sxx, syy, sxy = (int(mine[c].iloc[0]) for c in mine.columns)
    # doubled ranks sum to n(n+1) exactly, per axis, ties or not
    assert sx == n * (n + 1) and sy == n * (n + 1)
    num = n * sxy - sx * sy
    vx, vy = n * sxx - sx * sx, n * syy - sy * sy
    assert vx > 0 and vy > 0
    rho = num / (vx * vy) ** 0.5
    assert -1.0 <= rho <= 1.0


def test_stump_oracle_and_bound(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        stump_threshold_split,
        stump_threshold_split_sql,
    )

    mine = stump_threshold_split(SF)
    compare_twin(mine, con, stump_threshold_split_sql())
    errors, n, npur = (int(mine[c].iloc[0]) for c in ("errors", "n", "n_purchase"))
    # never worse than the majority-class constant rule
    assert errors <= min(npur, n - npur)


def test_runs_test_oracle_and_bounds(ray_session, con):
    from pdfrust_ray.pipelines.relational import events_runs_test, events_runs_test_sql

    mine = events_runs_test(SF)
    compare_twin(mine, con, events_runs_test_sql())
    n, n_above, n_rest, n_runs, med = (int(mine[c].iloc[0]) for c in mine.columns)
    assert n_above + n_rest == n
    # strictly-above count can never exceed half (lower median rule)
    assert n_above <= n // 2
    assert 1 <= n_runs <= n


def test_theil_sen_oracle_and_brute(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_theil_sen_slope,
        user_theil_sen_slope_sql,
    )

    mine = user_theil_sen_slope(SF)
    compare_twin(mine, con, user_theil_sen_slope_sql())
    assert (mine["slope_den"] > 0).all()
    # brute-force one user in pure python (fractions, no float shortcut)
    from fractions import Fraction

    uid = int(mine["user_id"].iloc[0])
    rows = con.execute(
        "SELECT epoch_us(ts) // 1000000 AS s, CAST(ROUND(value*100) AS BIGINT) AS x "
        f"FROM events WHERE user_id = {uid}"
    ).fetchall()
    pairs = [
        (b[1] - a[1], b[0] - a[0])
        for a in rows
        for b in rows
        if b[0] > a[0]
    ]
    pairs.sort(key=lambda p: (Fraction(p[0], p[1]), p[0], p[1]))
    k = (len(pairs) + 1) // 2 - 1
    got = mine[mine["user_id"] == uid].iloc[0]
    assert int(got["n_pairs"]) == len(pairs)
    assert (int(got["slope_num"]), int(got["slope_den"])) == pairs[k]
