"""Batch-66: greedy bandit replay, exact isotonic rate curve."""

from fractions import Fraction

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_bandit_oracle_and_replay(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        _BANDIT_ARMS,
        bandit_greedy_replay,
        bandit_greedy_replay_sql,
    )

    mine = bandit_greedy_replay(SF)
    compare_twin(mine, con, bandit_greedy_replay_sql())
    # warm-up: first five days pull each arm once, lexicographic order
    assert list(mine["arm"].iloc[:5]) == list(_BANDIT_ARMS)
    assert (mine["cum_reward_cents"] == mine["reward_cents"].cumsum()).all()

    # independent replay with Fractions over the raw day x arm table
    day_tbl = con.execute(
        "SELECT CAST(date_trunc('day', ts) AS TIMESTAMP) d, event_type a, "
        "SUM(CAST(ROUND(value*100) AS BIGINT)) r FROM events GROUP BY 1, 2 ORDER BY 1"
    ).fetchall()
    per_day: dict = {}
    for d, a, r in day_tbl:
        per_day.setdefault(d, {})[a] = int(r)
    s = {a: 0 for a in _BANDIT_ARMS}
    p = {a: 0 for a in _BANDIT_ARMS}
    for k, (d, rewards) in enumerate(sorted(per_day.items())):
        unpulled = [a for a in _BANDIT_ARMS if p[a] == 0]
        if unpulled:
            arm = unpulled[0]
        else:
            arm = max(_BANDIT_ARMS, key=lambda a: (Fraction(s[a], p[a]), -_BANDIT_ARMS.index(a)))
        got = mine.iloc[k]
        assert got["arm"] == arm and int(got["reward_cents"]) == rewards.get(arm, 0)
        s[arm] += rewards.get(arm, 0)
        p[arm] += 1


def test_isotonic_oracle_and_pava(ray_session, con):
    from pdfrust_ray.pipelines.relational import isotonic_rate_curve, isotonic_rate_curve_sql

    mine = isotonic_rate_curve(SF)
    compare_twin(mine, con, isotonic_rate_curve_sql())
    fits = [Fraction(int(n), int(d)) for n, d in zip(mine["fit_num"], mine["fit_den"])]
    assert all(b <= a for b, a in zip(fits, fits[1:])) or all(
        a <= b for a, b in zip(fits, fits[1:])
    )
    assert fits == sorted(fits)  # non-decreasing

    # classic stack PAVA with exact rationals must give the same levels
    blocks = [
        (int(w), int(t)) for w, t in zip(mine["wins"], mine["n"])
    ]
    stack: list[list[int]] = []
    for w, t in blocks:
        stack.append([w, t])
        while len(stack) > 1 and Fraction(stack[-2][0], stack[-2][1]) >= Fraction(
            stack[-1][0], stack[-1][1]
        ):
            b = stack.pop()
            stack[-1][0] += b[0]
            stack[-1][1] += b[1]
    pava = []
    import math

    for w, t in stack:
        g = math.gcd(w, t)
        cnt = 0
        # expand: how many original buckets were pooled into this block
        # (reconstruct by walking totals)
        pava.append((w // g, t // g, t))
    # walk engine output against pooled blocks by cumulative totals
    i = 0
    for num, den, tot in pava:
        acc = 0
        while acc < tot:
            assert int(mine["fit_num"].iloc[i]) == num
            assert int(mine["fit_den"].iloc[i]) == den
            acc += int(mine["n"].iloc[i])
            i += 1
        assert acc == tot
    assert i == len(mine)
