"""Batch-83: LCS top-2 users, convex hull of daily sums, inversions."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_lcs_oracle_and_classic_dp(ray_session, con):
    from pdfrust_ray.pipelines.relational import events_lcs_top2, events_lcs_top2_sql

    mine = events_lcs_top2(SF)
    compare_twin(mine, con, events_lcs_top2_sql())
    df = con.execute(
        "SELECT user_id, event_type FROM events ORDER BY user_id, ts, event_id"
    ).fetchdf()
    cnt = (
        df.groupby("user_id").size().reset_index(name="c")
        .sort_values(["c", "user_id"], ascending=[False, True])
    )
    ua, ub = int(cnt.iloc[0]["user_id"]), int(cnt.iloc[1]["user_id"])
    A = df[df["user_id"] == ua]["event_type"].tolist()
    B = df[df["user_id"] == ub]["event_type"].tolist()
    # classic three-branch DP, independent of the prefix-max rewrite
    dp = np.zeros((len(A) + 1, len(B) + 1), np.int64)
    for i in range(1, len(A) + 1):
        for j in range(1, len(B) + 1):
            dp[i][j] = max(
                dp[i - 1][j],
                dp[i][j - 1],
                dp[i - 1][j - 1] + (A[i - 1] == B[j - 1]),
            )
    assert int(mine["lcs_len"].iloc[0]) == int(dp[-1][-1])
    assert (int(mine["user_a"].iloc[0]), int(mine["user_b"].iloc[0])) == (ua, ub)


def test_hull_oracle_geometry_properties(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        daily_value_convex_hull,
        daily_value_convex_hull_sql,
    )

    mine = daily_value_convex_hull(SF)
    compare_twin(mine, con, daily_value_convex_hull_sql())
    pts = con.execute(
        "SELECT epoch_us(ts)//86400000000 x, SUM(CAST(ROUND(value*100) AS BIGINT)) y"
        " FROM events GROUP BY 1 ORDER BY 1"
    ).fetchall()
    hull = set(zip(mine["day"].astype(int), mine["sum_cents"].astype(int)))
    # extreme points must be on the hull
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    assert pts[int(np.argmin(xs))] in hull
    assert pts[int(np.argmax(xs))] in hull
    assert pts[int(np.argmin(ys))] in hull
    assert pts[int(np.argmax(ys))] in hull
    # every point is inside or on the hull polygon: for each directed
    # hull edge (ordered by angle), non-hull points must not be outside
    import math

    cx = sum(p[0] for p in hull) / len(hull)
    cy = sum(p[1] for p in hull) / len(hull)
    ordered = sorted(hull, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    for k in range(len(ordered)):
        a, b = ordered[k], ordered[(k + 1) % len(ordered)]
        for p in pts:
            crossv = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            assert crossv >= 0, (a, b, p)
    # strictness: no hull point is on the open segment of two others
    for p in hull:
        for a in hull:
            for b in hull:
                if len({p, a, b}) == 3:
                    crossv = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (
                        p[0] - a[0]
                    )
                    between = min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(
                        a[1], b[1]
                    ) <= p[1] <= max(a[1], b[1])
                    assert not (crossv == 0 and between)


def test_inversions_oracle_and_mergesort_brute(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_value_inversions,
        user_value_inversions_sql,
    )

    mine = user_value_inversions(SF)
    compare_twin(mine, con, user_value_inversions_sql())

    def merge_count(arr):
        if len(arr) <= 1:
            return arr, 0
        mid = len(arr) // 2
        left, cl = merge_count(arr[:mid])
        right, cr = merge_count(arr[mid:])
        merged, inv, i, j = [], cl + cr, 0, 0
        while i < len(left) and j < len(right):
            if left[i] <= right[j]:
                merged.append(left[i])
                i += 1
            else:
                inv += len(left) - i
                merged.append(right[j])
                j += 1
        merged.extend(left[i:])
        merged.extend(right[j:])
        return merged, inv

    df = con.execute(
        "SELECT user_id, CAST(ROUND(value*100) AS BIGINT) c FROM events"
        " ORDER BY user_id, ts, event_id"
    ).fetchdf()
    for uid, g in df.groupby("user_id"):
        vals = [int(v) for v in g["c"]]
        _, inv = merge_count(vals)
        row = mine[mine["user_id"] == uid].iloc[0]
        assert int(row["inversions"]) == inv
        # inversions + ties + concordant = total pairs
        n = len(vals)
        ties = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if vals[i] == vals[j]
        )
        assert int(row["tie_pairs"]) == ties
