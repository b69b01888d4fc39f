"""Batch-85: rational rate, balanced partition MITM, trailing distinct types."""

import itertools

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_rational_rate_oracle_and_fraction_brute(ray_session, con):
    from fractions import Fraction

    from pdfrust_ray.pipelines.relational import best_rational_rate, best_rational_rate_sql

    mine = best_rational_rate(SF)
    compare_twin(mine, con, best_rational_rate_sql())
    P = int(mine["p_num"].iloc[0])
    N = int(mine["n_total"].iloc[0])
    target = Fraction(P, N)
    # exhaustive over every fraction with den <= 50
    best = min(
        (abs(Fraction(a, b) - target), b, a)
        for b in range(1, 51)
        for a in range(0, b + 1)
    )
    assert (int(mine["best_b"].iloc[0]), int(mine["best_a"].iloc[0])) == (
        best[1],
        best[2],
    )
    # stdlib independent check: Fraction.limit_denominator gives one of
    # the two best approximations; ours can only be at least as close
    ld = target.limit_denominator(50)
    ours = Fraction(int(mine["best_a"].iloc[0]), int(mine["best_b"].iloc[0]))
    assert abs(ours - target) <= abs(ld - target)


def test_balanced_partition_oracle_and_full_enumeration(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        orders_balanced_partition,
        orders_balanced_partition_sql,
    )

    mine = orders_balanced_partition(SF)
    compare_twin(mine, con, orders_balanced_partition_sql())
    df = con.execute(
        "SELECT CAST(ROUND(o_totalprice*100) AS BIGINT) c, o_orderkey k FROM orders"
        " ORDER BY c DESC, k LIMIT 16"
    ).fetchdf()
    vals = [int(v) for v in df["c"]]
    total = sum(vals)
    best = min(
        abs(total - 2 * sum(itertools.compress(vals, bits)))
        for bits in itertools.product((0, 1), repeat=16)
    )
    assert int(mine["min_imbalance"].iloc[0]) == best
    assert int(mine["total_cents"].iloc[0]) == total


def test_trailing_distinct_oracle_and_naive(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_trailing_distinct_types,
        user_trailing_distinct_types_sql,
    )

    mine = user_trailing_distinct_types(SF)
    compare_twin(mine, con, user_trailing_distinct_types_sql())
    df = con.execute(
        "SELECT event_id, user_id, epoch_us(ts) us, event_type FROM events"
    ).fetchdf()
    lut = dict(zip(mine["event_id"].astype(int), mine["n_distinct_24h"].astype(int)))
    day = 86_400_000_000
    for uid, g in df.groupby("user_id"):
        rows = list(zip(g["event_id"].astype(int), g["us"].astype(int), g["event_type"]))
        for eid, us, _ty in rows:
            expect = len(
                {t for _e, u, t in rows if us - day < u <= us}
            )
            assert lut[eid] == expect
    # window is never empty: the event itself is always inside
    assert (mine["n_distinct_24h"] >= 1).all()
