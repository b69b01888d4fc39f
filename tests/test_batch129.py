"""Batch-129: exact-rational RBO, event-type lifecycle catalog."""

from fractions import Fraction

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_rbo_matches_fraction_formula(ray_session):
    from pdfrust_ray.stages.similarity import (
        brute_force_topk,
        mips_topk,
        rbo_ranking_overlap,
    )

    out = rbo_ranking_overlap(SF)
    a = brute_force_topk(SF, query_ids=(0, 1, 2, 3), k=10)
    b = mips_topk(SF)
    for _, r in out.iterrows():
        q = int(r["query_id"])
        la = a[a["query_id"] == q].sort_values("rank")["vec_id"].tolist()
        lb = b[b["query_id"] == q].sort_values("rank")["vec_id"].tolist()
        f = sum(
            Fraction(9, 10) ** (d - 1)
            * Fraction(len(set(la[:d]) & set(lb[:d])), d)
            for d in range(1, 11)
        )
        assert Fraction(int(r["rbo_scaled"]), int(r["scale"])) == f
        assert r["overlap_at_k"] == len(set(la) & set(lb))


def test_rbo_hand_fixture():
    # identical rankings -> rbo_scaled/scale == sum p^(d-1) (max);
    # disjoint rankings -> 0
    from functools import reduce
    import math

    k = 10
    lcm = reduce(math.lcm, range(1, k + 1))
    scale = 10 ** (k - 1) * lcm
    full = sum(
        d * (9 ** (d - 1)) * (10 ** (k - d)) * (lcm // d) for d in range(1, k + 1)
    )
    expect = sum(Fraction(9, 10) ** (d - 1) for d in range(1, k + 1))
    assert Fraction(full, scale) == expect


def test_type_lifecycle_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import type_lifecycle, type_lifecycle_sql

    mine = type_lifecycle(SF)
    compare_twin(mine, con, type_lifecycle_sql())
    assert (mine["active_days"] <= mine["span_days"]).all()
    assert (mine["occupancy_ppm"] <= 1_000_000).all()
    assert int(mine["n_events"].sum()) == con.execute(
        "SELECT COUNT(*) FROM events"
    ).fetchone()[0]
