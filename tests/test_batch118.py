"""Batch-118: reactivation census, V-optimal histogram DP."""

import itertools
from fractions import Fraction

import duckdb
import numpy as np
import pytest
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_customer_reactivation_census_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        customer_reactivation_census,
        customer_reactivation_census_sql,
    )

    mine = customer_reactivation_census(SF)
    compare_twin(mine, con, customer_reactivation_census_sql())
    assert len(mine) > 0
    # distinct customers never exceed reactivation count; shares recompute
    assert (mine["n_customers"] <= mine["n_reactivations"]).all()
    assert (
        mine["react_share_ppm"]
        == mine["n_reactivations"] * 1_000_000 // mine["n_orders"]
    ).all()


def _brute_v_optimal(y, B):
    def sse(seg):
        s = sum(seg)
        s2 = sum(v * v for v in seg)
        return Fraction(len(seg) * s2 - s * s, len(seg))

    n = len(y)
    best = None
    for cuts in itertools.combinations(range(1, n), B - 1):
        bounds = [0] + list(cuts) + [n]
        c = sum((sse(y[bounds[k]: bounds[k + 1]]) for k in range(B)), Fraction(0))
        if best is None or c < best:
            best = c
    return best


@pytest.mark.parametrize("seed,n,B", [(3, 10, 3), (7, 12, 4), (11, 9, 2), (13, 8, 5)])
def test_v_optimal_partition_matches_bruteforce(seed, n, B):
    from pdfrust_ray.pipelines.relational import _v_optimal_partition

    y = np.random.RandomState(seed).randint(0, 50, n).tolist()
    cuts, cost = _v_optimal_partition(np.array(y), B)
    assert cost == _brute_v_optimal(y, B)
    # cuts tile [0, n) contiguously
    assert cuts[0][0] == 0 and cuts[-1][1] == n
    for (a, b), (c, d) in zip(cuts, cuts[1:]):
        assert b == c and a < b


def test_v_optimal_daily_histogram_shape(ray_session):
    from pdfrust_ray.pipelines.relational import v_optimal_daily_histogram

    out = v_optimal_daily_histogram(SF, buckets=8)
    con = duckdb.connect()
    days, total = con.execute(
        f"SELECT COUNT(DISTINCT CAST(ts AS DATE)), COUNT(*) FROM read_parquet('{SF}/events.parquet')"
    ).fetchone()
    assert int(out["n_days"].sum()) == days
    assert int(out["total_events"].sum()) == total
    assert len(out) == min(8, days)
    # scaled SSE is the exact integer identity len*sum(y^2) - (sum y)^2
    assert (out["sse_num"] >= 0).all()
    # buckets are ordered and non-overlapping
    assert (out["start_day"] <= out["end_day"]).all()
    assert (out["end_day"].iloc[:-1].values < out["start_day"].iloc[1:].values).all()
