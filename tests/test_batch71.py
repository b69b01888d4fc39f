"""Batch-71: CDF L1 gap, seasonal-naive backtest, alternation rate."""

from pdfrust_ray.fixtures.corpus import ensure_corpus
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_cdf_l1_gap_oracle_and_brute(ray_session, con):
    from pdfrust_ray.pipelines.relational import events_cdf_l1_gap, events_cdf_l1_gap_sql

    mine = events_cdf_l1_gap(SF)
    compare_twin(mine, con, events_cdf_l1_gap_sql())
    # brute force with python bigints (no int64 shortcut)
    rows = con.execute(
        "SELECT CAST(ROUND(value*100) AS BIGINT), "
        "CASE WHEN dayofweek(ts) IN (0,6) THEN 1 ELSE 0 END FROM events"
    ).fetchall()
    xs = sorted({x for x, _ in rows})
    n1 = sum(1 for _, w in rows if w == 0)
    n2 = len(rows) - n1
    gap = 0
    for x in xs:
        pooled = sum(1 for v, _ in rows if v == x)
        c1 = sum(1 for v, w in rows if v <= x and w == 0)
        c2 = sum(1 for v, w in rows if v <= x and w == 1)
        gap += pooled * abs(n2 * c1 - n1 * c2)
    assert int(mine["l1_gap"].iloc[0]) == gap
    assert int(mine["n_weekday"].iloc[0]) == n1 and int(mine["n_weekend"].iloc[0]) == n2


def test_seasonal_backtest_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        seasonal_naive_backtest,
        seasonal_naive_backtest_sql,
    )

    mine = seasonal_naive_backtest(SF)
    compare_twin(mine, con, seasonal_naive_backtest_sql())
    # evaluation windows are consistent across types (shared spine)
    assert mine["n_eval7"].nunique() == 1 and mine["n_eval1"].nunique() == 1
    assert (mine["n_eval1"] == mine["n_eval7"] + 6).all()


def test_alternation_oracle_and_mass(ray_session, con):
    from pdfrust_ray.pipelines.conversation import (
        conv_alternation_rate,
        conv_alternation_rate_sql,
    )

    t2 = ensure_corpus("t2")
    mine = conv_alternation_rate(t2)
    compare_twin(mine, con, conv_alternation_rate_sql(f"{t2}/shards/*.parquet"))
    assert (mine["n_role_switches"] <= mine["n_adjacent_pairs"]).all()
    n_turns = con.execute(
        f"SELECT COUNT(*) FROM read_parquet('{t2}/shards/*.parquet')"
    ).fetchone()[0]
    assert int(mine["n_adjacent_pairs"].sum()) == n_turns - len(mine)
