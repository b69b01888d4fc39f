"""Batch-88: KM risk table, Brier calibration audit, chi-square stats."""

import numpy as np
import pytest
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_km_oracle_and_survival_invariants(ray_session, con):
    from pdfrust_ray.pipelines.relational import purchase_km_table, purchase_km_table_sql

    mine = purchase_km_table(SF)
    compare_twin(mine, con, purchase_km_table_sql())
    n_subj = con.execute(
        "SELECT COUNT(DISTINCT user_id) FROM events WHERE event_type='purchase'"
    ).fetchone()[0]
    # every subject leaves the risk set exactly once
    assert int((mine["d"] + mine["c"]).sum()) == n_subj
    # n_at_risk at the earliest time covers everyone; it never grows with t
    assert int(mine["n_at_risk"].iloc[0]) == n_subj
    assert (mine["n_at_risk"].diff().dropna() <= 0).all()
    # n_at_risk identity: risk at t = all subjects with time >= t
    tail = mine.iloc[len(mine) // 2]
    assert int(tail["n_at_risk"]) == int(
        (mine.loc[mine["t"] >= tail["t"], "d"] + mine.loc[mine["t"] >= tail["t"], "c"]).sum()
    )
    # KM estimate is a valid monotone survival curve
    s = np.cumprod(1.0 - mine["d"].to_numpy() / mine["n_at_risk"].to_numpy())
    assert (s >= -1e-12).all() and (np.diff(s) <= 1e-12).all()


def test_brier_oracle_and_global_score(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        score_brier_calibration,
        score_brier_calibration_sql,
    )

    mine = score_brier_calibration(SF)
    compare_twin(mine, con, score_brier_calibration_sql())
    n = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    assert int(mine["n"].sum()) == n
    # recompute the global Brier score from raw rows
    raw = con.execute(
        "SELECT LEAST(CAST(ROUND(value*100) AS BIGINT),10000) AS p, "
        "CASE WHEN event_type='purchase' THEN 1 ELSE 0 END AS y FROM events"
    ).fetchdf()
    brier_ref = float(((raw["p"] / 10000 - raw["y"]) ** 2).mean())
    brier_mine = float(mine["brier_num"].sum()) / (int(mine["n"].sum()) * 10**8)
    assert brier_mine == pytest.approx(brier_ref, rel=1e-12)
    # bins partition the forecast range; forecast mass sits inside its decile
    for _, r in mine.iterrows():
        lo, hi = int(r["bin"]) * 1000 * r["n"], (int(r["bin"]) + 1) * 1000 * r["n"]
        assert lo <= int(r["sum_pc"]) <= hi or int(r["bin"]) == 9


def test_chisq_oracle_and_scipy_free_statistic(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_type_dow_independence,
        events_type_dow_independence_sql,
    )

    mine = events_type_dow_independence(SF)
    compare_twin(mine, con, events_type_dow_independence_sql())
    n = int(mine["o"].sum())
    # chi2 from the sufficient stats equals the textbook sum((o-e)^2/e)
    chi2_mine = float((mine["dev_num"] / (mine["den"] * n)).sum())
    piv = mine.pivot_table(index="event_type", columns="dow", values="o", fill_value=0)
    obs = piv.to_numpy(dtype=float)
    e = obs.sum(1, keepdims=True) @ obs.sum(0, keepdims=True) / obs.sum()
    mask = e > 0
    chi2_ref = float(((obs[mask] - e[mask]) ** 2 / e[mask]).sum())
    assert chi2_mine == pytest.approx(chi2_ref, rel=1e-9)
    # marginal identities: den = row_total * col_total for each cell
    for _, r in mine.iterrows():
        rt = int(mine.loc[mine["event_type"] == r["event_type"], "o"].sum())
        ct = int(mine.loc[mine["dow"] == r["dow"], "o"].sum())
        assert int(r["den"]) == rt * ct
        assert int(r["dev_num"]) == (n * int(r["o"]) - rt * ct) ** 2
