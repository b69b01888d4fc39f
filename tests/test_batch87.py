"""Batch-87: integer-exact PR curve, Wilson lower bounds, Welch t-test."""

import math

import numpy as np
import pytest
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_pr_curve_oracle_and_confusion_identities(ray_session, con):
    from pdfrust_ray.pipelines.relational import events_pr_curve, events_pr_curve_sql

    mine = events_pr_curve(SF)
    compare_twin(mine, con, events_pr_curve_sql())
    n_pos = con.execute(
        "SELECT COUNT(*) FROM events WHERE event_type = 'purchase'"
    ).fetchone()[0]
    n = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    # lowest occupied bin as cut predicts everything positive
    first = mine.iloc[0]
    assert int(first["tp"]) == n_pos and int(first["tp"] + first["fp"]) == n
    # tp+fn is the positive total at every threshold; monotone sweeps
    assert (mine["tp"] + mine["fn"] == n_pos).all()
    assert (mine["tp"].diff().dropna() <= 0).all()
    assert (mine["fp"].diff().dropna() <= 0).all()
    assert (mine["f1_den"] >= mine["f1_num"]).all()
    # brute-force a middle threshold straight off the rows
    t = int(mine["thr_bin"].iloc[len(mine) // 2])
    tp = con.execute(
        f"SELECT COUNT(*) FROM events WHERE event_type='purchase' AND FLOOR(value/10) >= {t}"
    ).fetchone()[0]
    row = mine[mine["thr_bin"] == t].iloc[0]
    assert int(row["tp"]) == tp


def test_wilson_oracle_bit_identical_and_bounds(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        type_wilson_bounds,
        type_wilson_bounds_sql,
    )

    mine = type_wilson_bounds(SF)
    odf = con.execute(type_wilson_bounds_sql()).fetchdf()
    # doubles must be bit-identical, not just close
    assert list(mine["wilson_lb"]) == list(odf["wilson_lb"])
    compare_twin(mine, con, type_wilson_bounds_sql())
    # the bound is a true lower bound on p-hat and lives in [0, 1)
    p = mine["s"] / mine["n"]
    assert (mine["wilson_lb"] <= p + 1e-15).all()
    assert (mine["wilson_lb"] >= 0).all() and (mine["wilson_lb"] < 1).all()
    # shrinking n at fixed p widens the interval: recompute by hand
    z = 1.96
    for _, r in mine.iterrows():
        n, s = float(r["n"]), float(r["s"])
        ph = s / n
        zz = z * z
        lb = (ph + zz / (2.0 * n) - z * math.sqrt(ph * (1.0 - ph) / n + zz / (4.0 * n * n))) / (
            1.0 + zz / n
        )
        assert lb == pytest.approx(r["wilson_lb"], abs=1e-12)


def test_welch_oracle_and_scipy_free_reference(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_welch_ttest,
        events_welch_ttest_sql,
    )

    mine = events_welch_ttest(SF)
    odf = con.execute(events_welch_ttest_sql()).fetchdf()
    assert float(mine["t_stat"].iloc[0]) == float(odf["t_stat"].iloc[0])
    assert float(mine["welch_df"].iloc[0]) == float(odf["welch_df"].iloc[0])
    compare_twin(mine, con, events_welch_ttest_sql())
    # textbook recompute from the raw cent values
    av = con.execute(
        "SELECT ROUND(value*100) AS c FROM events WHERE event_type='purchase'"
    ).fetchnumpy()["c"]
    bv = con.execute(
        "SELECT ROUND(value*100) AS c FROM events WHERE event_type='click'"
    ).fetchnumpy()["c"]
    va, vb = np.var(av, ddof=1), np.var(bv, ddof=1)
    se2 = va / len(av) + vb / len(bv)
    t_ref = (np.mean(av) - np.mean(bv)) / np.sqrt(se2)
    df_ref = se2**2 / (
        (va / len(av)) ** 2 / (len(av) - 1) + (vb / len(bv)) ** 2 / (len(bv) - 1)
    )
    assert float(mine["t_stat"].iloc[0]) == pytest.approx(t_ref, rel=1e-9)
    assert float(mine["welch_df"].iloc[0]) == pytest.approx(df_ref, rel=1e-9)
    # df lies between min(na,nb)-1 and na+nb-2 (Welch-Satterthwaite bounds)
    na, nb = int(mine["n_a"].iloc[0]), int(mine["n_b"].iloc[0])
    assert min(na, nb) - 1 <= float(mine["welch_df"].iloc[0]) <= na + nb - 2
