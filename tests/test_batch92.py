"""Batch-92: Poisson bootstrap, bitmap-index audit, LSH S-curve planner."""

import math

import numpy as np
import pandas as pd
import pytest
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_poisson_bootstrap_oracle_and_distribution(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        _POISSON1_CDF,
        poisson_bootstrap_stats,
        poisson_bootstrap_stats_sql,
    )

    mine = poisson_bootstrap_stats(SF, n_reps=8)
    compare_twin(mine, con, poisson_bootstrap_stats_sql(n_reps=8))
    # the CDF ladder is the true Poisson(1) CDF
    for k, c in enumerate(_POISSON1_CDF):
        ref = math.exp(-1) * sum(1 / math.factorial(j) for j in range(k + 1))
        assert c == pytest.approx(ref, abs=1e-15)
    # each replica's effective n concentrates around the true n
    n = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    per_rep = mine.groupby("rep")["n_eff"].sum()
    assert len(per_rep) == 8
    # Poisson(1) sums: mean n, sd sqrt(n) -> all reps within 6 sigma
    assert ((per_rep - n).abs() < 6 * math.sqrt(n)).all()
    # reproducibility
    again = poisson_bootstrap_stats(SF, n_reps=8)
    pd.testing.assert_frame_equal(mine, again)


def test_bitmap_audit_oracle_and_roaring_rules(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import bitmap_index_audit, bitmap_index_audit_sql

    mine = bitmap_index_audit(SF)
    compare_twin(mine, con, bitmap_index_audit_sql())
    assert int(mine["n_rows"].sum()) == con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    # rebuild one type's containers from raw rows
    ty = mine["event_type"].iloc[0]
    ids = [r[0] for r in con.execute(
        f"SELECT event_id FROM events WHERE event_type='{ty}'").fetchall()]
    from collections import Counter

    cards = Counter(i >> 12 for i in ids)
    n_arr = sum(1 for c in cards.values() if c < 256)
    total = sum(8 + 2 * c if c < 256 else 8 + 512 for c in cards.values())
    row = mine[mine["event_type"] == ty].iloc[0]
    assert int(row["n_containers"]) == len(cards)
    assert int(row["n_array"]) == n_arr
    assert int(row["total_bytes"]) == total


def test_lsh_plan_oracle_and_scurve_properties(ray_session, con):
    from pdfrust_ray.stages.dedup import lsh_plan_table, lsh_plan_table_sql

    mine = lsh_plan_table(SF)
    odf = con.execute(lsh_plan_table_sql()).fetchdf()
    a = mine.sort_values(["bands", "t"]).reset_index(drop=True)
    b = odf.sort_values(["bands", "t"]).reset_index(drop=True)
    for c in a.columns:
        assert a[c].tolist() == b[c].tolist(), c
    # S-curve sanity: monotone in t for fixed (b, r); p(1.0) == 1
    for (bb, rr), g in mine.groupby(["bands", "rows_per_band"]):
        p = g.sort_values("t")["p_collide"].to_numpy()
        assert (np.diff(p) >= -1e-15).all()
        assert p[-1] == pytest.approx(1.0)
        assert bb * rr == 128
        # threshold estimate is where the curve crosses ~0.63 region:
        # p(threshold) is within (0.2, 0.9) for nondegenerate bandings
        if 1 < rr < 128:
            thr = g["threshold_est"].iloc[0]
            p_at = 1 - (1 - thr**rr) ** bb
            assert 0.2 < p_at < 0.9
    # the production banding (32 bands x 4 rows) is present
    assert ((mine["bands"] == 32) & (mine["rows_per_band"] == 4)).any()
