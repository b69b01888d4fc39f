"""Batch-122: daily dominance counts (BIT sweep), DiD audit."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_daily_dominance_counts_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        daily_dominance_counts,
        daily_dominance_counts_sql,
    )

    mine = daily_dominance_counts(SF)
    compare_twin(mine, con, daily_dominance_counts_sql())
    D = len(mine)
    assert (mine["n_dominated"] < D).all()
    # at least one day dominates someone unless the series is degenerate
    assert (mine["n_dominated"] > 0).any()
    # brute-force recheck of the Fenwick sweep on the folded series
    n = mine["n_events"].to_numpy()
    r = mine["revenue_cents"].to_numpy()
    brute = [
        int(((n < n[i]) & (r < r[i])).sum()) for i in range(D)
    ]
    assert (mine["n_dominated"].to_numpy() == np.array(brute)).all()


def test_event_value_did_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import event_value_did, event_value_did_sql

    mine = event_value_did(SF)
    compare_twin(mine, con, event_value_did_sql())
    assert len(mine) > 0
    # DiD recomputes from the four cells exactly
    assert (
        mine["did_ucents"]
        == (mine["wkend_p1_ucents"] - mine["wkday_p1_ucents"])
        - (mine["wkend_p0_ucents"] - mine["wkday_p0_ucents"])
    ).all()
