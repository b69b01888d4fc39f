"""Batch-125: A/A split invariance, daily type-mix weighted Jaccard."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_aa_split_invariance_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        aa_split_invariance,
        aa_split_invariance_sql,
    )

    mine = aa_split_invariance(SF)
    compare_twin(mine, con, aa_split_invariance_sql())
    total = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    # every salt's arms partition the events
    assert ((mine["n_arm0"] + mine["n_arm1"]) == total).all()
    # gaps recompute and alternate in sign across salts (unbiased
    # splitter: not all gaps on one side)
    assert (mine["gap_ucents"] == mine["mean1_ucents"] - mine["mean0_ucents"]).all()
    assert (mine["gap_ucents"] > 0).any() and (mine["gap_ucents"] < 0).any()


def test_daily_type_mix_drift_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        daily_type_mix_drift,
        daily_type_mix_drift_sql,
    )

    mine = daily_type_mix_drift(SF)
    compare_twin(mine, con, daily_type_mix_drift_sql())
    days = con.execute("SELECT COUNT(DISTINCT CAST(ts AS DATE)) FROM events").fetchone()[0]
    assert len(mine) == days - 1
    # weighted Jaccard bounds
    assert (mine["jaccard_num"] <= mine["jaccard_den"]).all()
    assert mine["similarity_ppm"].between(0, 1_000_000).all()
