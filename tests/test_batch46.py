"""Batch-46 ops: exact-integer KS distance and Mann-Whitney AUC."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_events_ks_statistic_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_ks_statistic,
        events_ks_statistic_sql,
    )

    mine = events_ks_statistic(SF)
    n1, n2, d_num = (int(mine[c].iloc[0]) for c in ("n_pos", "n_neg", "d_num"))
    assert 0 <= d_num <= n1 * n2  # D in [0, 1]
    total = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    assert n1 + n2 == total
    compare_twin(mine, con, events_ks_statistic_sql())


def test_ks_vs_scipy_semantics(ray_session, con):
    """Cross-check the integer numerator against a direct numpy CDF
    computation over raw cents."""
    import numpy as np

    from pdfrust_ray.pipelines.relational import events_ks_statistic

    mine = events_ks_statistic(SF)
    df = con.execute(
        """SELECT CAST(ROUND(value*100) AS BIGINT) v,
                  (event_type = 'purchase') isa FROM events"""
    ).fetchdf()
    pos = np.sort(df.loc[df["isa"], "v"].to_numpy())
    neg = np.sort(df.loc[~df["isa"], "v"].to_numpy())
    grid = np.unique(df["v"].to_numpy())
    c1 = np.searchsorted(pos, grid, side="right")
    c2 = np.searchsorted(neg, grid, side="right")
    d = np.abs(c1.astype(np.int64) * len(neg) - c2.astype(np.int64) * len(pos))
    assert int(mine["d_num"].iloc[0]) == int(d.max())


def test_events_value_auc_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_value_auc,
        events_value_auc_sql,
    )

    mine = events_value_auc(SF)
    n1, n2, auc2 = (int(mine[c].iloc[0]) for c in ("n_pos", "n_neg", "auc2_num"))
    assert 0 <= auc2 <= 2 * n1 * n2  # AUC in [0, 1]
    compare_twin(mine, con, events_value_auc_sql())


def test_auc_brute_force(ray_session, con):
    """Pairwise definition on the raw rows: wins + ties/2, doubled."""
    import numpy as np

    from pdfrust_ray.pipelines.relational import events_value_auc

    mine = events_value_auc(SF)
    df = con.execute(
        """SELECT CAST(ROUND(value*100) AS BIGINT) v,
                  (event_type = 'purchase') isa FROM events"""
    ).fetchdf()
    pos = df.loc[df["isa"], "v"].to_numpy(np.int64)
    neg = df.loc[~df["isa"], "v"].to_numpy(np.int64)
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    assert int(mine["auc2_num"].iloc[0]) == 2 * int(wins) + int(ties)
