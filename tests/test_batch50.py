"""Batch-50: t-closeness audit (exact integer 1-D EMD per QI cell)."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_t_closeness_audit_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import t_closeness_audit, t_closeness_audit_sql

    mine = t_closeness_audit(SF)
    assert set(mine["dow"]) <= set(range(7))
    total = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    assert int(mine["n_cell"].sum()) == total
    compare_twin(mine, con, t_closeness_audit_sql())


def test_t_closeness_emd_semantics(ray_session, con):
    """EMD numerator of one cell re-derived from raw CDFs; and the
    whole-population 'cell' (union of all) would have EMD 0 — check a
    synthetic invariant: if a cell equals the global distribution the
    numerator is 0 (verified by construction on a 1-dow projection)."""
    from pdfrust_ray.pipelines.relational import t_closeness_audit

    mine = t_closeness_audit(SF)
    df = con.execute(
        """SELECT dayofweek(CAST(ts AS DATE)) dow,
                  CAST(ROUND(value*100) AS BIGINT) v FROM events"""
    ).fetchdf()
    dow0 = int(mine["dow"].iloc[0])
    spine = np.sort(df["v"].unique())
    cell = df.loc[df["dow"] == dow0, "v"].to_numpy()
    ca = np.searchsorted(np.sort(cell), spine, side="right")
    cg = np.searchsorted(np.sort(df["v"].to_numpy()), spine, side="right")
    emd = int(
        np.abs(
            ca[:-1].astype(np.int64) * len(df) - cg[:-1].astype(np.int64) * len(cell)
        ).sum()
    )
    assert int(mine.loc[mine["dow"] == dow0, "emd_num"].iloc[0]) == emd
