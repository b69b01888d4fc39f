"""Batch-123: cohort persistence, space-filling-curve locality audit."""

import duckdb
import numpy as np
import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_cohort_persistence_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        cohort_persistence,
        cohort_persistence_sql,
    )

    mine = cohort_persistence(SF)
    compare_twin(mine, con, cohort_persistence_sql())
    # thresholds nest: full-strength <= half-strength <= max offset
    assert (mine["full_strength_days"] <= mine["persistence_days"]).all()
    assert (mine["persistence_days"] <= mine["max_offset"]).all()
    # cohorts partition users
    assert int(mine["n_users"].sum()) == con.execute(
        "SELECT COUNT(DISTINCT user_id) FROM events"
    ).fetchone()[0]


def test_hilbert_bijective_and_adjacent():
    from pdfrust_ray.pipelines.datasetops import _hilbert_d

    xs, ys = np.meshgrid(np.arange(64), np.arange(64))
    x, y = xs.ravel(), ys.ravel()
    d = _hilbert_d(x, y, 6)
    # bijection onto [0, 4096)
    assert len(np.unique(d)) == 64 * 64
    assert d.min() == 0 and d.max() == 64 * 64 - 1
    # the defining Hilbert property: consecutive d are grid neighbors
    order = np.argsort(d)
    dx = np.abs(np.diff(x[order]))
    dy = np.abs(np.diff(y[order]))
    assert ((dx + dy) == 1).all()


def test_zorder_interleave():
    from pdfrust_ray.pipelines.datasetops import _zorder_d

    # (x=3, y=5): x bits 011 interleave y bits 101 -> 100111 = 39
    assert int(_zorder_d(np.array([3]), np.array([5]))[0]) == 39
    # bijective on the grid
    xs, ys = np.meshgrid(np.arange(64), np.arange(64))
    d = _zorder_d(xs.ravel(), ys.ravel(), 6)
    assert len(np.unique(d)) == 64 * 64


def test_curve_locality_matches_bruteforce(ray_session):
    from pdfrust_ray.pipelines.datasetops import (
        _hilbert_d,
        _zorder_d,
        curve_locality_audit,
    )

    out = curve_locality_audit(SF).set_index("curve")
    df = (
        duckdb.connect()
        .execute(
            f"SELECT event_id, ts FROM read_parquet('{SF}/events.parquet') ORDER BY event_id"
        )
        .fetchdf()
    )
    ts = pd.to_datetime(df["ts"])
    side = 64
    X = (ts.dt.hour.to_numpy().astype(np.int64) * side) // 24
    Y = (ts.dt.minute.to_numpy().astype(np.int64) * side) // 60
    for curve, d in (
        ("hilbert", _hilbert_d(X, Y, 6)),
        ("zorder", _zorder_d(X, Y, 6)),
        ("row_major", Y * side + X),
    ):
        steps = np.abs(np.diff(d))
        assert out.loc[curve, "total_steps"] == int(steps.sum())
        assert out.loc[curve, "max_step"] == int(steps.max())


def test_curve_locality_bucket_invariance(ray_session):
    from pdfrust_ray.pipelines.datasetops import curve_locality_audit

    a = curve_locality_audit(SF, n_buckets=8)
    b = curve_locality_audit(SF, n_buckets=128)
    pd.testing.assert_frame_equal(a, b)
