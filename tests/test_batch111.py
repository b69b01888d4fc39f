"""Batch-111: HDR log2 value histogram, inter-event gap log2 census."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_bit_length_exact_boundaries():
    from pdfrust_ray.pipelines.relational import _bit_length_exact

    # exact at every power-of-two boundary and its neighbors up to 2^50
    vals = []
    for k in range(1, 51):
        vals += [2**k - 1, 2**k, 2**k + 1]
    v = np.array([1] + vals, dtype=np.int64)
    expect = np.array([int(x).bit_length() - 1 for x in v], dtype=np.int64)
    assert (_bit_length_exact(v) == expect).all()


def test_orders_price_log2_histogram_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        orders_price_log2_histogram,
        orders_price_log2_histogram_sql,
    )

    mine = orders_price_log2_histogram(SF)
    compare_twin(mine, con, orders_price_log2_histogram_sql())
    # edges are consistent powers of two and counts reconcile
    assert (mine["lo_cents"] == (1 << mine["bucket"].to_numpy())).all()
    assert (mine["hi_cents"] == mine["lo_cents"] * 2 - 1).all()
    assert int(mine["n"].sum()) == con.execute("SELECT COUNT(*) FROM orders").fetchone()[0]


def test_events_gap_log2_histogram_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_gap_log2_histogram,
        events_gap_log2_histogram_sql,
    )

    mine = events_gap_log2_histogram(SF)
    compare_twin(mine, con, events_gap_log2_histogram_sql())
    # pair count = rows - distinct users (each user contributes n_i - 1 gaps)
    rows, users = con.execute(
        "SELECT COUNT(*), COUNT(DISTINCT user_id) FROM events"
    ).fetchone()
    assert int(mine["n"].sum()) == rows - users
    total = int(mine["n"].sum())
    assert (mine["share_ppm"] == mine["n"] * 1_000_000 // total).all()
