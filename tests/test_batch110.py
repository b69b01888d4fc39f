"""Batch-110: minute-of-hour skew audit, segment x priority mix."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_minute_skew_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import events_minute_skew, events_minute_skew_sql

    mine = events_minute_skew(SF)
    compare_twin(mine, con, events_minute_skew_sql())
    assert mine["minute"].between(0, 59).all()
    total = int(mine["n"].sum())
    assert total == con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    # floor-exact shares: recompute
    assert (mine["share_ppm"] == mine["n"] * 1_000_000 // total).all()
    # shares sum to <= 1e6 (floor) and > 1e6 - 60
    s = int(mine["share_ppm"].sum())
    assert 1_000_000 - 60 < s <= 1_000_000


def test_segment_priority_mix_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        segment_priority_mix,
        segment_priority_mix_sql,
    )

    mine = segment_priority_mix(SF)
    compare_twin(mine, con, segment_priority_mix_sql())
    assert len(mine) > 1
    # per-segment shares recompute exactly
    seg_tot = mine.groupby("c_mktsegment")["n_orders"].transform("sum")
    assert (mine["seg_share_ppm"] == mine["n_orders"] * 1_000_000 // seg_tot).all()
    # totals reconcile with the orders table (every order has a customer)
    assert int(mine["n_orders"].sum()) == con.execute(
        "SELECT COUNT(*) FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey"
    ).fetchone()[0]
