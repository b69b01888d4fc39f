"""Batch-9 ops: TPC-H Q5 multiway join, ROWS-frame sliding extrema,
interval sweep-line concurrency, degree-ordered triangle counting."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from tools.contract_check import compare_twin, connect

SF = "/root/testdata/sf0.001"
SF01 = "/root/testdata/sf0.01"


@pytest.fixture(scope="module")
def con01():
    return connect(SF01)


def test_local_supplier_revenue_oracle(ray_session, con01):
    # sf0.001 has a single qualifying nation; use sf0.01 where all five
    # ASIA nations appear, plus the small scale for the empty-ish edge
    from pdfrust_ray.pipelines.relational import (
        local_supplier_revenue,
        local_supplier_revenue_sql,
    )

    mine = local_supplier_revenue(SF01)
    assert len(mine) == 5
    compare_twin(mine, con01, local_supplier_revenue_sql())


def test_local_supplier_revenue_small(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        local_supplier_revenue,
        local_supplier_revenue_sql,
    )

    compare_twin(local_supplier_revenue(SF), con, local_supplier_revenue_sql())


def test_rolling_peak_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import events_rolling_peak, events_rolling_peak_sql

    mine = events_rolling_peak(SF)
    assert len(mine) == 1000
    compare_twin(mine, con, events_rolling_peak_sql())


def test_rolling_peak_hand_corpus(ray_session, tmp_path):
    # one user, values 5,1,4,1,9,2,6 -> rolling 3-max = 5,5,5,4,9,9,9
    us = 1_000_000
    vals = [5.0, 1.0, 4.0, 1.0, 9.0, 2.0, 6.0]
    t = pa.table(
        {
            "event_id": pa.array(range(7), pa.int64()),
            "user_id": pa.array([1] * 7, pa.int64()),
            "ts": pa.array([i * us for i in range(7)], pa.timestamp("us")),
            "value": pa.array(vals, pa.float64()),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    from pdfrust_ray.pipelines.relational import events_rolling_peak

    mine = events_rolling_peak(str(tmp_path), frame_rows=3)
    assert mine["rolling_peak"].tolist() == [5, 5, 5, 4, 9, 9, 9]
    assert mine["rolling_floor"].tolist() == [5, 1, 1, 1, 1, 1, 2]


def test_concurrent_sessions_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        concurrent_sessions_daily_peak,
        concurrent_sessions_daily_peak_sql,
    )

    mine = concurrent_sessions_daily_peak(SF)
    assert len(mine) > 0
    assert (mine["peak_concurrency"] >= 1).all()
    compare_twin(mine, con, concurrent_sessions_daily_peak_sql())


def test_concurrent_sessions_tied_timestamps(ray_session, tmp_path):
    # three users with single-event sessions: u1 [t0, t0], u2 [t0, t0],
    # u3 starts exactly when u1/u2 end (t0) -> all three +1 points and
    # two -1 points share ts=t0; starts count before ends, so the peak
    # is 3 even though the net at end-of-instant is 1.
    t0 = pd.Timestamp("2024-01-05 10:00:00").value // 1000
    rows = [(1, t0), (2, t0), (3, t0), (3, t0 + 3600 * 1_000_000)]
    t = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    from pdfrust_ray.pipelines.relational import concurrent_sessions_daily_peak

    # gap 30min: u3's two events (1h apart) form TWO sessions
    mine = concurrent_sessions_daily_peak(str(tmp_path))
    assert mine["peak_concurrency"].tolist() == [3]

    c = duckdb.connect()
    c.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')")
    from pdfrust_ray.pipelines.relational import concurrent_sessions_daily_peak_sql

    compare_twin(mine, c, concurrent_sessions_daily_peak_sql())


def test_user_triangles_oracle(ray_session, con):
    from pdfrust_ray.pipelines.graph import user_triangles, user_triangles_sql

    mine = user_triangles(SF)
    assert mine["n_triangles"].iloc[0] >= 1  # fixture is non-vacuous
    compare_twin(mine, con, user_triangles_sql())


def test_user_triangles_hand_corpus(ray_session, tmp_path):
    # K4 minus edge (3,4): edges (1,2),(1,3),(1,4),(2,3),(2,4) -> exactly
    # the two triangles {1,2,3} and {1,2,4}. Each edge gets 3 distinct
    # shared hours (min_shared=3); hour blocks are disjoint per edge so
    # no accidental edges appear.
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    uid, ts = [], []
    for ei, (a, b) in enumerate(edges):
        for h in range(3):
            hour = pd.Timestamp("2024-01-01") + pd.Timedelta(hours=ei * 3 + h)
            for u in (a, b):
                uid.append(u)
                ts.append(hour.value // 1000)
    t = pa.table(
        {
            "user_id": pa.array(uid, pa.int64()),
            "event_type": pa.array(["click"] * len(uid), pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    from pdfrust_ray.pipelines.graph import user_triangles

    mine = user_triangles(str(tmp_path))
    assert mine["n_edges"].iloc[0] == 5
    assert mine["n_triangles"].iloc[0] == 2
    # wedges: deg(1)=3, deg(2)=3, deg(3)=2, deg(4)=2 -> 3+3+1+1 = 8
    assert mine["n_wedges"].iloc[0] == 8


def test_zorder_layout_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import zorder_layout, zorder_layout_sql

    mine = zorder_layout(SF)
    assert len(mine) > 1
    compare_twin(mine, con, zorder_layout_sql())


def test_zorder_pruned_count_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        zorder_pruned_count,
        zorder_pruned_count_sql,
    )

    mine = zorder_pruned_count(SF)
    # pruning must be real: strictly fewer buckets scanned than exist
    assert 0 < mine["n_buckets_scanned"].iloc[0] < mine["n_buckets_total"].iloc[0]
    assert mine["n_rows"].iloc[0] > 0
    compare_twin(mine, con, zorder_pruned_count_sql())


def test_zorder_morton_bit_properties(ray_session):
    # Morton key must preserve per-dimension ordering within a tile and
    # interleave exactly: spread16(x) spreads bit i of x to bit 2i
    from pdfrust_ray.pipelines.datasetops import _spread16

    x = np.array([0, 1, 2, 3, 0xFFFF], dtype=np.int64)
    sp = _spread16(x)
    assert sp.tolist() == [0, 1, 4, 5, 0x55555555]


def test_type_daily_uniques_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_type_daily_uniques,
        events_type_daily_uniques_sql,
    )

    mine = events_type_daily_uniques(SF)
    assert len(mine) > 0
    compare_twin(mine, con, events_type_daily_uniques_sql())


def test_equidepth_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_value_equidepth,
        events_value_equidepth_sql,
    )

    mine = events_value_equidepth(SF)
    assert len(mine) == 9
    assert mine["boundary"].is_monotonic_increasing
    compare_twin(mine, con, events_value_equidepth_sql())


def test_equidepth_hand_corpus(ray_session, tmp_path):
    # 10 rows 0..9, quartiles (n_buckets=4): ranks floor(9*q/4) for
    # q=1..3 -> 2, 4, 6 -> boundaries 2.0, 4.0, 6.0
    t = pa.table(
        {
            "event_id": pa.array(range(10), pa.int64()),
            "value": pa.array([float(i) for i in range(10)], pa.float64()),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    from pdfrust_ray.pipelines.relational import events_value_equidepth

    mine = events_value_equidepth(str(tmp_path), n_buckets=4)
    assert mine["boundary"].tolist() == [2.0, 4.0, 6.0]


def test_events_hourly_csv_matches_parquet(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_hourly,
        events_hourly_csv,
        events_hourly_sql,
    )

    via_csv = events_hourly_csv(SF)
    via_parquet = events_hourly(SF)
    pd.testing.assert_frame_equal(
        via_csv.reset_index(drop=True), via_parquet.reset_index(drop=True)
    )
    compare_twin(via_csv, con, events_hourly_sql())


def test_table_checksum_oracle_and_merge(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_table_checksum,
        events_table_checksum_sql,
    )

    mine = events_table_checksum(SF)
    assert mine["n_rows"].iloc[0] == 1000
    compare_twin(mine, con, events_table_checksum_sql())


def test_table_checksum_detects_change(ray_session, tmp_path):
    # flipping one row's event_type must change the checksum
    t = pq.read_table(f"{SF}/events.parquet")
    pq.write_table(t, tmp_path / "events.parquet")
    from pdfrust_ray.pipelines.relational import events_table_checksum

    base = events_table_checksum(str(tmp_path))

    df = t.to_pandas()
    df.loc[0, "event_type"] = "tampered"
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), tmp_path / "events.parquet")
    changed = events_table_checksum(str(tmp_path))
    assert changed["n_rows"].iloc[0] == base["n_rows"].iloc[0]
    assert changed["checksum"].iloc[0] != base["checksum"].iloc[0]


def test_rolling_wau_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import rolling_wau, rolling_wau_sql

    mine = rolling_wau(SF)
    assert len(mine) > 0
    # WAU >= DAU invariant: day-7 WAU must be >= any single day's uniques
    compare_twin(mine, con, rolling_wau_sql())


def test_rolling_wau_hand_corpus(ray_session, tmp_path):
    # user 1 active on days 0 and 3; user 2 on day 3 only; window 7:
    # day0 wau = {1} = 1, day3 wau = {1, 2} = 2 (user 1 counted ONCE
    # though active on two in-window days)
    us_day = 86_400 * 1_000_000
    rows = [(1, 0), (1, 3 * us_day), (2, 3 * us_day)]
    t = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] + 60_000_000 for r in rows], pa.timestamp("us")),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    from pdfrust_ray.pipelines.relational import rolling_wau

    mine = rolling_wau(str(tmp_path))
    assert mine["wau"].tolist() == [1, 2]


def test_funnel_three_step_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import funnel_three_step, funnel_three_step_sql

    mine = funnel_three_step(SF)
    f = mine.iloc[0]
    assert f["n_signup_users"] >= f["n_reached_view"] >= f["n_reached_purchase"]
    assert f["n_reached_view"] > 0
    compare_twin(mine, con, funnel_three_step_sql())


def test_funnel_three_step_non_greedy(ray_session, tmp_path):
    # the EARLIEST in-window view (t0+1m) has no purchase within its
    # hour; a LATER in-window view (t0+50m) does (purchase t0+90m) —
    # a greedy first-view matcher would miss this chain
    m = 60 * 1_000_000
    rows = [
        (1, "signup", 0),
        (1, "view", 1 * m),
        (1, "view", 50 * m),
        (1, "purchase", 90 * m),
        # user 2: view BEFORE signup and purchase 2h after view -> no chain
        (2, "view", 0),
        (2, "signup", 10 * m),
        (2, "purchase", 130 * m),
    ]
    t = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array([r[1] for r in rows], pa.string()),
            "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    from pdfrust_ray.pipelines.relational import funnel_three_step

    mine = funnel_three_step(str(tmp_path)).iloc[0]
    assert mine["n_signup_users"] == 2
    assert mine["n_reached_view"] == 1  # only user 1 has view after signup
    assert mine["n_reached_purchase"] == 1


def test_top_value_events_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import top_value_events, top_value_events_sql

    mine = top_value_events(SF)
    assert len(mine) == 20
    assert mine["value"].is_monotonic_decreasing
    compare_twin(mine, con, top_value_events_sql())


def test_user_gap_stats_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import user_gap_stats, user_gap_stats_sql

    mine = user_gap_stats(SF)
    assert (mine["n_gaps"] >= 0).all()
    # Cauchy-Schwarz sanity: n * sum_sq >= sum^2 for every user
    ok = mine["n_gaps"] * mine["sum_gap_sq_s"] >= mine["sum_gap_s"] ** 2
    assert ok[mine["n_gaps"] > 0].all()
    compare_twin(mine, con, user_gap_stats_sql())


def test_source_quality_rollup_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        source_quality_rollup,
        source_quality_rollup_sql,
    )

    mine = source_quality_rollup(SF)
    assert mine["n_docs"].sum() == 500
    compare_twin(mine, con, source_quality_rollup_sql())


def test_shard_helpers_roundtrip(ray_session):
    # shard_distinct / shard_sum equal their serial references
    import ray.data as rd

    from pdfrust_ray.stages.shard import shard_distinct, shard_sum

    rng = np.random.default_rng(7)
    keys = rng.integers(0, 500, size=10_000).astype("int64")
    vals = rng.integers(1, 10, size=10_000).astype("int64")
    df = pd.DataFrame({"key": keys, "val": vals})
    ds = rd.from_pandas(df)

    d = shard_distinct(ds, "key").to_pandas()["key"].sort_values().tolist()
    assert d == sorted(set(keys.tolist()))

    s = shard_sum(ds, "key", "val").to_pandas().set_index("key")["val"].to_dict()
    ref = df.groupby("key")["val"].sum().to_dict()
    assert s == ref


def test_customer_ltv_cohorts_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        customer_ltv_cohorts,
        customer_ltv_cohorts_sql,
    )

    mine = customer_ltv_cohorts(SF)
    assert len(mine) > 1
    # every cohort has an age-0 cell (the first order defines the cohort)
    assert set(mine.loc[mine["age"] == 0, "cohort_year"]) == set(mine["cohort_year"])
    compare_twin(mine, con, customer_ltv_cohorts_sql())


def test_nation_revenue_share_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        nation_revenue_share,
        nation_revenue_share_sql,
    )

    mine = nation_revenue_share(SF)
    # shares are ppm of the total (floor division -> sum <= 1e6)
    assert 0 < mine["share_ppm"].sum() <= 1_000_000
    compare_twin(mine, con, nation_revenue_share_sql())


def test_session_bounce_rate_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import session_bounce_rate, session_bounce_rate_sql

    mine = session_bounce_rate(SF)
    assert (mine["n_bounce"] <= mine["n_sessions"]).all()
    assert (mine["bounce_ppm"] <= 1_000_000).all()
    compare_twin(mine, con, session_bounce_rate_sql())


def test_event_type_transitions_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        event_type_transitions,
        event_type_transitions_sql,
    )

    mine = event_type_transitions(SF)
    # each from-row's probabilities sum to ~1e6 (floor division slack < n_types)
    sums = mine.groupby("from_type")["p_ppm"].sum()
    assert ((sums > 999_990) & (sums <= 1_000_000)).all()
    compare_twin(mine, con, event_type_transitions_sql())


def test_events_daily_percentiles_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_daily_percentiles,
        events_daily_percentiles_sql,
    )

    mine = events_daily_percentiles(SF)
    assert (mine["p50"] <= mine["p90"]).all()
    compare_twin(mine, con, events_daily_percentiles_sql())


def test_user_journey_counts_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import user_journey_counts, user_journey_counts_sql

    mine = user_journey_counts(SF)
    assert len(mine) > 0
    assert mine["n_users"].is_monotonic_decreasing
    compare_twin(mine, con, user_journey_counts_sql())


def test_user_type_entropy_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import user_type_entropy, user_type_entropy_sql

    mine = user_type_entropy(SF)
    # entropy of a <=5-type distribution is in [0, ln(5)] nats
    assert (mine["entropy_nano"] >= 0).all()
    assert (mine["entropy_nano"] <= 1_609_437_913).all()
    compare_twin(mine, con, user_type_entropy_sql())


def test_days_to_first_purchase_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        days_to_first_purchase,
        days_to_first_purchase_sql,
    )

    mine = days_to_first_purchase(SF)
    assert mine["n_users"].sum() == 15  # sf0.001 has 15 users
    compare_twin(mine, con, days_to_first_purchase_sql())


def test_revenue_concentration_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        customer_revenue_concentration,
        customer_revenue_concentration_sql,
    )

    mine = customer_revenue_concentration(SF)
    f = mine.iloc[0]
    # the top decile must hold at least its proportional share
    assert f["share_ppm"] >= 100_000 // 2
    assert f["top_decile_cents"] <= f["total_cents"]
    compare_twin(mine, con, customer_revenue_concentration_sql())


def test_revenue_concentration_tie_slice(ray_session, tmp_path):
    # 20 customers, all equal revenue 100.00 -> k=2, top slice is a pure
    # tie: top_decile = 2 * 10000 cents, share = exactly 10% = 100000 ppm
    t = pa.table(
        {
            "o_orderkey": pa.array(range(20), pa.int64()),
            "o_custkey": pa.array(range(20), pa.int64()),
            "o_totalprice": pa.array([100.0] * 20, pa.float64()),
        }
    )
    pq.write_table(t, tmp_path / "orders.parquet")
    from pdfrust_ray.pipelines.relational import customer_revenue_concentration

    mine = customer_revenue_concentration(str(tmp_path)).iloc[0]
    assert mine["k"] == 2
    assert mine["top_decile_cents"] == 20000
    assert mine["share_ppm"] == 100_000


def test_fulfillment_latency_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import fulfillment_latency, fulfillment_latency_sql

    mine = fulfillment_latency(SF)
    assert len(mine) == 5
    assert (mine["max_days"] * mine["n_items"] >= mine["sum_days"]).all()
    compare_twin(mine, con, fulfillment_latency_sql())


def test_scd2_history_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import scd2_history, scd2_history_sql

    mine = scd2_history(SF)
    # structural invariants: exactly one current row per live doc_id;
    # closed rows end at D1
    cur = mine[mine["is_current"]]
    assert cur["doc_id"].is_unique
    closed = mine[~mine["is_current"]]
    assert (closed["valid_to"] == pd.Timestamp("2024-01-02")).all()
    compare_twin(mine, con, scd2_history_sql())


def test_scd2_history_classes(ray_session):
    # derived-snapshot classes: doc_id%10==9 -> added (one open D1 row),
    # %10==0 -> removed (one closed row), %10==5 -> changed (two rows)
    from pdfrust_ray.pipelines.datasetops import scd2_history

    mine = scd2_history(SF)
    per = mine.groupby("doc_id").size()
    sample_changed = [d for d in per.index if d % 10 == 5][:3]
    assert all(per[d] == 2 for d in sample_changed)
    sample_added = [d for d in per.index if d % 10 == 9][:3]
    add_rows = mine[mine["doc_id"].isin(sample_added)]
    assert (add_rows["valid_from"] == pd.Timestamp("2024-01-02")).all()
    assert add_rows["is_current"].all()
