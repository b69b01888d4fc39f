"""Batch-10 ops: frequent-segment corpus dedup, context-window
truncation, TPC-H Q3, NTILE quartiles, cumulative distinct users, ORC
ingest parity."""

import duckdb
import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"
SF01 = "/root/testdata/sf0.01"


def test_segment_dedup_oracle(ray_session, con):
    from pdfrust_ray.pipelines.llmdata import segment_dedup, segment_dedup_sql

    mine = segment_dedup(SF)
    assert len(mine) == 500
    assert (mine["n_removed"] > 0).any()  # non-vacuous on the fixture
    assert (mine["n_removed"] <= mine["n_segs"]).all()
    compare_twin(mine, con, segment_dedup_sql())


def test_segment_dedup_planted(ray_session, tmp_path):
    # two docs sharing one exact 10-word run lose exactly that chunk;
    # a unique doc is untouched (clean_md5 == md5 of original text)
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.llmdata import segment_dedup

    seg = " ".join(f"w{i}" for i in range(10))
    d0 = seg + " " + "tail0 only here alpha beta gamma delta eps zeta eta"
    d1 = seg + " " + "tail1 unrelated words one two three four five six seven"
    d2 = "completely different text with no repeated passage at all here"
    pq.write_table(
        pa.table({"doc_id": [0, 1, 2], "text": [d0, d1, d2]}),
        tmp_path / "documents.parquet",
    )
    out = segment_dedup(str(tmp_path))
    assert out.loc[out.doc_id == 0, "n_removed"].item() == 1
    assert out.loc[out.doc_id == 1, "n_removed"].item() == 1
    assert out.loc[out.doc_id == 2, "n_removed"].item() == 0
    assert (
        out.loc[out.doc_id == 2, "clean_md5"].item()
        == hashlib.md5(d2.encode()).hexdigest()
    )


def test_context_truncation_oracle(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        context_truncation,
        context_truncation_sql,
    )

    d = ensure_corpus("t2")
    mine = context_truncation(d)
    # the budget must bite: some conversations partially truncated
    assert ((mine["n_kept"] > 0) & (mine["n_kept"] < mine["n_turns"])).any()
    assert (mine["tokens_kept"] <= 256).all()
    assert (mine["n_kept"] <= mine["n_turns"]).all()
    c = duckdb.connect()
    compare_twin(mine, c, context_truncation_sql(f"{d}/shards/*.parquet"))


def test_context_truncation_edges(ray_session, tmp_path):
    # suffix rule: a final turn alone over budget keeps nothing (-1)
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.conversation import context_truncation

    os.makedirs(tmp_path / "shards", exist_ok=True)
    big = " ".join(["x"] * 300)
    rows = {
        "conv_id": ["a", "a", "b", "b"],
        "turn_idx": [0, 1, 0, 1],
        "text": ["hello there", big, "one two", "three four"],
    }
    pq.write_table(
        pa.table(
            {
                "conv_id": pa.array(rows["conv_id"], pa.string()),
                "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
                "text": pa.array(rows["text"], pa.string()),
            }
        ),
        tmp_path / "shards" / "s0.parquet",
    )
    out = context_truncation(str(tmp_path)).set_index("conv_id")
    assert out.loc["a", "n_kept"] == 0
    assert out.loc["a", "first_kept_idx"] == -1
    assert out.loc["b", "n_kept"] == 2
    assert out.loc["b", "first_kept_idx"] == 0
    assert out.loc["b", "tokens_kept"] == 4


def test_tpch_q3_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import tpch_q3, tpch_q3_sql

    mine = tpch_q3(SF)
    assert 0 < len(mine) <= 10
    assert mine["revenue_cents"].is_monotonic_decreasing
    compare_twin(mine, con, tpch_q3_sql())


def test_ntile_quartiles_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import ntile_quartiles, ntile_quartiles_sql

    mine = ntile_quartiles(SF)
    assert set(mine["quartile"]) == {1, 2, 3, 4}
    # quartile boundaries are ordered within each segment
    for _, g in mine.groupby("c_mktsegment"):
        g = g.sort_values("quartile")
        assert g["min_cents"].is_monotonic_increasing
    compare_twin(mine, con, ntile_quartiles_sql())


def test_cumulative_distinct_users_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        cumulative_distinct_users,
        cumulative_distinct_users_sql,
    )

    mine = cumulative_distinct_users(SF)
    assert mine["cum_users"].is_monotonic_increasing
    assert len(mine) >= 28  # events fixture spans January 2024
    compare_twin(mine, con, cumulative_distinct_users_sql())


def test_documents_checksum_orc(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        documents_checksum_orc,
        documents_checksum_orc_sql,
    )

    mine = documents_checksum_orc(SF)
    assert mine["n_rows"].item() == 500
    compare_twin(mine, con, documents_checksum_orc_sql())


def test_orc_read_roundtrip(ray_session):
    # the ORC path yields exactly the parquet table content
    import pyarrow.parquet as pq

    from pdfrust_ray.sources.tabular import read_documents_orc

    ds = read_documents_orc(SF)
    got = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = (
        pq.read_table(f"{SF}/documents.parquet")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_last_touch_attribution_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        last_touch_attribution,
        last_touch_attribution_sql,
    )

    mine = last_touch_attribution(SF)
    assert set(mine["channel"]) <= {"click", "view", "direct"}
    assert len(mine) >= 2  # attribution and direct both occur
    compare_twin(mine, con, last_touch_attribution_sql())


def test_last_touch_attribution_hand(ray_session, tmp_path):
    # click at t0, purchase t0+1h (attributed); purchase t0+30h (direct:
    # outside 24h); view then purchase same user picks most recent touch
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.relational import last_touch_attribution

    t0 = pd.Timestamp("2024-01-01")
    rows = [
        (1, t0, 7, "click", 0.0),
        (2, t0 + pd.Timedelta(hours=1), 7, "purchase", 10.0),
        (3, t0 + pd.Timedelta(hours=2), 7, "view", 0.0),
        (4, t0 + pd.Timedelta(hours=3), 7, "purchase", 20.0),
        (5, t0 + pd.Timedelta(hours=40), 7, "purchase", 30.0),
    ]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
                "user_id": pa.array([r[2] for r in rows], pa.int64()),
                "event_type": pa.array([r[3] for r in rows], pa.string()),
                "value": pa.array([r[4] for r in rows], pa.float64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    out = last_touch_attribution(str(tmp_path)).set_index("channel")
    assert out.loc["click", "n_purchases"] == 1
    assert out.loc["view", "n_purchases"] == 1
    assert out.loc["direct", "n_purchases"] == 1
    assert out.loc["direct", "revenue_cents"] == 3000


def test_rolling_median_value_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        rolling_median_value,
        rolling_median_value_sql,
    )

    mine = rolling_median_value(SF)
    assert len(mine) == 1000
    compare_twin(mine, con, rolling_median_value_sql())


def test_mv_incremental_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        mv_incremental_daily_revenue,
        mv_incremental_daily_revenue_sql,
    )

    mine = mv_incremental_daily_revenue(SF)
    assert len(mine) > 100  # 5 types x ~31 days
    compare_twin(mine, con, mv_incremental_daily_revenue_sql())


def test_experiment_lift_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import experiment_lift, experiment_lift_sql

    mine = experiment_lift(SF)
    assert list(mine["variant"]) == ["A", "B"]
    assert (mine["n_converted"] <= mine["n_users"]).all()
    compare_twin(mine, con, experiment_lift_sql())


def test_bucketed_join_revenue_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        bucketed_join_revenue,
        bucketed_join_revenue_sql,
    )

    mine = bucketed_join_revenue(SF)
    assert len(mine) >= 2
    compare_twin(mine, con, bucketed_join_revenue_sql())


def test_bucketed_layout_covers_all_rows(ray_session):
    # the bucketed files partition the table exactly (no loss, no dupes)
    import glob

    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.datasetops import ensure_bucketed_layout

    base = ensure_bucketed_layout(SF)
    n = sum(
        pq.read_metadata(p).num_rows
        for p in glob.glob(f"{base}/lineitem/bucket=*/part-0.parquet")
    )
    assert n == pq.read_metadata(f"{SF}/lineitem.parquet").num_rows


def test_kmv_type_intersections_oracle(ray_session, con):
    from pdfrust_ray.stages.sketches import (
        kmv_type_intersections,
        kmv_type_intersections_sql,
    )

    mine = kmv_type_intersections(SF)
    assert len(mine) == 10  # 5 choose 2 pairs
    compare_twin(mine, con, kmv_type_intersections_sql())


def test_kmv_saturated_estimate():
    # above saturation the theta estimate stays within the 1/sqrt(k)
    # error regime: 50k vs 50k users with 20k overlap, k=1024
    import numpy as np

    from pdfrust_ray.stages.sketches import _kmv_merge, _kmv_partial

    k = 1024
    a = np.arange(0, 50_000, dtype=np.uint64)
    b = np.arange(30_000, 80_000, dtype=np.uint64)
    sa = np.frombuffer(_kmv_partial(a, k), dtype=np.uint64)
    sb = np.frombuffer(_kmv_partial(b, k), dtype=np.uint64)
    U64 = float(2**64)
    theta = min((float(sa[-1]) + 1) / U64, (float(sb[-1]) + 1) / U64)
    lim = np.uint64(min(theta * U64, U64 - 1))
    common = np.intersect1d(sa, sb, assume_unique=True)
    est = (common < lim).sum() / theta
    assert abs(est - 20_000) / 20_000 < 0.15


def test_compact_events_checksum(ray_session, con):
    import glob

    from pdfrust_ray.pipelines.datasetops import (
        compact_events_checksum,
        compact_events_checksum_sql,
        ensure_fragmented_events,
    )

    mine = compact_events_checksum(SF)
    compare_twin(mine, con, compact_events_checksum_sql())
    frag = ensure_fragmented_events(SF)
    n_before = len(glob.glob(f"{frag}/part-*.parquet"))
    n_after = len(glob.glob(f"/tmp/pdfrust_ray_compact_sf0.001/*.parquet"))
    assert n_before >= 32
    assert 0 < n_after <= 8


def test_schema_migration_counts(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        schema_migration_counts,
        schema_migration_counts_sql,
    )

    mine = schema_migration_counts(SF)
    assert list(mine["schema_version"]) == ["v1", "v2"]
    # every v1 row got a null props backfill, no v2 row did
    assert mine.set_index("schema_version").loc["v1"].pipe(
        lambda r: r["n_rows"] == r["n_null_props"]
    )
    assert mine.set_index("schema_version").loc["v2", "n_null_props"] == 0
    compare_twin(mine, con, schema_migration_counts_sql())


def test_role_length_quantiles(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        role_length_quantiles,
        role_length_quantiles_sql,
    )

    d = ensure_corpus("t2")
    mine = role_length_quantiles(d)
    assert set(mine["role"]) == {"user", "assistant", "tool"}
    assert (mine["p25"] <= mine["p50"]).all() and (mine["p50"] <= mine["p90"]).all()
    c = duckdb.connect()
    compare_twin(mine, c, role_length_quantiles_sql(f"{d}/shards/*.parquet"))


def test_filter_funnel_oracle(ray_session, con):
    from pdfrust_ray.pipelines.quality import filter_funnel, filter_funnel_sql

    mine = filter_funnel(SF)
    assert len(mine) == 4
    assert mine["n_surviving"].is_monotonic_decreasing
    assert mine.loc[0, "n_surviving"] == 500
    compare_twin(mine, con, filter_funnel_sql())


def test_dod_growth_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import dod_growth, dod_growth_sql

    mine = dod_growth(SF)
    assert len(mine) == 150  # 5 types x ~30 days
    # first day of each type has no predecessor -> sentinel
    firsts = mine.groupby("event_type").first()
    assert (firsts["growth_ppm"] == -1_000_000).all()
    compare_twin(mine, con, dod_growth_sql())


def test_distinct_types_so_far_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        distinct_types_so_far,
        distinct_types_so_far_sql,
    )

    mine = distinct_types_so_far(SF)
    assert len(mine) == 1000
    assert mine["n_types_so_far"].between(1, 5).all()
    compare_twin(mine, con, distinct_types_so_far_sql())


def test_order_backlog_curve_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        order_backlog_curve,
        order_backlog_curve_sql,
    )

    mine = order_backlog_curve(SF)
    assert (mine["open_orders"] >= 0).all()
    assert mine["open_orders"].iloc[-1] == 0  # every order eventually ships
    compare_twin(mine, con, order_backlog_curve_sql())


def test_time_travel_read(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        ensure_versioned_table,
        time_travel_read,
        time_travel_read_sql,
    )

    mine = time_travel_read(SF)
    assert list(mine["version"]) == ["v1", "v2"]
    compare_twin(mine, con, time_travel_read_sql())
    # versions share the untouched data file (no rewrite on delete+append)
    import json
    import os

    base = ensure_versioned_table(SF)
    v1 = set(json.load(open(f"{base}/manifest-v1.json"))["files"])
    v2 = set(json.load(open(f"{base}/manifest-v2.json"))["files"])
    assert v1 & v2  # shared file
    assert v1 != v2


def test_bloom_join_revenue(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        bloom_join_revenue,
        bloom_join_revenue_sql,
    )

    mine = bloom_join_revenue(SF)
    assert list(mine["o_orderpriority"]) == ["1-URGENT", "2-HIGH"]
    compare_twin(mine, con, bloom_join_revenue_sql())


def test_bloom_filter_selectivity():
    # the pushdown actually drops the vast majority of non-matching keys
    import numpy as np

    from pdfrust_ray.stages.sketches import bloom_contains, bloom_merge, bloom_partial

    member = np.arange(0, 3000, dtype=np.uint64)
    probe = np.arange(3000, 103_000, dtype=np.uint64)
    bits = bloom_merge([bloom_partial(member)])
    assert bloom_contains(bits, member).all()  # no false negatives
    fp = bloom_contains(bits, probe).mean()
    assert fp < 0.01


def test_winsorized_mean_value(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        winsorized_mean_value,
        winsorized_mean_value_sql,
    )

    mine = winsorized_mean_value(SF)
    assert len(mine) == 5
    assert (mine["p5_cents"] <= mine["p95_cents"]).all()
    compare_twin(mine, con, winsorized_mean_value_sql())


def test_monthly_seasonality(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        monthly_seasonality,
        monthly_seasonality_sql,
    )

    mine = monthly_seasonality(SF)
    assert list(mine["month"]) == list(range(1, 13))
    compare_twin(mine, con, monthly_seasonality_sql())


def test_feature_snapshot(ray_session, con):
    from pdfrust_ray.pipelines.relational import feature_snapshot, feature_snapshot_sql

    mine = feature_snapshot(SF)
    assert (mine["n_last_7d"] <= mine["n_events"]).all()
    assert (mine["days_since_last"] >= 0).all()
    compare_twin(mine, con, feature_snapshot_sql())


def test_feature_snapshot_no_leakage(ray_session, con):
    # a user whose only post-cutoff events exist must be absent
    from pdfrust_ray.pipelines.relational import feature_snapshot

    mine = feature_snapshot(SF, cutoff="2024-01-02")
    post = con.execute(
        "SELECT COUNT(DISTINCT user_id) FROM events WHERE ts < TIMESTAMP '2024-01-02'"
    ).fetchone()[0]
    assert len(mine) == post


def test_k_anonymity_check(ray_session, con):
    from pdfrust_ray.pipelines.relational import k_anonymity_check, k_anonymity_check_sql

    mine = k_anonymity_check(SF)
    assert len(mine) == 5
    assert (mine["n_suppressed"] <= mine["n_cells"]).all()
    compare_twin(mine, con, k_anonymity_check_sql())


def test_embedding_dim_stats(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        embedding_dim_stats,
        embedding_dim_stats_sql,
    )

    mine = embedding_dim_stats(SF)
    assert len(mine) == 64
    assert (mine["min_q"] <= mine["max_q"]).all()
    compare_twin(mine, con, embedding_dim_stats_sql())
