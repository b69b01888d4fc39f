"""Batch-37 ops: co-partitioned range merge join, context growth curve."""

import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_range_merge_join_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import range_merge_join, range_merge_join_sql

    mine = range_merge_join(SF)
    assert mine["n_events"].sum() > 0
    compare_twin(mine, con, range_merge_join_sql())


def test_range_merge_join_matches_broadcast(ray_session):
    """Co-partitioned join result == plain pandas join — the boundary
    routing loses/duplicates nothing."""
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.datasetops import range_merge_join

    mine = range_merge_join(SF, n_parts=4)
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    cu = pq.read_table(f"{SF}/customer.parquet").to_pandas()
    j = ev.merge(cu, left_on="user_id", right_on="c_custkey")
    j["cents"] = (j["value"] * 100).round().astype("int64")
    exp = (
        j.groupby(["c_mktsegment", "event_type"], as_index=False)
        .agg(n_events=("cents", "size"), total_cents=("cents", "sum"))
        .sort_values(["c_mktsegment", "event_type"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(mine, exp, check_dtype=False)


def test_context_size_at_turn_oracle(ray_session, con):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        context_size_at_turn,
        context_size_at_turn_sql,
    )

    corpus = ensure_corpus("t1")
    mine = context_size_at_turn(corpus)
    # turn 0 exists for every conversation; counts never grow with depth
    assert mine["turn_idx"].iloc[0] == 0
    assert mine["n_convs"].is_monotonic_decreasing or (
        mine["n_convs"].diff().dropna() <= 0
    ).all()
    # cumulative totals strictly grow per conversation, so the average
    # context at the last turn exceeds the average at turn 0
    first = mine.iloc[0]["sum_cum_chars"] / mine.iloc[0]["n_convs"]
    last = mine.iloc[-1]["sum_cum_chars"] / mine.iloc[-1]["n_convs"]
    assert last > first
    compare_twin(mine, con, context_size_at_turn_sql(f"{corpus}/shards/*.parquet"))
