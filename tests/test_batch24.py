"""Batch-24 ops: boilerplate mining, first-response latency, rolling
anomaly flags."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_boilerplate_segments_oracle(ray_session, con):
    from pdfrust_ray.pipelines.llmdata import (
        boilerplate_segments,
        boilerplate_segments_sql,
    )

    mine = boilerplate_segments(SF)
    assert len(mine) == 10
    assert (mine["n_docs"] >= 2).all()
    assert mine["n_docs"].is_monotonic_decreasing
    compare_twin(mine, con, boilerplate_segments_sql())


def test_boilerplate_consistent_with_segment_dedup(ray_session):
    # every mined passage is one the dedup pass would remove: total
    # removals across docs >= sum of its top-k doc counts' excess
    from pdfrust_ray.pipelines.llmdata import boilerplate_segments, segment_dedup

    mined = boilerplate_segments(SF)
    sd = segment_dedup(SF)
    assert int(sd["n_removed"].sum()) >= int(mined["n_docs"].sum()) - len(mined)


def test_conv_first_response_latency_oracle(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        conv_first_response_latency,
        conv_first_response_latency_sql,
    )

    d = ensure_corpus("t1")
    mine = conv_first_response_latency(d)
    assert (mine["latency_us"] > 0).all()  # assistant replies after user
    c = duckdb.connect()
    compare_twin(mine, c, conv_first_response_latency_sql(f"{d}/shards/*.parquet"))


def test_rolling_count_anomalies_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        rolling_count_anomalies,
        rolling_count_anomalies_sql,
    )

    mine = rolling_count_anomalies(SF)
    assert mine["is_anomaly"].any() and not mine["is_anomaly"].all()
    compare_twin(mine, con, rolling_count_anomalies_sql())


def test_rolling_count_anomalies_planted_step(ray_session, tmp_path):
    # a flat series with a step change flags the step day against its
    # trailing window, then adapts (later days stop flagging)
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.relational import rolling_count_anomalies

    ts, types = [], []
    counts = [10] * 10 + [100] + [100] * 6
    for i, c in enumerate(counts):
        day = f"2024-01-{i + 1:02d}"
        for _ in range(c):
            ts.append(np.datetime64(f"{day}T12:00:00", "us"))
            types.append("click")
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(len(ts)), pa.int64()),
                "ts": pa.array(ts, pa.timestamp("us")),
                "event_type": types,
            }
        ),
        tmp_path / "events.parquet",
    )
    out = rolling_count_anomalies(str(tmp_path))
    flagged = set(out.loc[out["is_anomaly"], "day"])
    assert "2024-01-11" in flagged  # the step day
    assert "2024-01-17" not in flagged  # adapted to the new level
