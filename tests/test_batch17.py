"""Batch-17 ops: streaming windowed dedup, OOV audit, length
bucketing."""

import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_streaming_windowed_dedup_matches_batch(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        windowed_event_dedup,
        windowed_event_dedup_sql,
    )
    from pdfrust_ray.stages.streaming import streaming_windowed_dedup

    stream = streaming_windowed_dedup(SF)
    batch = windowed_event_dedup(SF)
    pd.testing.assert_frame_equal(stream, batch, check_dtype=False)
    compare_twin(stream, con, windowed_event_dedup_sql())


def test_streaming_windowed_dedup_suppression_state(ray_session, tmp_path):
    # three same-key events 10 min apart: only the first survives the
    # 1h window even though each consecutive gap never exceeds it once
    # suppressed events STILL refresh the state (LAG semantics)
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.stages.streaming import streaming_windowed_dedup

    base = np.datetime64("2024-01-05T10:00:00", "us")
    ts = [base, base + np.timedelta64(10, "m"), base + np.timedelta64(20, "m"),
          base + np.timedelta64(100, "m")]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3, 4], pa.int64()),
                "user_id": pa.array([7, 7, 7, 7], pa.int64()),
                "event_type": ["click"] * 4,
                "ts": pa.array(ts, pa.timestamp("us")),
            }
        ),
        tmp_path / "events.parquet",
    )
    out = streaming_windowed_dedup(str(tmp_path))
    # event 4 is 80 min after event 3 (the last seen), within nothing:
    # 80m > 60m -> kept; events 2,3 suppressed but refreshed state
    assert out["event_id"].tolist() == [1, 4]


def test_oov_rate_oracle(ray_session, con):
    from pdfrust_ray.pipelines.quality import oov_rate, oov_rate_sql

    mine = oov_rate(SF)
    assert len(mine) == 500
    assert (mine["n_oov"] > 0).any()
    assert (mine["n_oov"] <= mine["n_tokens"]).all()
    assert (mine["oov_ppm"] <= 1_000_000).all()
    compare_twin(mine, con, oov_rate_sql())


def test_oov_rate_full_vocab_is_zero(ray_session):
    # with the vocabulary as large as the token universe nothing is OOV
    from pdfrust_ray.pipelines.quality import oov_rate

    mine = oov_rate(SF, vocab_size=100000)
    assert (mine["n_oov"] == 0).all()


def test_length_bucket_stats_oracle(ray_session, con):
    from pdfrust_ray.pipelines.quality import length_bucket_stats, length_bucket_stats_sql

    mine = length_bucket_stats(SF)
    assert len(mine) > 2
    assert int(mine["n_docs"].sum()) == 500
    assert (mine["padding_waste"] >= 0).all()
    compare_twin(mine, con, length_bucket_stats_sql())
