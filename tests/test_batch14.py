"""Batch-14 ops: grouping sets, anomaly flags, salted aggregation,
JSONL sink round-trip, SFT pair extraction."""

import duckdb
import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_events_grouping_sets_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_grouping_sets,
        events_grouping_sets_sql,
    )

    mine = events_grouping_sets(SF)
    compare_twin(mine, con, events_grouping_sets_sql())
    # lattice structure: the grand-total row equals the table size,
    # and each marginal re-sums to it
    total = mine[(mine.event_type == "ALL") & (mine.day == "ALL")]
    assert len(total) == 1
    n = int(total["n_events"].iloc[0])
    by_type = mine[(mine.event_type != "ALL") & (mine.day == "ALL")]
    by_day = mine[(mine.event_type == "ALL") & (mine.day != "ALL")]
    fine = mine[(mine.event_type != "ALL") & (mine.day != "ALL")]
    assert int(by_type["n_events"].sum()) == n
    assert int(by_day["n_events"].sum()) == n
    assert int(fine["n_events"].sum()) == n


def test_daily_count_anomalies_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        daily_count_anomalies,
        daily_count_anomalies_sql,
    )

    mine = daily_count_anomalies(SF)
    assert mine["is_anomaly"].any()  # non-vacuous on the fixture
    assert not mine["is_anomaly"].all()
    compare_twin(mine, con, daily_count_anomalies_sql())


def test_daily_count_anomalies_planted(ray_session, tmp_path):
    # a constant series with one big spike flags exactly the spike day
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.relational import daily_count_anomalies

    days = [f"2024-01-{d:02d}" for d in range(1, 11)]
    counts = [5] * 9 + [50]
    ts, types = [], []
    for day, c in zip(days, counts):
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
    out = daily_count_anomalies(str(tmp_path))
    flagged = out[out["is_anomaly"]]
    assert flagged["day"].tolist() == ["2024-01-10"]


def test_type_stats_salted_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import type_stats_salted, type_stats_salted_sql

    mine = type_stats_salted(SF)
    compare_twin(mine, con, type_stats_salted_sql())


def test_type_stats_salted_salt_invariance(ray_session):
    from pdfrust_ray.pipelines.relational import type_stats_salted

    a = type_stats_salted(SF, n_salts=4)
    b = type_stats_salted(SF, n_salts=64)
    pd.testing.assert_frame_equal(a, b)


def test_documents_jsonl_roundtrip_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        documents_jsonl_roundtrip,
        documents_jsonl_roundtrip_sql,
    )

    mine = documents_jsonl_roundtrip(SF)
    assert int(mine["n_docs"].sum()) == 500
    compare_twin(mine, con, documents_jsonl_roundtrip_sql())


def test_sft_pairs_oracle(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import sft_pairs, sft_pairs_sql

    d = ensure_corpus("t1")
    mine = sft_pairs(d)
    assert (mine["n_pairs"] > 0).all()
    assert (mine.loc[mine["n_pairs"] > 0, "sum_pair_chars"] > 0).all()
    c = duckdb.connect()
    compare_twin(mine, c, sft_pairs_sql(f"{d}/shards/*.parquet"))
