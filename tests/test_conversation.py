"""Conversation-analytics operators over the transcript input table.

Each Ray pipeline is compared column-exactly against DuckDB running
the registered oracle SQL on the SAME raw t1 shards (an independent
recomputation, not a golden readback).
"""

import duckdb
import pandas as pd
import pytest

from pdfrust_ray.fixtures.corpus import ensure_corpus
from pdfrust_ray.pipelines import conversation as cv
from tools.contract_check import compare_rows


@pytest.fixture(scope="module")
def corpus(ray_session):
    d = ensure_corpus("t1")
    return d, f"{d}/shards/*.parquet"


def test_conv_stats(corpus):
    d, g = corpus
    assert compare_rows(cv.conv_stats(d), duckdb.connect().execute(cv.conv_stats_sql(g)).df())


def test_turn_latency(corpus):
    d, g = corpus
    out = cv.turn_latency(d)
    assert compare_rows(out, duckdb.connect().execute(cv.turn_latency_sql(g)).df())
    # opening turn of every conversation carries the -1 sentinel
    first = out[out.turn_idx == 0]
    assert (first.gap_us == -1).all()
    assert (out[out.turn_idx > 0].gap_us >= 0).all()


def test_tool_usage(corpus):
    d, g = corpus
    out = cv.tool_usage(d)
    assert compare_rows(out, duckdb.connect().execute(cv.tool_usage_sql(g)).df())
    assert "" not in set(out.tool)


def test_role_transitions(corpus):
    d, g = corpus
    out = cv.role_transitions(d)
    assert compare_rows(out, duckdb.connect().execute(cv.role_transitions_sql(g)).df())
    # transitions count: (turns - 1) per conversation, summed
    stats = cv.conv_stats(d)
    assert out.n_transitions.sum() == (stats.n_turns - 1).sum()


def test_conv_fingerprints(corpus):
    d, g = corpus
    out = cv.conv_fingerprints(d)
    assert compare_rows(out, duckdb.connect().execute(cv.conv_fingerprints_sql(g)).df())
    # every conversation accounted for exactly once
    stats = cv.conv_stats(d)
    assert out.n_convs.sum() == len(stats)


def test_conv_fingerprints_detects_planted_duplicate(ray_session, tmp_path):
    """Two conversations with identical turn-ordered text collapse to
    one fingerprint group regardless of shard placement or ts/role."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    shards = tmp_path / "shards"
    shards.mkdir()
    ts = pd.Timestamp("2025-01-01").value // 1000

    def shard(path, conv, texts, role="user"):
        pq.write_table(
            pa.table(
                {
                    "conv_id": [conv] * len(texts),
                    "turn_idx": pa.array(range(len(texts)), pa.int32()),
                    "role": [role] * len(texts),
                    "text": texts,
                    "tool": [""] * len(texts),
                    "ts": pa.array([ts + i for i in range(len(texts))], pa.timestamp("us")),
                }
            ),
            path,
        )

    shard(shards / "a.parquet", "conv-a", ["hello", "world"])
    shard(shards / "b.parquet", "conv-b", ["hello", "world"], role="assistant")
    shard(shards / "c.parquet", "conv-c", ["hello", "mars"])

    out = cv.conv_fingerprints(str(tmp_path))
    assert len(out) == 2
    dup = out[out.n_convs == 2]
    assert len(dup) == 1 and dup.iloc[0].first_conv == "conv-a"


def test_conv_extract_stats_matches_golden_oracle(ray_session):
    """The per-conversation rollup of the extraction output matches
    DuckDB aggregating the frozen golden parquet."""
    import __ray_entry__ as entry

    mine = entry.queries()["conv_extract_stats"]("/root/testdata/sf0.01")
    sql = entry.oracle_sql()["conv_extract_stats"]
    oracle = duckdb.connect().execute(sql).fetchdf()
    cols = sorted(mine.columns)
    assert cols == sorted(oracle.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = oracle[cols].sort_values(cols).reset_index(drop=True)
    assert len(a) == len(b) > 0
    for c in cols:
        assert a[c].tolist() == b[c].tolist(), f"column {c} differs"
    # consistency with the raw-table rollup: same turn totals per conv
    stats = cv.conv_stats(ensure_corpus("t2"))
    merged = a.merge(stats[["conv_id", "n_turns"]], on="conv_id", suffixes=("", "_raw"))
    assert (merged.n_turns == merged.n_turns_raw).all()


def test_tool_latency_oracle(corpus):
    d, g = corpus
    got = cv.tool_latency(d)
    assert len(got) >= 1
    assert (got["max_latency_us"] <= got["sum_latency_us"]).all()
    assert compare_rows(got, duckdb.connect().execute(cv.tool_latency_sql(g)).df())
