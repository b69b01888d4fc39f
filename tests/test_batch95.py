"""Batch-95: turn encoding audit, payload sniff census, winsorization."""

import duckdb
import numpy as np
import pytest

from pdfrust_ray.fixtures.corpus import ensure_corpus
from tools.contract_check import compare_rows, compare_twin

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def corpus(ray_session):
    d = ensure_corpus("t1")
    return d, f"{d}/shards/*.parquet"


def test_encoding_audit_oracle_and_python_recount(corpus):
    from pdfrust_ray.pipelines.conversation import (
        turn_encoding_audit,
        turn_encoding_audit_sql,
    )

    d, g = corpus
    mine = turn_encoding_audit(d)
    assert compare_rows(mine, duckdb.connect().execute(turn_encoding_audit_sql(g)).df())
    # python recount for one conversation
    raw = duckdb.connect().execute(
        f"SELECT conv_id, text FROM read_parquet('{g}')"
    ).fetchdf()
    cid = mine["conv_id"].iloc[0]
    texts = raw[raw["conv_id"] == cid]["text"]
    na = sum(sum(1 for ch in s if ord(ch) > 127) for s in texts)
    ctl = sum(
        sum(1 for ch in s if ord(ch) < 32 and ch not in "\t\n\r") for s in texts
    )
    row = mine[mine["conv_id"] == cid].iloc[0]
    assert int(row["non_ascii_chars"]) == na
    assert int(row["control_chars"]) == ctl
    assert int(row["n_turns"]) == len(texts)
    assert int(row["max_turn_bytes"]) == max(len(s.encode()) for s in texts)
    # the pdf-payload corpus must show non-ascii content somewhere
    assert int(mine["non_ascii_chars"].sum()) > 0


def test_payload_sniff_oracle_and_kind_sanity(corpus):
    from pdfrust_ray.pipelines.conversation import (
        payload_sniff_stats,
        payload_sniff_stats_sql,
    )

    d, g = corpus
    mine = payload_sniff_stats(d)
    assert compare_rows(mine, duckdb.connect().execute(payload_sniff_stats_sql(g)).df())
    total = duckdb.connect().execute(
        f"SELECT COUNT(*) FROM read_parquet('{g}')"
    ).fetchone()[0]
    assert int(mine["n_turns"].sum()) == total
    kinds = set(mine["kind"])
    # the transcript corpus embeds PDF payloads and markup
    assert "pdf" in kinds and "prose" in kinds
    assert (mine["max_bytes"] <= mine["total_bytes"]).all()


def test_winsorize_oracle_and_bounds(ray_session, con):
    from pdfrust_ray.pipelines.relational import acctbal_winsorize, acctbal_winsorize_sql

    mine = acctbal_winsorize(SF)
    odf = compare_twin(mine, con, acctbal_winsorize_sql())
    assert mine["wins_bal"].tolist() == odf["wins_bal"].tolist()
    vals = np.sort(con.execute("SELECT c_acctbal FROM customer").fetchnumpy()["c_acctbal"])
    n = len(vals)
    lo = vals[max(1, -(-n * 5 // 100)) - 1]
    hi = vals[max(1, -(-n * 95 // 100)) - 1]
    assert mine["wins_bal"].min() == lo and mine["wins_bal"].max() == hi
    # clipped flags mark exactly the rows outside the bounds
    clipped = (mine["c_acctbal"] < lo) | (mine["c_acctbal"] > hi)
    assert (mine["clipped"].astype(bool) == clipped).all()
    # unclipped rows pass through untouched
    keep = ~clipped
    assert (mine.loc[keep, "wins_bal"] == mine.loc[keep, "c_acctbal"]).all()
    # roughly 10% of mass is clipped (order-stat bounds)
    assert 0 < int(mine["clipped"].sum()) <= n * 0.12 + 2
