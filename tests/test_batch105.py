"""Batch-105: invisible chars, trailing digits, tool bursts."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_invisible_oracle_and_planted_salt(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_invisible_fixture
    from pdfrust_ray.pipelines.conversation import (
        turn_invisible_chars_audit,
        turn_invisible_chars_audit_sql,
    )

    base = ensure_invisible_fixture()
    mine = turn_invisible_chars_audit(base)
    compare_twin(
        mine, duckdb.connect(), turn_invisible_chars_audit_sql(f"{base}/shards/*.parquet")
    )
    assert int(mine["n_salted_turns"].sum()) > 0
    assert int(mine["n_zero_width"].sum()) > 0
    assert int(mine["n_soft_hyphen"].sum()) > 0
    assert int(mine["n_nbsp"].sum()) > 0
    # salted turns never exceed total turns; codepoint counts only live
    # inside salted turns
    assert (mine["n_salted_turns"] <= mine["n_turns"]).all()


def test_invisible_dedup_poison_demo(ray_session):
    """The audit's motivation: salted and clean twins differ in bytes
    but not visibly — exact dedup by md5 misses them."""
    import hashlib

    a = "hyphenation"
    b = "hy­phen­ation"
    assert a != b
    assert hashlib.md5(a.encode()).hexdigest() != hashlib.md5(b.encode()).hexdigest()
    import re

    assert re.sub("[​‌‍﻿­]", "", b) == a


def test_trailing_digit_oracle_and_identity(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        value_trailing_digit_audit,
        value_trailing_digit_audit_sql,
    )

    mine = value_trailing_digit_audit(SF)
    compare_twin(mine, con, value_trailing_digit_audit_sql())
    assert (mine["n_cells_hit"] <= 100).all()
    assert (mine["max_cell"] >= mine["min_cell"]).all()
    # chi-square numerator identity on a python recount for one type
    t0 = mine.iloc[0]["event_type"]
    cents = [
        int(r[0])
        for r in con.execute(
            "SELECT CAST(ROUND(value*100) AS BIGINT) FROM events WHERE event_type=?",
            [t0],
        ).fetchall()
    ]
    from collections import Counter

    obs = Counter(c % 100 for c in cents)
    n = len(cents)
    chi = sum((obs.get(d, 0) * 100 - n) ** 2 for d in range(100))
    assert int(mine.iloc[0]["chi2_numerator"]) == chi


def test_tool_burst_oracle_and_window_semantics(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import conv_tool_burst, conv_tool_burst_sql

    base = ensure_corpus("t1")
    mine = conv_tool_burst(base)
    compare_twin(mine, duckdb.connect(), conv_tool_burst_sql(f"{base}/shards/*.parquet"))
    assert (mine["max_burst"] <= mine["n_tool_turns"]).all()
    assert (mine["max_burst"] <= 10).all()
    assert int(mine["n_tool_turns"].sum()) > 0
