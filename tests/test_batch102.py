"""Batch-102: homoglyph audit, LRU hit replay, greedy vocab coverage."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_homoglyph_oracle_and_planted_signal(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_homoglyph_fixture
    from pdfrust_ray.pipelines.conversation import (
        turn_homoglyph_audit,
        turn_homoglyph_audit_sql,
    )

    base = ensure_homoglyph_fixture()
    mine = turn_homoglyph_audit(base)
    compare_twin(mine, duckdb.connect(), turn_homoglyph_audit_sql(f"{base}/shards/*.parquet"))
    # mixed tokens are planted; pure-script tokens must never be flagged
    assert int(mine["n_mixed_tokens"].sum()) > 0
    assert int(mine["n_cyrillic_tokens"].sum()) > 0
    assert int(mine["n_greek_tokens"].sum()) > 0
    # python recount over the raw shards
    import re

    import pyarrow.dataset as pads

    t = pads.dataset(f"{base}/shards").to_table()
    lat, cyr, grk = re.compile(r"[A-Za-z]"), re.compile(r"[Ѐ-ӿ]"), re.compile(r"[Ͱ-Ͽ]")
    mixed = 0
    for s in t["text"].to_pylist():
        for tok in s.split():
            if lat.search(tok) and (cyr.search(tok) or grk.search(tok)):
                mixed += 1
    assert int(mine["n_mixed_tokens"].sum()) == mixed


def test_lru_oracle_and_simulator_equivalence(ray_session, con):
    from pdfrust_ray.pipelines.relational import user_lru_hit_audit, user_lru_hit_audit_sql

    mine = user_lru_hit_audit(SF)
    compare_twin(mine, con, user_lru_hit_audit_sql())
    assert (mine["n_hits"] + mine["n_cold"] <= mine["n_accesses"]).all()
    assert int(mine["n_hits"].sum()) > 0
    # the stack-distance criterion equals a REAL LRU simulator
    rows = con.execute(
        """SELECT user_id, CAST(json_extract_string(props,'$.k') AS BIGINT)
           FROM events ORDER BY user_id, ts, event_id"""
    ).fetchall()
    from collections import OrderedDict, defaultdict

    streams = defaultdict(list)
    for u, it in rows:
        streams[u].append(it)
    m = mine.set_index("user_id")
    checked = 0
    for u, items in list(streams.items())[:25]:
        cache: OrderedDict = OrderedDict()
        hits = 0
        for it in items:
            if it in cache:
                hits += 1
                cache.move_to_end(it)
            else:
                cache[it] = True
                if len(cache) > 8:
                    cache.popitem(last=False)
        assert int(m.loc[u, "n_hits"]) == hits, u
        checked += 1
    assert checked == min(25, len(streams)) and checked > 0


def test_vocab_cover_greedy_step_optimality(ray_session, con):
    from pdfrust_ray.pipelines.llmdata import vocab_cover_greedy

    mine = vocab_cover_greedy(SF, k=5)
    assert len(mine) == 5
    # gains are non-increasing (submodularity of coverage)
    assert (mine["gain"].diff().fillna(0) <= 0).all()
    assert (mine["covered_total"].diff().fillna(mine["covered_total"].iloc[0]) ==
            mine["gain"]).all()
    # brute-force certificate: replay greedy over all docs
    docs = con.execute("SELECT doc_id, text FROM documents ORDER BY doc_id").fetchall()
    vocabs = {}
    for d, txt in docs:
        ws = txt.split()
        vocabs[int(d)] = {f"{a} {b}" for a, b in zip(ws, ws[1:])}
    covered: set = set()
    for _, r in mine.iterrows():
        best = max(
            vocabs.items(),
            key=lambda kv: (len(kv[1] - covered), -kv[0]),
        )
        assert int(r["doc_id"]) == best[0]
        assert int(r["gain"]) == len(best[1] - covered)
        covered |= best[1]
        assert int(r["covered_total"]) == len(covered)
