"""Batch-103: table stats profile, Belady OPT audit, shard-spread census."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_table_stats_oracle_and_consistency(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import table_stats_profile, table_stats_profile_sql

    mine = table_stats_profile(SF)
    compare_twin(mine, con, table_stats_profile_sql())
    assert len(mine) == 10
    assert (mine["n_distinct"] <= mine["n_rows"]).all()
    assert (mine["n_null"] == 0).all()  # fixtures carry no nulls
    # these stats feed the cardinality estimator: spot-check one
    n = con.execute("SELECT COUNT(DISTINCT event_type) FROM events").fetchone()[0]
    by = mine.set_index(["tbl", "col"])
    assert int(by.loc[("events", "event_type"), "n_distinct"]) == n


def test_belady_theorem_and_simulators(ray_session, con):
    from pdfrust_ray.pipelines.relational import belady_opt_cache_audit, user_lru_hit_audit

    mine = belady_opt_cache_audit(SF)
    # OPT dominates LRU everywhere (Belady optimality)
    assert (mine["opt_hits"] >= mine["lru_hits"]).all()
    assert (mine["opt_gap"] == mine["opt_hits"] - mine["lru_hits"]).all()
    # LRU column agrees with the oracled LRU query
    lru = user_lru_hit_audit(SF).set_index("user_id")
    m = mine.set_index("user_id")
    assert (m["lru_hits"] == lru.loc[m.index, "n_hits"]).all()
    assert (m["n_cold"] == lru.loc[m.index, "n_cold"]).all()
    # independent OPT simulator (linear scan eviction) on a few users
    rows = con.execute(
        """SELECT user_id, CAST(json_extract_string(props,'$.k') AS BIGINT)
           FROM events ORDER BY user_id, ts, event_id"""
    ).fetchall()
    from collections import defaultdict

    streams = defaultdict(list)
    for u, it in rows:
        streams[u].append(it)
    for u, items in list(streams.items())[:10]:
        n = len(items)
        cache: set = set()
        hits = 0
        for i, it in enumerate(items):
            if it in cache:
                hits += 1
                continue
            if len(cache) >= 8:
                # evict the member with the farthest next use
                far, victim = -1, None
                for c in cache:
                    try:
                        nu = items.index(c, i + 1)
                    except ValueError:
                        nu = n
                    if nu > far or (nu == far and (victim is None or c < victim)):
                        far, victim = nu, c
                cache.remove(victim)
            cache.add(it)
        assert int(m.loc[u, "opt_hits"]) == hits, u


def test_shard_spread_oracle_and_scatter(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        conv_shard_spread_audit,
        conv_shard_spread_audit_sql,
    )

    base = ensure_corpus("t2")
    mine = conv_shard_spread_audit(base)
    compare_twin(mine, duckdb.connect(), conv_shard_spread_audit_sql(f"{base}/shards/*.parquet"))
    # t2 deliberately scatters: most conversations span >1 shard, so a
    # local per-shard sort could NOT produce stable turn ordering
    assert int(mine[mine["n_shards"] > 1]["n_convs"].sum()) > 0
    assert int(mine["n_convs"].sum()) == 200
    assert int(mine["n_turns"].sum()) == 2000
