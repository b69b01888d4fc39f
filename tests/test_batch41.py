"""Batch-41 ops: relational division, above-own-p95 exceedance,
role run-length histogram (gaps-and-islands on transcripts)."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_users_all_event_types_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        users_all_event_types,
        users_all_event_types_sql,
    )

    mine = users_all_event_types(SF)
    assert len(mine) == 1
    n = int(mine["n_users"].iloc[0])
    assert n > 0  # fixture has fully-activated users (non-vacuous)
    assert mine["min_user"].iloc[0] <= mine["max_user"].iloc[0]
    compare_twin(mine, con, users_all_event_types_sql())


def test_events_above_own_p95_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_above_own_p95,
        events_above_own_p95_sql,
    )

    mine = events_above_own_p95(SF)
    # strictly-above-p95_disc is < 5% of each user's events, so globally
    # n_above / n_events < 0.05 and both columns are positive
    assert (mine["n_above"] < mine["n_events"]).all()
    assert int(mine["n_above"].sum()) > 0
    total = int(mine["n_events"].sum())
    assert int(mine["n_above"].sum()) <= total * 0.05
    compare_twin(mine, con, events_above_own_p95_sql())


def test_role_run_lengths_oracle(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        role_run_lengths,
        role_run_lengths_sql,
    )

    d = ensure_corpus("t1")
    mine = role_run_lengths(d)
    con = duckdb.connect()
    compare_twin(mine, con, role_run_lengths_sql(f"{d}/shards/*.parquet"))
    # run-length mass == total turns
    n_turns = con.execute(
        f"SELECT COUNT(*) FROM read_parquet('{d}/shards/*.parquet')"
    ).fetchone()[0]
    assert int((mine["run_len"] * mine["n_runs"]).sum()) == n_turns
