"""Batch-57: conversation tool diversity, first-touch event types."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_conv_tool_diversity_oracle(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        conv_tool_diversity,
        conv_tool_diversity_sql,
    )

    d = ensure_corpus("t1")
    mine = conv_tool_diversity(d)
    con = duckdb.connect()
    compare_twin(mine, con, conv_tool_diversity_sql(f"{d}/shards/*.parquet"))
    n_convs = con.execute(
        f"SELECT COUNT(DISTINCT conv_id) FROM read_parquet('{d}/shards/*.parquet')"
    ).fetchone()[0]
    assert int(mine["n_convs"].sum()) == n_convs


def test_first_event_type_counts_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        first_event_type_counts,
        first_event_type_counts_sql,
    )

    mine = first_event_type_counts(SF)
    compare_twin(mine, con, first_event_type_counts_sql())
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert int(mine["n_users"].sum()) == n_users
