"""Batch-117: T5 span-mask budget plan, cross-conv turn duplicates."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_t5_span_mask_plan_oracle(ray_session, con):
    from pdfrust_ray.pipelines.textops import t5_span_mask_plan, t5_span_mask_plan_sql

    mine = t5_span_mask_plan(SF)
    compare_twin(mine, con, t5_span_mask_plan_sql())
    # invariants of the plan arithmetic
    m = mine[mine["n_tokens"] >= 2]
    assert (m["n_masked"] >= 1).all() and (m["n_masked"] < m["n_tokens"]).all()
    assert (m["n_spans"] >= 1).all() and (m["n_spans"] <= m["n_masked"]).all()
    assert (m["enc_len"] == m["n_tokens"] - m["n_masked"] + m["n_spans"]).all()
    assert (m["dec_len"] == m["n_masked"] + m["n_spans"] + 1).all()


def test_cross_conv_turn_dups_oracle(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_forks_fixture
    from pdfrust_ray.pipelines.conversation import (
        cross_conv_turn_dups,
        cross_conv_turn_dups_sql,
    )

    forks = ensure_forks_fixture()
    mine = cross_conv_turn_dups(forks)
    con = duckdb.connect()
    compare_twin(mine, con, cross_conv_turn_dups_sql(f"{forks}/shards/*.parquet"))
    # the forks fixture plants shared prefixes: spread must be non-vacuous
    assert len(mine) > 0
    assert int(mine["n_convs"].max()) >= 2
    assert (mine["n_occurrences"] >= mine["n_convs"]).all()
