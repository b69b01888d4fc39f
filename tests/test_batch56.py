"""Batch-56: assistant response-length drift, vocabulary nucleus."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_assistant_drift_oracle(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import assistant_drift, assistant_drift_sql

    d = ensure_corpus("t1")
    mine = assistant_drift(d)
    assert (mine["drift"] == mine["last_len"] - mine["first_len"]).all()
    con = duckdb.connect()
    compare_twin(mine, con, assistant_drift_sql(f"{d}/shards/*.parquet"))
    # every conv with an assistant turn appears exactly once
    n = con.execute(
        f"""SELECT COUNT(DISTINCT conv_id) FROM read_parquet('{d}/shards/*.parquet')
            WHERE role = 'assistant'"""
    ).fetchone()[0]
    assert len(mine) == n


def test_token_nucleus_share_oracle(ray_session, con):
    from pdfrust_ray.pipelines.llmdata import (
        token_nucleus_share,
        token_nucleus_share_sql,
    )

    mine = token_nucleus_share(SF)
    compare_twin(mine, con, token_nucleus_share_sql())
    row = mine.iloc[0]
    # nucleus covers >= 90% and is minimal
    assert int(row["nucleus_tokens"]) * 10 >= int(row["n_tokens_total"]) * 9
    assert int(row["n_types_nucleus"]) <= int(row["n_types_total"])
