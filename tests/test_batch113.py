"""Batch-113: nation balance sheet, UTF-8 inflation censuses."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_nation_balance_sheet_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        nation_balance_sheet,
        nation_balance_sheet_sql,
    )

    mine = nation_balance_sheet(SF)
    compare_twin(mine, con, nation_balance_sheet_sql())
    # all 25 nations present even if a side is empty; totals reconcile
    assert len(mine) == con.execute("SELECT COUNT(*) FROM nation").fetchone()[0]
    assert int(mine["n_custs"].sum()) == con.execute(
        "SELECT COUNT(*) FROM customer"
    ).fetchone()[0]
    assert int(mine["n_supps"].sum()) == con.execute(
        "SELECT COUNT(*) FROM supplier"
    ).fetchone()[0]


def test_doc_utf8_inflation_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        doc_utf8_inflation,
        doc_utf8_inflation_sql,
    )

    mine = doc_utf8_inflation(SF)
    compare_twin(mine, con, doc_utf8_inflation_sql())
    assert (mine["total_bytes"] >= mine["total_chars"]).all()
    assert (mine["bytes_per_1k_chars"] >= 1000).all()


def test_turn_utf8_inflation_nonvacuous(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_unicode_fixture
    from pdfrust_ray.pipelines.conversation import (
        turn_utf8_inflation,
        turn_utf8_inflation_sql,
    )

    corpus = ensure_unicode_fixture()
    mine = turn_utf8_inflation(corpus)
    con = duckdb.connect()
    compare_twin(mine, con, turn_utf8_inflation_sql(f"{corpus}/shards/*.parquet"))
    # the planted-unicode fixture must actually exercise the multibyte path
    assert int(mine["n_multibyte_turns"].sum()) > 0
    assert int((mine["total_bytes"] - mine["total_chars"]).sum()) > 0
