"""Batch-130: delimiter balance audit, dialogue-shape census."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_bracket_balance_audit_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        bracket_balance_audit,
        bracket_balance_audit_sql,
    )

    mine = bracket_balance_audit(SF)
    compare_twin(mine, con, bracket_balance_audit_sql())
    assert int(mine["n_docs"].sum()) == con.execute(
        "SELECT COUNT(*) FROM documents"
    ).fetchone()[0]
    for c in ("n_paren_bad", "n_bracket_bad", "n_quote_odd"):
        assert (mine[c] <= mine["n_docs"]).all()


def test_bracket_balance_planted(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "source": ["s"] * 4,
            "text": [
                "fine (a) [b] \"c\" \"d\"",   # balanced
                "broken ( paren",             # paren bad
                "broken [ bracket ( too )",   # bracket bad
                'one " quote',                # odd quotes
            ],
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    from pdfrust_ray.pipelines.relational import bracket_balance_audit

    out = bracket_balance_audit(str(tmp_path)).iloc[0]
    assert out["n_docs"] == 4
    assert out["n_paren_bad"] == 1
    assert out["n_bracket_bad"] == 1
    assert out["n_quote_odd"] == 1


def test_conv_shape_census_oracle(ray_session):
    from __ray_entry__ import _scale_for
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        conv_shape_census,
        conv_shape_census_sql,
    )

    corpus = ensure_corpus(_scale_for(SF))
    mine = conv_shape_census(corpus)
    con = duckdb.connect()
    compare_twin(mine, con, conv_shape_census_sql(f"{corpus}/shards/*.parquet"))
    # every shape starts with a user turn in this corpus and counts rank
    assert (mine["shape"].str[0] == "u").all()
    assert (mine["n_convs"].diff().dropna() <= 0).all()
