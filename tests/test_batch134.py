"""Batch-134: dialogue motif census, order-status return-mix audit."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_conv_motif_census_oracle(ray_session):
    from __ray_entry__ import _scale_for
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        conv_motif_census,
        conv_motif_census_sql,
    )

    corpus = ensure_corpus(_scale_for(SF))
    mine = conv_motif_census(corpus)
    con = duckdb.connect()
    compare_twin(mine, con, conv_motif_census_sql(f"{corpus}/shards/*.parquet"))
    m = mine.set_index("motif")["n_convs"]
    # subsequence containment nests: u.*a.*t implies u.*a (not checked
    # directly) but uat and uta both imply a tool turn exists
    assert m["uat"] >= 0 and m["aa"] > 0
    # a conversation with 'tat' necessarily has 'tt'
    assert m["tt"] >= m["tat"]


def test_motif_semantics_planted():
    # pure-python cross-check of the regexes on hand shapes
    import re

    from pdfrust_ray.pipelines.conversation import _MOTIFS

    pats = dict(_MOTIFS)
    assert re.search(pats["uat"], "uaat")
    assert re.search(pats["uat"], "uxaxt".replace("x", "u"))
    assert not re.search(pats["uat"], "uta")  # order matters
    assert re.search(pats["tat"], "tuat")
    assert not re.search(pats["tt"], "utau")


def test_order_status_return_mix_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        order_status_return_mix,
        order_status_return_mix_sql,
    )

    mine = order_status_return_mix(SF)
    compare_twin(mine, con, order_status_return_mix_sql())
    # every order with lineitems lands in exactly one mix cell
    assert int(mine["n_orders"].sum()) == con.execute(
        "SELECT COUNT(DISTINCT l_orderkey) FROM lineitem"
    ).fetchone()[0]
    # per-status shares recompute
    tot = mine.groupby("o_orderstatus")["n_orders"].transform("sum")
    assert (mine["status_share_ppm"] == mine["n_orders"] * 1_000_000 // tot).all()
