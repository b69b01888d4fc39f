"""Batch-114: user-activity log2 bands, position-normalized role mix."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_user_activity_log2_bands_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_activity_log2_bands,
        user_activity_log2_bands_sql,
    )

    mine = user_activity_log2_bands(SF)
    compare_twin(mine, con, user_activity_log2_bands_sql())
    # users and events both reconcile with the base table
    rows, users = con.execute(
        "SELECT COUNT(*), COUNT(DISTINCT user_id) FROM events"
    ).fetchone()
    assert int(mine["n_users"].sum()) == users
    assert int(mine["n_events"].sum()) == rows
    # band edges nest: every band's user count fits its [lo, hi] range
    assert (mine["hi_events"] == mine["lo_events"] * 2 - 1).all()


def test_conv_position_role_mix_oracle(ray_session):
    from __ray_entry__ import _scale_for
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        conv_position_role_mix,
        conv_position_role_mix_sql,
    )

    corpus = ensure_corpus(_scale_for(SF))
    mine = conv_position_role_mix(corpus)
    con = duckdb.connect()
    compare_twin(mine, con, conv_position_role_mix_sql(f"{corpus}/shards/*.parquet"))
    # thirds are 0..2 (turn_idx is 0-based) and every third is populated
    assert set(mine["third"].unique()) == {0, 1, 2}
    # per-third shares recompute exactly
    tot = mine.groupby("third")["n_turns"].transform("sum")
    assert (mine["third_share_ppm"] == mine["n_turns"] * 1_000_000 // tot).all()
