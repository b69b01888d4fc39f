"""Batch-107: composed extraction-output metrics vs golden oracle."""

import duckdb
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def entry():
    import __ray_entry__

    return __ray_entry__


def _cmp(mine, sql):
    odf = duckdb.connect().execute(sql).fetchdf()
    mine = mine[sorted(mine.columns)].reset_index(drop=True)
    odf = odf[sorted(odf.columns)].reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, odf, check_dtype=False)


def test_extracted_metrics_match_golden(ray_session, entry):
    q = entry.queries()
    o = entry.oracle_sql()
    for key in ("extracted_dup_census", "extracted_len_profile", "extracted_token_stats"):
        mine = q[key]("/root/testdata/sf0.01")
        _cmp(mine, o[key])


def test_dup_census_semantics(ray_session, entry):
    mine = entry.queries()["extracted_dup_census"]("/root/testdata/sf0.01")
    # dup turns only exist where distinct < total
    assert (mine["n_dup_turns"] <= mine["n_turns"]).all()
    assert ((mine["n_distinct_texts"] < mine["n_turns"])
            == (mine["n_dup_turns"] > 0)).all()
    assert set(mine["payload_kind"]) >= {"plain", "html", "pdf"}
