"""Batch-136: turn-format classifier census."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_turn_format_census_oracle(ray_session):
    from __ray_entry__ import _scale_for
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        turn_format_census,
        turn_format_census_sql,
    )

    corpus = ensure_corpus(_scale_for(SF))
    mine = turn_format_census(corpus)
    con = duckdb.connect()
    compare_twin(mine, con, turn_format_census_sql(f"{corpus}/shards/*.parquet"))
    assert set(mine["format"]) <= {"code", "list", "question", "prose"}
    tot = mine.groupby("role")["n_turns"].transform("sum")
    assert (mine["role_share_ppm"] == mine["n_turns"] * 1_000_000 // tot).all()


def test_format_cascade_planted(ray_session, tmp_path):
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(tmp_path / "shards", exist_ok=True)
    t = pa.table(
        {
            "role": ["assistant"] * 5,
            "text": [
                "here is code ```py\nx=1``` done?",  # code wins over question
                "- first\n- second?",                 # list wins over question
                "prefix\n- bullet",                   # newline list
                "is this a question?",                # question
                "plain prose here",                   # prose
            ],
        }
    )
    pq.write_table(t, str(tmp_path / "shards" / "part-0.parquet"))
    from pdfrust_ray.pipelines.conversation import turn_format_census

    out = turn_format_census(str(tmp_path)).set_index("format")["n_turns"]
    assert out.to_dict() == {"code": 1, "list": 2, "question": 1, "prose": 1}
