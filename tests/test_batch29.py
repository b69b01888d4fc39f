"""Batch-29 ops: partitioned sink round-trip, ANN recall report,
assistant grounding panel."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_partitioned_write_pruned_read_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        partitioned_write_pruned_read,
        partitioned_write_pruned_read_sql,
    )

    mine = partitioned_write_pruned_read(SF)
    assert mine.iloc[0]["n_rows"] > 0
    compare_twin(mine, con, partitioned_write_pruned_read_sql())


def test_partitioned_layout_is_per_key(ray_session):
    # one directory per event_type, only parquet inside
    import os

    from pdfrust_ray.pipelines.datasetops import partitioned_write_pruned_read

    partitioned_write_pruned_read(SF)  # ensure layout
    base = "/tmp/pdfrust_ray_hivepart_sf0.001"
    dirs = sorted(d for d in os.listdir(base) if d.startswith("event_type="))
    assert dirs == [
        "event_type=click", "event_type=error", "event_type=purchase",
        "event_type=signup", "event_type=view",
    ]


def test_ann_recall_report(ray_session):
    from pdfrust_ray.stages.similarity import ann_recall_report

    mine = ann_recall_report(SF)
    assert len(mine) == 5
    assert (mine["n_hit"] <= mine["k"]).all()
    # measured recall at the fixture's probe settings stays high
    assert (mine["recall_ppm"] >= 800_000).all()
    # self-vector is always found -> at least one hit
    assert (mine["n_hit"] >= 1).all()


def test_assistant_length_by_tool_context_oracle(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        assistant_length_by_tool_context,
        assistant_length_by_tool_context_sql,
    )

    d = ensure_corpus("t1")
    mine = assistant_length_by_tool_context(d)
    assert set(mine["after_tool"]) == {False, True}
    c = duckdb.connect()
    compare_twin(
        mine, c, assistant_length_by_tool_context_sql(f"{d}/shards/*.parquet")
    )
