"""Batch-11 ops: distributed MERGE INTO, label-centroid similarity
profile, data-contract validation."""

import numpy as np
import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_merge_upsert_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import merge_upsert, merge_upsert_sql

    mine = merge_upsert(SF)
    compare_twin(mine, con, merge_upsert_sql())


def test_merge_upsert_row_accounting(ray_session, con):
    # merged cardinality = base - deletes + inserts, independent of SQL
    from pdfrust_ray.pipelines.datasetops import merge_upsert

    mine = merge_upsert(SF)
    n_base, n_del, n_ins = con.execute(
        """SELECT SUM(CASE WHEN event_id % 4 != 3 THEN 1 ELSE 0 END),
                  SUM(CASE WHEN event_id % 4 != 3 AND event_id % 10 = 5
                           THEN 1 ELSE 0 END),
                  SUM(CASE WHEN event_id % 4 = 3 THEN 1 ELSE 0 END)
           FROM events"""
    ).fetchone()
    assert int(mine["n_rows"].sum()) == n_base - n_del + n_ins
    # updates must actually change the sum (doubling strictly increases it)
    plain = con.execute(
        """SELECT CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT)
           FROM events
           WHERE (event_id % 4 != 3 AND event_id % 10 != 5) OR event_id % 4 = 3"""
    ).fetchone()[0]
    assert int(mine["sum_value_cents"].sum()) > plain


def test_label_centroid_profile_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        label_centroid_profile,
        label_centroid_profile_sql,
    )

    mine = label_centroid_profile(SF)
    n_labels = con.execute("SELECT COUNT(DISTINCT label) FROM embeddings").fetchone()[0]
    assert len(mine) == n_labels * (n_labels + 1) // 2
    compare_twin(mine, con, label_centroid_profile_sql())


def test_label_centroid_profile_diagonal_dominance(ray_session):
    # self-dot is a sum of squares: strictly positive on the fixture,
    # and each diagonal cell exceeds the magnitude-typical off-diagonal
    # (labels are distinct clusters in the fixture)
    from pdfrust_ray.pipelines.relational import label_centroid_profile

    mine = label_centroid_profile(SF)
    diag = mine[mine.label_a == mine.label_b]
    off = mine[mine.label_a != mine.label_b]
    assert (diag["dot_q"] > 0).all()
    assert diag["dot_q"].min() > off["dot_q"].abs().median()


def test_label_centroid_profile_batch_invariance(ray_session):
    # partial fold must be batch-size independent (exact integer sums)
    import ray.data as rd

    from pdfrust_ray.pipelines import relational as rel

    base = rel.label_centroid_profile(SF)
    orig = rd.read_parquet

    def small_read(path, **kw):
        return orig(path, override_num_blocks=7, **kw)

    rel.rd.read_parquet = small_read
    try:
        again = rel.label_centroid_profile(SF)
    finally:
        rel.rd.read_parquet = orig
    pd.testing.assert_frame_equal(base, again)


def test_contract_violations_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        contract_violations,
        contract_violations_sql,
    )

    mine = contract_violations(SF)
    compare_twin(mine, con, contract_violations_sql())


def test_contract_violations_semantics(ray_session):
    from pdfrust_ray.pipelines.relational import contract_violations

    mine = contract_violations(SF).set_index("rule")["n_bad"]
    assert mine["rows_checked"] == 1000
    # every individual rule fires on the fixture (non-vacuous audit)
    for rule in ("props_k_max", "ts_window", "type_enum", "value_range"):
        assert mine[rule] > 0
    # any_violation bounded by the union / max of the parts
    parts = mine[["props_k_max", "ts_window", "type_enum", "value_range"]]
    assert parts.max() <= mine["any_violation"] <= parts.sum()
    assert mine["any_violation"] < mine["rows_checked"]


def test_contract_violations_clean_table(ray_session, tmp_path):
    # a table satisfying the contract reports zero everywhere
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.relational import contract_violations

    t = pa.table(
        {
            "event_id": pa.array([1, 2], pa.int64()),
            "ts": pa.array(
                [
                    np.datetime64("2024-01-05T10:00:00", "us"),
                    np.datetime64("2024-01-20T11:00:00", "us"),
                ],
                pa.timestamp("us"),
            ),
            "user_id": pa.array([1, 2], pa.int64()),
            "event_type": ["click", "view"],
            "value": pa.array([10.0, 20.0], pa.float64()),
            "props": ['{"k": 5}', '{"k": 89}'],
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    mine = contract_violations(str(tmp_path)).set_index("rule")["n_bad"]
    assert mine["rows_checked"] == 2
    assert mine.drop("rows_checked").sum() == 0
