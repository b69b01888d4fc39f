"""Batch-21 ops: embedding label outliers, supplier catalog coverage,
dow x type lift."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_embedding_label_outliers_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        embedding_label_outliers,
        embedding_label_outliers_sql,
    )

    mine = embedding_label_outliers(SF)
    n_labels = con.execute("SELECT COUNT(DISTINCT label) FROM embeddings").fetchone()[0]
    assert len(mine) == 3 * n_labels
    compare_twin(mine, con, embedding_label_outliers_sql())


def test_embedding_label_outliers_are_minima(ray_session):
    from pdfrust_ray.pipelines.relational import embedding_label_outliers

    mine = embedding_label_outliers(SF)
    g = mine[mine["rank"] == 1]
    assert len(g) == mine["label"].nunique()
    # within the returned set, rank order matches score order
    for _, grp in mine.groupby("label"):
        assert grp.sort_values("rank")["score_q"].is_monotonic_increasing


def test_supplier_part_coverage_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        supplier_part_coverage,
        supplier_part_coverage_sql,
    )

    mine = supplier_part_coverage(SF)
    assert (mine["coverage_ppm"] <= 1_000_000).all()
    assert (mine["n_parts"] > 0).all()
    compare_twin(mine, con, supplier_part_coverage_sql())


def test_dow_type_lift_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import dow_type_lift, dow_type_lift_sql

    mine = dow_type_lift(SF)
    assert set(mine["dow"].unique()) <= set(range(7))
    assert int(mine["n_events"].sum()) == 1000
    # lift is centered around 1.0 (1e6 ppm): both sides occur
    assert (mine["lift_ppm"] > 1_000_000).any()
    assert (mine["lift_ppm"] < 1_000_000).any()
    compare_twin(mine, con, dow_type_lift_sql())
