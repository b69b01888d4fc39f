"""Batch-19 ops: RRF hybrid fusion, catalog integrity, keyed
pseudonymization, distribution-similarity matrix."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_ann_rrf_fusion_oracle(ray_session, con):
    from pdfrust_ray.stages.similarity import ann_rrf_fusion, ann_rrf_fusion_sql

    mine = ann_rrf_fusion(SF)
    assert len(mine) == 25  # 5 queries x k=5
    # a doc ranked #1 by BOTH systems gets the max possible score
    top_both = 2 * int(1_000_000.0 / 61 + 0.5)
    assert mine["rrf_micro"].max() <= top_both
    firsts = mine[mine["rank"] == 1]
    assert (firsts["rrf_micro"] == top_both).all()  # self-vector tops both
    compare_twin(mine, con, ann_rrf_fusion_sql())


def test_catalog_integrity_report_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        catalog_integrity_report,
        catalog_integrity_report_sql,
    )

    mine = catalog_integrity_report(SF)
    assert len(mine) == 9
    assert (mine["n_rows"] > 0).all()
    compare_twin(mine, con, catalog_integrity_report_sql())


def test_pseudonymize_users_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import pseudonymize_users, pseudonymize_users_sql

    mine = pseudonymize_users(SF)
    # bijective relabeling: pseudonym count == user count, and the
    # multiset of per-key counts is preserved
    per_user = con.execute(
        "SELECT COUNT(*) AS n FROM events GROUP BY user_id ORDER BY n"
    ).fetchdf()["n"].tolist()
    assert len(mine) == len(per_user)
    assert sorted(mine["n_events"].tolist()) == per_user
    compare_twin(mine, con, pseudonymize_users_sql())


def test_pseudonymize_users_salt_changes_tokens(ray_session):
    from pdfrust_ray.pipelines.relational import pseudonymize_users

    a = pseudonymize_users(SF, salt="pepper-v1")
    b = pseudonymize_users(SF, salt="pepper-v2")
    assert set(a["pseudonym"]) != set(b["pseudonym"])
    assert sorted(a["n_events"]) == sorted(b["n_events"])


def test_type_value_similarity_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        type_value_similarity,
        type_value_similarity_sql,
    )

    mine = type_value_similarity(SF)
    assert len(mine) == 15  # 5 types -> upper triangle incl. diagonal
    diag = mine[mine.type_a == mine.type_b]
    off = mine[mine.type_a != mine.type_b]
    # self-intersection is ~1 (only ppm truncation below), others less
    assert (diag["intersection_ppm"] >= 999_000).all()
    assert (off["intersection_ppm"] < diag["intersection_ppm"].min()).all()
    compare_twin(mine, con, type_value_similarity_sql())
