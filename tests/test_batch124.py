"""Batch-124: cross-source contamination matrix, order-value sign test."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_cross_source_contamination_oracle(ray_session, con):
    from pdfrust_ray.pipelines.llmdata import (
        cross_source_contamination,
        cross_source_contamination_sql,
    )

    mine = cross_source_contamination(SF)
    compare_twin(mine, con, cross_source_contamination_sql())
    assert len(mine) > 0
    # pairs are canonical (a < b) and counts positive, ranked desc
    assert (mine["source_a"] < mine["source_b"]).all()
    assert (mine["shared_grams"] > 0).all()
    assert (mine["shared_grams"].diff().dropna() <= 0).all()


def test_cross_source_contamination_planted(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    # plant two sources sharing one exact sentence, a third disjoint
    shared = "alpha beta gamma delta epsilon zeta"
    t = pa.table(
        {
            "doc_id": [1, 2, 3],
            "source": ["sA", "sB", "sC"],
            "text": [shared, shared + " eta", "one two three four five six"],
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    from pdfrust_ray.pipelines.llmdata import cross_source_contamination

    out = cross_source_contamination(str(tmp_path))
    assert len(out) == 1
    row = out.iloc[0]
    # "alpha..zeta" has 2 distinct 5-grams, both shared
    assert (row["source_a"], row["source_b"]) == ("sA", "sB")
    assert row["shared_grams"] == 2


def test_order_value_sign_test_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        order_value_sign_test,
        order_value_sign_test_sql,
    )

    mine = order_value_sign_test(SF)
    compare_twin(mine, con, order_value_sign_test_sql())
    r = mine.iloc[0]
    assert r["n_pairs"] == r["n_up"] + r["n_down"] + r["n_tie"]
    # pairs = orders - customers-with-orders
    orders, custs = con.execute(
        "SELECT COUNT(*), COUNT(DISTINCT o_custkey) FROM orders"
    ).fetchone()
    assert r["n_pairs"] == orders - custs
