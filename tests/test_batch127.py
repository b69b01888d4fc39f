"""Batch-127: exact-integer MIPS top-k, line-number contiguity audit."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_mips_topk_oracle(ray_session, con):
    from pdfrust_ray.stages.similarity import mips_topk, mips_topk_sql

    mine = mips_topk(SF)
    compare_twin(mine, con, mips_topk_sql())
    # k results per query, ranks dense, self excluded
    assert (mine.groupby("query_id").size() == 10).all()
    assert (mine["vec_id"] != mine["query_id"]).all()
    # scores non-increasing within each query
    for _, g in mine.groupby("query_id"):
        assert (g["dot_q"].diff().dropna() <= 0).all()


def test_mips_differs_from_cosine_ranking(ray_session):
    # MIPS ranks by raw dot product; cosine divides by norms — on
    # un-normalized vectors the two top-k sets generally differ,
    # which is the whole reason the op exists
    from pdfrust_ray.stages.similarity import brute_force_topk, mips_topk

    m = mips_topk(SF).groupby("query_id")["vec_id"].apply(set)
    c = brute_force_topk(SF).groupby("query_id")["vec_id"].apply(set)
    common = set(m.index) & set(c.index)
    assert common
    assert any(m[q] != c[q] for q in common)


def test_linenumber_contiguity_audit_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        linenumber_contiguity_audit,
        linenumber_contiguity_audit_sql,
    )

    mine = linenumber_contiguity_audit(SF)
    compare_twin(mine, con, linenumber_contiguity_audit_sql())
    assert int(mine["n_orders"].sum()) == con.execute(
        "SELECT COUNT(DISTINCT l_orderkey) FROM lineitem"
    ).fetchone()[0]


def test_linenumber_fingerprint_on_planted(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "l_orderkey": [1, 1, 1, 2, 2, 3, 3, 4],
            # 1: contiguous 1..3; 2: starts at 2; 3: gap (1,3); 4: single ok
            "l_linenumber": [1, 2, 3, 2, 3, 1, 3, 1],
        }
    )
    pq.write_table(t, str(tmp_path / "lineitem.parquet"))
    from pdfrust_ray.pipelines.relational import linenumber_contiguity_audit

    out = linenumber_contiguity_audit(str(tmp_path)).set_index("verdict")
    assert out.loc["contiguous", "n_orders"] == 2
    assert out.loc["bad_start", "n_orders"] == 1
    assert out.loc["bad_span", "n_orders"] == 1
