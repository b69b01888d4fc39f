"""Batch-116: value quantization-grid audit, first-token census."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_value_quantization_audit_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        value_quantization_audit,
        value_quantization_audit_sql,
    )

    mine = value_quantization_audit(SF)
    compare_twin(mine, con, value_quantization_audit_sql())
    # misfit counts nest: not divisible by 5 implies not divisible by 10/100
    assert (mine["not_div_10"] >= mine["not_div_5"]).all()
    assert (mine["not_div_100"] >= mine["not_div_10"]).all()
    assert int(mine["n"].sum()) == con.execute("SELECT COUNT(*) FROM events").fetchone()[0]


def test_value_quantization_detects_planted_grid(ray_session, tmp_path):
    # plant a quarter-grid type: every value a multiple of 25 cents
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    n = 200
    rng = np.random.RandomState(7)
    t = pa.table(
        {
            "event_type": ["quarters"] * n + ["pennies"] * n,
            "value": np.concatenate(
                [rng.randint(1, 100, n) * 0.25, rng.randint(1, 10000, n) / 100.0]
            ),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    from pdfrust_ray.pipelines.relational import value_quantization_audit

    out = value_quantization_audit(str(tmp_path)).set_index("event_type")
    assert out.loc["quarters", "granularity_cents"] == 25
    assert out.loc["quarters", "not_div_25"] == 0


def test_doc_first_token_census_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        doc_first_token_census,
        doc_first_token_census_sql,
    )

    mine = doc_first_token_census(SF)
    compare_twin(mine, con, doc_first_token_census_sql())
    assert len(mine) <= 30
    assert (mine["n_docs"] >= 1).all()
    # census is ranked: counts non-increasing
    assert (mine["n_docs"].diff().dropna() <= 0).all()
