"""Batch-135: Hill tail-index estimator with quantized log terms."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_value_tail_hill_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import value_tail_hill, value_tail_hill_sql

    mine = value_tail_hill(SF)
    compare_twin(mine, con, value_tail_hill_sql())
    assert (mine["k"] == 64).all()
    assert (mine["sum_lnratio_nano"] > 0).all()
    # alpha recomputes from the folded integers
    assert (
        mine["alpha_milli"]
        == (mine["k"] - 1) * 1_000_000_000 * 1000 // mine["sum_lnratio_nano"]
    ).all()


def test_hill_estimator_on_planted_pareto(ray_session, tmp_path):
    # exact Pareto(alpha=2) quantiles: x_i = xm * (n/i)^(1/alpha);
    # Hill on the top-k of that grid must recover alpha ~ 2
    import pyarrow as pa
    import pyarrow.parquet as pq

    n, alpha, xm = 2000, 2.0, 10.0
    vals = [xm * (n / i) ** (1.0 / alpha) for i in range(1, n + 1)]
    t = pa.table(
        {
            "event_id": list(range(n)),
            "event_type": ["pareto"] * n,
            "value": vals,
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    from pdfrust_ray.pipelines.relational import value_tail_hill

    out = value_tail_hill(str(tmp_path)).iloc[0]
    # Hill over deterministic Pareto quantiles: within 15% of truth
    assert 1700 <= out["alpha_milli"] <= 2300
