"""Batch-32 ops: CDC apply, MAD outliers, inactivity churn, CUSUM
curve, token-lang chi-square."""

import pytest
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_cdc_apply_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import cdc_apply, cdc_apply_sql

    mine = cdc_apply(SF)
    # survivors + deleted == distinct keys in the changelog
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert mine["n_users"].sum() <= n_users
    compare_twin(mine, con, cdc_apply_sql())


def test_cdc_apply_last_op_wins(ray_session, con):
    """A user whose final op is a delete must not survive."""
    from pdfrust_ray.pipelines.relational import cdc_apply

    deleted = con.execute(
        """
        WITH last AS (
            SELECT user_id, event_type,
                   ROW_NUMBER() OVER (PARTITION BY user_id
                                      ORDER BY ts DESC, event_id DESC) AS rn
            FROM events)
        SELECT COUNT(*) FROM last WHERE rn = 1 AND event_type = 'error'
        """
    ).fetchone()[0]
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    mine = cdc_apply(SF)
    assert mine["n_users"].sum() == n_users - deleted


def test_orders_mad_outliers_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        orders_mad_outliers,
        orders_mad_outliers_sql,
    )

    mine = orders_mad_outliers(SF)
    assert len(mine) == 5  # all five priorities
    n_orders = con.execute("SELECT COUNT(*) FROM orders").fetchone()[0]
    assert mine["n_orders"].sum() == n_orders
    assert (mine["n_outliers"] <= mine["n_orders"]).all()
    compare_twin(mine, con, orders_mad_outliers_sql())


def test_exact_quantile_disc_matches_duckdb(ray_session, con):
    """The distributed selection helper hits DuckDB quantile_disc at
    several quantiles, including rank-1 and rank-n edges."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from pdfrust_ray.pipelines.relational import _cents, _exact_quantile_disc

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({"c": _cents(t["o_totalprice"])})

    base = rd.read_parquet(
        f"{SF}/orders.parquet", columns=["o_totalprice"]
    ).map_batches(cents, batch_format="pyarrow")
    for q in (0.01, 0.25, 0.5, 0.9, 1.0):
        exp = con.execute(
            f"SELECT quantile_disc(CAST(ROUND(o_totalprice*100) AS BIGINT), {q}) FROM orders"
        ).fetchone()[0]
        assert _exact_quantile_disc(base, q) == exp, q


def test_user_inactivity_churn_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_inactivity_churn,
        user_inactivity_churn_sql,
    )

    mine = user_inactivity_churn(SF)
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert mine["n_users"].sum() == n_users
    assert (mine["recency_band"] >= 0).all()
    compare_twin(mine, con, user_inactivity_churn_sql())


def test_daily_revenue_cusum_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        daily_revenue_cusum,
        daily_revenue_cusum_sql,
    )

    mine = daily_revenue_cusum(SF)
    # CUSUM is anchored: S_D = D*total - D*total = 0
    assert int(mine["s_scaled"].iloc[-1]) == 0
    assert mine["day"].is_monotonic_increasing
    compare_twin(mine, con, daily_revenue_cusum_sql())


def test_token_lang_chi2_oracle(ray_session, con):
    from pdfrust_ray.pipelines.textops import token_lang_chi2, token_lang_chi2_sql

    mine = token_lang_chi2(SF)
    assert (mine["chi2"] >= 0).all()
    # presence counts bounded by the lang doc totals
    r = dict(
        con.execute("SELECT lang, COUNT(*) FROM documents GROUP BY 1").fetchall()
    )
    assert (mine["n_docs"] <= mine["lang"].map(r)).all()
    compare_twin(mine, con, token_lang_chi2_sql())


def test_token_lang_chi2_independence_identity(ray_session):
    """On a synthetic 2x2 with known counts the statistic equals the
    textbook value — guards the a/b/c/d wiring, not just oracle parity."""
    # a=30 docs of lang X with token, r=50 lang-X docs, t=40 docs with
    # token overall, N=100: chi2 = N(ad-bc)^2/((a+b)(c+d)(a+c)(b+d))
    a, r, t, n = 30, 50, 40, 100
    b, c = r - a, t - a
    d = n - r - c
    expected = n * (a * d - b * c) ** 2 / ((a + b) * (c + d) * (a + c) * (b + d))
    assert expected == pytest.approx(100 * (30 * 40 - 20 * 10) ** 2 / (50 * 50 * 40 * 60))
