"""Batch-133: per-brand integer regression, weekday concentration bands."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_brand_price_size_regression_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        brand_price_size_regression,
        brand_price_size_regression_sql,
    )

    mine = brand_price_size_regression(SF)
    compare_twin(mine, con, brand_price_size_regression_sql())
    # the data has both positive and negative slopes, which exercises
    # the floor-vs-truncate division divergence the SQL must mirror
    assert (mine["slope_num"] > 0).any() and (mine["slope_num"] < 0).any()
    # variance denominator is strictly positive for multi-size brands
    assert (mine["slope_den"] > 0).all()
    # floor identity recomputes
    assert (
        mine["slope_mcents_per_unit"]
        == mine["slope_num"] * 1000 // mine["slope_den"]
    ).all()


def test_user_dow_concentration_bands_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_dow_concentration_bands,
        user_dow_concentration_bands_sql,
    )

    mine = user_dow_concentration_bands(SF)
    compare_twin(mine, con, user_dow_concentration_bands_sql())
    assert int(mine["n_users"].sum()) == con.execute(
        "SELECT COUNT(DISTINCT user_id) FROM events"
    ).fetchone()[0]
    # a top-weekday share is always >= 1/7 -> band >= 1
    assert (mine["band"] >= 1).all()
    assert mine["band"].between(0, 9).all()
