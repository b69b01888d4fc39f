"""Batch-20 ops: TPC-H Q10/Q18 shapes, YoY growth."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_returned_customer_revenue_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        returned_customer_revenue,
        returned_customer_revenue_sql,
    )

    mine = returned_customer_revenue(SF)
    assert len(mine) == 20
    assert mine["revenue_cents"].is_monotonic_decreasing or (
        mine["revenue_cents"].diff().dropna() <= 0
    ).all()
    compare_twin(mine, con, returned_customer_revenue_sql())


def test_large_order_customers_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        large_order_customers,
        large_order_customers_sql,
    )

    mine = large_order_customers(SF)
    assert len(mine) > 0
    assert (mine["total_qty"] > 300).all()
    compare_twin(mine, con, large_order_customers_sql())


def test_large_order_customers_threshold_monotone(ray_session):
    from pdfrust_ray.pipelines.relational import large_order_customers

    lo = large_order_customers(SF, min_qty=250)
    hi = large_order_customers(SF, min_qty=350)
    assert set(hi["o_orderkey"]) <= set(lo["o_orderkey"])


def test_orders_yearly_growth_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        orders_yearly_growth,
        orders_yearly_growth_sql,
    )

    mine = orders_yearly_growth(SF)
    assert len(mine) >= 5  # multi-year history
    assert mine.iloc[0]["yoy_growth_ppm"] == 0  # first year has no prior
    assert (mine["yoy_growth_ppm"] != 0).any()
    compare_twin(mine, con, orders_yearly_growth_sql())
