"""Batch-54: cross-table order price reconciliation."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_order_price_reconciliation_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        order_price_reconciliation,
        order_price_reconciliation_sql,
    )

    mine = order_price_reconciliation(SF)
    compare_twin(mine, con, order_price_reconciliation_sql())
    row = mine.iloc[0]
    # every order with line items is audited
    n = con.execute("SELECT COUNT(DISTINCT l_orderkey) FROM lineitem").fetchone()[0]
    assert int(row["n_orders"]) == n
    assert 0 <= int(row["n_exact"]) <= n
    if int(row["n_exact"]) == n:
        assert int(row["sum_absdiff_num"]) == 0
