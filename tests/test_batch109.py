"""Batch-109: late-ship EXISTS, impossible-ship audit, price spread."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_late_ship_orders_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import late_ship_orders, late_ship_orders_sql

    mine = late_ship_orders(SF)
    compare_twin(mine, con, late_ship_orders_sql())
    assert len(mine) > 0
    assert (mine["worst_late_days"] > 60).all()
    # the late-order total equals a direct EXISTS count
    n = con.execute(
        """SELECT COUNT(*) FROM orders o WHERE EXISTS (
               SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey
               AND DATEDIFF('day', o.o_orderdate, l.l_shipdate) > 60)"""
    ).fetchone()[0]
    assert int(mine["n_late_orders"].sum()) == n > 0


def test_impossible_ship_audit_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        impossible_ship_audit,
        impossible_ship_audit_sql,
    )

    mine = impossible_ship_audit(SF)
    compare_twin(mine, con, impossible_ship_audit_sql())
    assert len(mine) > 0
    assert (mine["worst_lag_days"] < 0).all()
    # distinct orders never exceed row count
    assert (mine["n_bad_orders"] <= mine["n_bad_rows"]).all()


def test_impossible_ship_distinct_exact_across_batches(ray_session, con):
    """The two-level groupby makes the distinct-order count exact even
    when one order's lineitems land in different read batches."""
    from pdfrust_ray.pipelines.relational import impossible_ship_audit

    mine = impossible_ship_audit(SF)
    odf = con.execute(
        """SELECT o_orderstatus, COUNT(DISTINCT l_orderkey) n
           FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
           WHERE l_shipdate < o_orderdate GROUP BY 1 ORDER BY 1"""
    ).fetchdf()
    assert mine["n_bad_orders"].tolist() == odf["n"].tolist()


def test_part_supplier_price_spread_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        part_supplier_price_spread,
        part_supplier_price_spread_sql,
    )

    mine = part_supplier_price_spread(SF)
    compare_twin(mine, con, part_supplier_price_spread_sql())
    assert len(mine) > 0
    assert (mine["spread_c"] == mine["max_unit_c"] - mine["min_unit_c"]).all()
    assert (mine["n_suppliers"] >= 2).all()
    # floor-exact unit price spot check for the widest-spread part
    pk = int(mine["l_partkey"].iloc[0])
    rows = con.execute(
        f"""SELECT SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT))
                   // SUM(CAST(l_quantity AS BIGINT))
            FROM lineitem WHERE l_partkey = {pk} GROUP BY l_suppkey"""
    ).fetchall()
    units = sorted(int(r[0]) for r in rows)
    assert int(mine["min_unit_c"].iloc[0]) == units[0]
    assert int(mine["max_unit_c"].iloc[0]) == units[-1]
