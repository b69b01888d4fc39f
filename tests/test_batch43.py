"""Batch-43: exact distributed NTILE(10) decile transition matrix
(coarse-histogram order-statistic selection, no global sort)."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_customer_decile_transition_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        customer_decile_transition,
        customer_decile_transition_sql,
    )

    mine = customer_decile_transition(SF)
    compare_twin(mine, con, customer_decile_transition_sql())
    # matrix mass == customers active in BOTH years
    both = con.execute(
        """SELECT COUNT(*) FROM (
             SELECT o_custkey FROM orders GROUP BY 1
             HAVING COUNT(DISTINCT year(o_orderdate))
                    >= 2 AND SUM(CASE WHEN year(o_orderdate)=1997 THEN 1 ELSE 0 END) > 0
                    AND SUM(CASE WHEN year(o_orderdate)=1998 THEN 1 ELSE 0 END) > 0)"""
    ).fetchone()[0]
    assert int(mine["n_customers"].sum()) == both
    assert mine["decile_1997"].between(1, 10).all()
    assert mine["decile_1998"].between(1, 10).all()


def test_ntile_boundaries_match_window(ray_session, con):
    """The distributed selection must reproduce NTILE's uneven-bucket
    rule exactly: per-1997-decile populations equal DuckDB's."""
    from pdfrust_ray.pipelines.relational import customer_decile_transition

    mine = customer_decile_transition(SF)
    pops = mine.groupby("decile_1997")["n_customers"].sum()
    exp = con.execute(
        """WITH t AS (
             SELECT o_custkey AS c, year(o_orderdate) AS y,
                    SUM(CAST(ROUND(o_totalprice*100) AS BIGINT)) AS cents
             FROM orders WHERE year(o_orderdate) IN (1997, 1998) GROUP BY 1,2
           ), d AS (
             SELECT c, y, NTILE(10) OVER (PARTITION BY y ORDER BY cents, c) AS dec
             FROM t
           )
           SELECT a.dec, COUNT(*) FROM d a JOIN d b
             ON a.c = b.c AND a.y = 1997 AND b.y = 1998
           GROUP BY 1 ORDER BY 1"""
    ).fetchall()
    assert dict(pops) == {k: v for k, v in exp}
