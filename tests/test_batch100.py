"""Batch-100: Neyman allocation, Hoover index, FD discovery."""

import math

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_neyman_oracle_and_properties(ray_session, con):
    from pdfrust_ray.pipelines.relational import neyman_allocation, neyman_allocation_sql

    mine = neyman_allocation(SF)
    compare_twin(mine, con, neyman_allocation_sql())
    # seats sum exactly to the budget
    assert int(mine["alloc"].sum()) == 1000
    # proportionality: alloc within 1 of the exact fractional share
    W = int(mine["weight"].sum())
    for _, r in mine.iterrows():
        frac = 1000 * int(r["weight"]) / W
        assert abs(int(r["alloc"]) - frac) < 1.0
    # weight is the exact isqrt of the integer variance numerator
    rows = con.execute(
        """SELECT event_type, COUNT(*) n, SUM(x) sx,
                  SUM(CAST(x AS HUGEINT)*x) sxx
           FROM (SELECT event_type, CAST(ROUND(value*100) AS BIGINT) x
                 FROM events) GROUP BY 1 ORDER BY 1"""
    ).fetchall()
    by = mine.set_index("event_type")
    for t, n, sx, sxx in rows:
        assert int(by.loc[t, "weight"]) == math.isqrt(int(n) * int(sxx) - int(sx) ** 2)


def test_hoover_oracle_and_bounds(ray_session, con):
    from pdfrust_ray.pipelines.relational import type_hoover_index, type_hoover_index_sql

    mine = type_hoover_index(SF)
    compare_twin(mine, con, type_hoover_index_sql())
    # 0 <= H < 1 and exact-integer recount for one type
    assert (mine["hoover_num"] >= 0).all()
    assert (mine["hoover_num"] < mine["hoover_den"]).all()
    t0 = mine.iloc[0]["event_type"]
    xs = [
        int(r[0])
        for r in con.execute(
            "SELECT CAST(ROUND(value*100) AS BIGINT) FROM events WHERE event_type = ?",
            [t0],
        ).fetchall()
    ]
    n, sx = len(xs), sum(xs)
    assert int(mine.iloc[0]["hoover_num"]) == sum(abs(n * x - sx) for x in xs)
    assert int(mine.iloc[0]["hoover_den"]) == 2 * n * sx


def test_fd_oracle_and_key_discovery(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import fd_discovery_audit, fd_discovery_audit_sql

    mine = fd_discovery_audit(SF)
    compare_twin(mine, con, fd_discovery_audit_sql())
    by = mine.set_index(["tbl", "lhs", "rhs"])
    # o_orderkey is a true key: the FD holds with fanout exactly 1
    assert int(by.loc[("orders", "o_orderkey", "o_custkey"), "holds"]) == 1
    assert int(by.loc[("orders", "o_orderkey", "o_custkey"), "max_fanout"]) == 1
    # multi-line orders violate l_orderkey -> l_partkey
    assert int(by.loc[("lineitem", "l_orderkey", "l_partkey"), "holds"]) == 0
    assert int(by.loc[("lineitem", "l_orderkey", "l_partkey"), "max_fanout"]) > 1
    # n_lhs equals the distinct lhs count
    n = con.execute("SELECT COUNT(DISTINCT o_custkey) FROM orders").fetchone()[0]
    assert int(by.loc[("orders", "o_custkey", "o_orderstatus"), "n_lhs"]) == n
