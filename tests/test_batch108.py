"""Batch-108: protocol violations, Q11 important parts, idle gaps."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_protocol_violations_oracle(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        conv_protocol_violations,
        conv_protocol_violations_sql,
    )

    base = ensure_corpus("t1")
    mine = conv_protocol_violations(base)
    compare_twin(mine, duckdb.connect(), conv_protocol_violations_sql(f"{base}/shards/*.parquet"))
    assert (mine["n_same_role_runs"] < mine["n_turns"]).all()
    # the fixture's role grammar: user opens every conversation
    assert (mine["bad_opening"] == 0).all()


def test_q11_oracle_and_threshold(ray_session, con):
    from pdfrust_ray.pipelines.relational import important_parts_q11, important_parts_q11_sql

    mine = important_parts_q11(SF)
    compare_twin(mine, con, important_parts_q11_sql())
    assert len(mine) > 0
    # every kept part strictly exceeds the ppm threshold; shares are
    # floor-exact
    total = con.execute(
        "SELECT CAST(SUM(ROUND(l_extendedprice*100)) AS BIGINT) FROM lineitem"
    ).fetchone()[0]
    for _, r in mine.iterrows():
        assert int(r["revenue_cents"]) * 1_000_000 > total * 600
        assert int(r["share_ppm"]) == int(r["revenue_cents"]) * 1_000_000 // total
    # and no part below the threshold sneaks in: count matches oracle count
    n = con.execute(
        """SELECT COUNT(*) FROM (
               SELECT l_partkey, SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) rc
               FROM lineitem GROUP BY 1)
           WHERE rc * 1000000 > (SELECT SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT))
                                 FROM lineitem) * 600"""
    ).fetchone()[0]
    assert len(mine) == n


def test_idle_gaps_oracle_and_stitch(ray_session, con):
    from pdfrust_ray.pipelines.relational import events_idle_gaps_topk, events_idle_gaps_topk_sql

    mine = events_idle_gaps_topk(SF)
    compare_twin(mine, con, events_idle_gaps_topk_sql())
    assert len(mine) == 10
    assert (mine["gap_s"].diff().fillna(0) <= 0).all()
    assert (mine["end_s"] - mine["start_s"] == mine["gap_s"]).all()
    # top gap exceeds an hour-bucket width somewhere or not — either way
    # the python recount agrees
    ts = sorted(
        r[0]
        for r in con.execute("SELECT epoch_us(ts)//1000000 FROM events").fetchall()
    )
    gaps = sorted(
        ((b - a, a, b) for a, b in zip(ts, ts[1:])),
        key=lambda x: (-x[0], x[1]),
    )[:10]
    for (g, a, b), (_, r) in zip(gaps, mine.iterrows()):
        assert (int(r["gap_s"]), int(r["start_s"]), int(r["end_s"])) == (g, a, b)
