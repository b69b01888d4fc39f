"""Batch-40 ops: supplier runner-up gap (top-2 window), same-day
repeat orders, daily growth accounting, chunk-level dedup histogram."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_supplier_runnerup_gap_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        supplier_runnerup_gap,
        supplier_runnerup_gap_sql,
    )

    mine = supplier_runnerup_gap(SF)
    assert (mine["gap_cents"] >= 0).all()
    assert (mine["best_suppkey"] != mine["runnerup_suppkey"]).all()
    # gaps arrive widest-first
    assert (np.diff(mine["gap_cents"].to_numpy()) <= 0).all()
    compare_twin(mine, con, supplier_runnerup_gap_sql())


def test_same_day_repeat_orders_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        same_day_repeat_orders,
        same_day_repeat_orders_sql,
    )

    mine = same_day_repeat_orders(SF)
    # every repeat cell carries at least one surplus order
    assert (mine["n_extra_orders"] >= mine["n_repeat_cells"]).all()
    compare_twin(mine, con, same_day_repeat_orders_sql())


def test_user_lifecycle_daily_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_lifecycle_daily,
        user_lifecycle_daily_sql,
    )

    mine = user_lifecycle_daily(SF)
    assert set(mine["state"]) <= {"new", "retained", "resurrected", "churned"}
    # total 'new' across all days == number of distinct users
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert int(mine.loc[mine["state"] == "new", "n_users"].sum()) == n_users
    compare_twin(mine, con, user_lifecycle_daily_sql())


def test_user_lifecycle_flow_conservation(ray_session, con):
    """active(d) = new + retained + resurrected; retained(d) =
    active(d-1) - churned(d). Check the ledger balances on every day."""
    from pdfrust_ray.pipelines.relational import user_lifecycle_daily

    mine = user_lifecycle_daily(SF)
    wide = (
        mine.pivot_table(index="d", columns="state", values="n_users", fill_value=0)
        .reindex(columns=["new", "retained", "resurrected", "churned"], fill_value=0)
        .sort_index()
    )
    active = wide["new"] + wide["retained"] + wide["resurrected"]
    act = con.execute(
        """SELECT CAST(ts AS DATE) AS d, COUNT(DISTINCT user_id) AS n
           FROM events GROUP BY 1 ORDER BY 1"""
    ).fetchdf()
    assert list(active.to_numpy()) == list(act["n"].to_numpy())
    # yesterday's actives either stay (retained) or churn
    prev_active = active.shift(1, fill_value=0)
    lhs = (wide["retained"] + wide["churned"]).to_numpy()[1:]
    assert (lhs == prev_active.to_numpy()[1:]).all()


def test_chunk_dedup_stats_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        chunk_dedup_stats,
        chunk_dedup_stats_sql,
        doc_chunks,
    )

    mine = chunk_dedup_stats(SF)
    # histogram mass == number of DISTINCT chunk hashes from doc_chunks
    chunks = doc_chunks(SF)
    assert int(mine["n_chunk_hashes"].sum()) == chunks["chunk_md5"].nunique()
    assert int((mine["dup_count"] * mine["n_chunk_hashes"]).sum()) == len(chunks)
    compare_twin(mine, con, chunk_dedup_stats_sql())
