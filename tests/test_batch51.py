"""Batch-51: top-p nucleus audience per event type."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_revenue_nucleus_users_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        revenue_nucleus_users,
        revenue_nucleus_users_sql,
    )

    mine = revenue_nucleus_users(SF)
    assert (mine["n_users_nucleus"] <= mine["n_users_total"]).all()
    assert (mine["n_users_nucleus"] >= 1).all()
    compare_twin(mine, con, revenue_nucleus_users_sql())


def test_nucleus_minimality(ray_session, con):
    """The chosen prefix covers >= 90%; one user fewer covers < 90%."""
    from pdfrust_ray.pipelines.relational import revenue_nucleus_users

    mine = revenue_nucleus_users(SF)
    df = con.execute(
        """SELECT event_type, user_id,
                  SUM(CAST(ROUND(value*100) AS BIGINT)) cents
           FROM events GROUP BY 1, 2"""
    ).fetchdf()
    for _, row in mine.iterrows():
        g = df[df["event_type"] == row["event_type"]].sort_values(
            ["cents", "user_id"], ascending=[False, True], kind="mergesort"
        )
        c = g["cents"].to_numpy(np.int64)
        k, total = int(row["n_users_nucleus"]), int(c.sum())
        assert c[:k].sum() * 10 >= total * 9
        if k > 1:
            assert c[: k - 1].sum() * 10 < total * 9
