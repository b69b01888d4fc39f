"""Batch-44 ops: dyadic time-decay scoring, Herfindahl concentration."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_recency_weighted_user_scores_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        recency_weighted_user_scores,
        recency_weighted_user_scores_sql,
    )

    mine = recency_weighted_user_scores(SF)
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert len(mine) == min(20, n_users)
    # scores arrive in strictly ranked order and are positive ints
    assert (mine["decay_score_q30"] > 0).all()
    d = mine["decay_score_q30"].to_numpy()
    assert all(
        (d[i] > d[i + 1])
        or (d[i] == d[i + 1] and mine["user_id"][i] < mine["user_id"][i + 1])
        for i in range(len(d) - 1)
    )
    compare_twin(mine, con, recency_weighted_user_scores_sql())


def test_recency_decay_semantics(ray_session, con):
    """A same-cents event k days older must weigh exactly 2^-k as much:
    verify the q30 fixed-point against a hand-computed user."""
    from pdfrust_ray.pipelines.relational import recency_weighted_user_scores

    mine = recency_weighted_user_scores(SF, k=5)
    uid = int(mine["user_id"].iloc[0])
    exp = con.execute(
        f"""SELECT SUM(CAST(ROUND(value*100) AS BIGINT)
                       * CAST(POWER(2, 31 - date_diff('day', CAST(ts AS DATE),
                                                      DATE '2024-01-31')) AS BIGINT))
            FROM events WHERE user_id = {uid}"""
    ).fetchone()[0]
    assert int(mine["decay_score_q30"].iloc[0]) == exp


def test_supplier_part_herfindahl_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        supplier_part_herfindahl,
        supplier_part_herfindahl_sql,
    )

    mine = supplier_part_herfindahl(SF)
    # HHI of an n-supplier part lies in [10^6/n, 10^6)
    assert (mine["hhi_ppm"] < 1_000_000).all()
    assert (mine["hhi_ppm"] * mine["n_suppliers"] >= 1_000_000 - mine["n_suppliers"]).all()
    compare_twin(mine, con, supplier_part_herfindahl_sql())
