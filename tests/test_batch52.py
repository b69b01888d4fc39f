"""Batch-52: prefix-cluster survivorship dedup, per-user max drawdown."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_prefix_cluster_keep_best_oracle(ray_session, con):
    from pdfrust_ray.stages.dedup import (
        prefix_cluster_keep_best,
        prefix_cluster_keep_best_sql,
    )

    mine = prefix_cluster_keep_best(SF)
    assert (mine["dup_count"] >= 2).all()
    assert len(mine) > 0  # prefix clusters exist on the 31-token fixture
    compare_twin(mine, con, prefix_cluster_keep_best_sql())


def test_keep_best_policy(ray_session, con):
    """The kept doc must have the cluster's max quality; among equals
    the lowest doc_id."""
    from pdfrust_ray.stages.dedup import prefix_cluster_keep_best

    mine = prefix_cluster_keep_best(SF)
    df = con.execute(
        r"""SELECT doc_id,
                   md5(array_to_string(list_filter(string_split_regex(text, '\s+'),
                                                   w -> w <> '')[1:5], ' ')) ph,
                   len(list_distinct(list_filter(string_split_regex(text, '\s+'),
                                                 w -> w <> ''))) * 1000
                   // len(list_filter(string_split_regex(text, '\s+'),
                                      w -> w <> '')) qpm
            FROM documents
            WHERE len(list_filter(string_split_regex(text, '\s+'), w -> w <> '')) > 0"""
    ).fetchdf()
    for _, row in mine.head(5).iterrows():
        grp = df[df["ph"] == row["prefix_hash"]]
        best = grp.sort_values(["qpm", "doc_id"], ascending=[False, True]).iloc[0]
        assert int(row["kept_doc_id"]) == int(best["doc_id"])
        assert int(row["quality_pm"]) == int(best["qpm"])


def test_user_max_drawdown_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_max_drawdown,
        user_max_drawdown_sql,
    )

    mine = user_max_drawdown(SF)
    assert (mine["max_drawdown_cents"] >= 0).all()
    d = mine["max_drawdown_cents"].to_numpy()
    assert (np.diff(d) <= 0).all()  # ranked deepest-first
    compare_twin(mine, con, user_max_drawdown_sql())


def test_drawdown_brute_force_one_user(ray_session, con):
    from pdfrust_ray.pipelines.relational import user_max_drawdown

    mine = user_max_drawdown(SF, k=3)
    uid = int(mine["user_id"].iloc[0])
    df = con.execute(
        f"""SELECT CASE WHEN event_type='purchase'
                        THEN CAST(ROUND(value*100) AS BIGINT)
                        WHEN event_type='error'
                        THEN -CAST(ROUND(value*100) AS BIGINT) ELSE 0 END c
            FROM events WHERE user_id = {uid} ORDER BY ts, event_id"""
    ).fetchdf()
    run = df["c"].to_numpy(np.int64).cumsum()
    peak = np.maximum.accumulate(run)
    assert int(mine["max_drawdown_cents"].iloc[0]) == int((peak - run).max())
