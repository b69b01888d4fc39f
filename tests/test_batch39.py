"""Batch-39 ops: mutual kNN degree histogram, purged/embargoed time
split, event-behaviour set algebra, ALL-quantifier big spenders."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_mutual_knn_degree_oracle(ray_session, con):
    from pdfrust_ray.stages.similarity import mutual_knn_degree, mutual_knn_degree_sql

    mine = mutual_knn_degree(SF)
    n_vec = con.execute("SELECT COUNT(*) FROM embeddings").fetchone()[0]
    # histogram covers every vector exactly once, degrees within 0..k
    assert int(mine["n_vectors"].sum()) == n_vec
    assert mine["degree"].between(0, 5).all()
    compare_twin(mine, con, mutual_knn_degree_sql())


def test_mutual_knn_mutuality_invariant(ray_session, con):
    """Mutual edge count from the degree histogram must be an integer
    number of edges: sum(degree * n_vectors) is even (every edge adds
    1 to two nodes)."""
    from pdfrust_ray.stages.similarity import mutual_knn_degree

    mine = mutual_knn_degree(SF)
    assert int((mine["degree"] * mine["n_vectors"]).sum()) % 2 == 0


def test_time_embargo_split_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        time_embargo_split,
        time_embargo_split_sql,
    )

    mine = time_embargo_split(SF)
    # all three buckets exist on the Jan-2024 fixture and partition events
    assert list(mine["split"]) == ["embargo", "test", "train"]
    n_events = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    assert int(mine["n_events"].sum()) == n_events
    # embargo window is [cutoff-2d, cutoff): strictly fewer than train
    row = mine.set_index("split")
    assert row.loc["embargo", "n_events"] < row.loc["train", "n_events"]
    compare_twin(mine, con, time_embargo_split_sql())


def test_event_type_user_sets_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        event_type_user_sets,
        event_type_user_sets_sql,
    )

    mine = event_type_user_sets(SF)
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert int(mine["n_users"].sum()) == n_users
    compare_twin(mine, con, event_type_user_sets_sql())


def test_consistent_big_spenders_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        consistent_big_spenders,
        consistent_big_spenders_sql,
    )

    mine = consistent_big_spenders(SF)
    compare_twin(mine, con, consistent_big_spenders_sql())


def test_consistent_big_spenders_all_quantifier(ray_session, con):
    """Every selected customer's MIN order must strictly beat the
    segment mean — cross-check one segment by brute force in pandas."""
    from pdfrust_ray.pipelines.relational import consistent_big_spenders

    mine = consistent_big_spenders(SF)
    df = con.execute(
        """SELECT c_mktsegment AS seg, o_custkey,
                  CAST(ROUND(o_totalprice*100) AS BIGINT) AS cents
           FROM orders JOIN customer ON c_custkey = o_custkey"""
    ).fetchdf()
    seg_sum = df.groupby("seg")["cents"].sum()
    seg_n = df.groupby("seg")["cents"].count()
    per = df.groupby(["seg", "o_custkey"])["cents"].agg(["min", "sum"])
    for seg in seg_sum.index:
        sub = per.loc[seg]
        keep = sub["min"] * seg_n[seg] > seg_sum[seg]
        exp_n, exp_rev = int(keep.sum()), int(sub.loc[keep, "sum"].sum())
        row = mine[mine["c_mktsegment"] == seg]
        if exp_n == 0:
            assert row.empty
        else:
            assert int(row["n_customers"].iloc[0]) == exp_n
            assert int(row["revenue_cents"].iloc[0]) == exp_rev
