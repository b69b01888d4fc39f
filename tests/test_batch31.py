"""Batch-31 ops: co-purchase pairs, repeat-interval histogram,
autocorrelation stats, salted join, erasure sweep."""

import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_part_copurchase_pairs_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        part_copurchase_pairs,
        part_copurchase_pairs_sql,
    )

    mine = part_copurchase_pairs(SF)
    assert len(mine) == 20
    assert (mine["p_a"] < mine["p_b"]).all()
    assert (mine["n_orders"].diff().dropna() <= 0).all()
    compare_twin(mine, con, part_copurchase_pairs_sql())


def test_orders_repeat_interval_histogram_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        orders_repeat_interval_histogram,
        orders_repeat_interval_histogram_sql,
    )

    mine = orders_repeat_interval_histogram(SF)
    assert len(mine) > 3
    # total gaps == orders - distinct customers with orders
    n_orders = con.execute("SELECT COUNT(*) FROM orders").fetchone()[0]
    n_cust = con.execute("SELECT COUNT(DISTINCT o_custkey) FROM orders").fetchone()[0]
    assert mine["n_gaps"].sum() == n_orders - n_cust
    compare_twin(mine, con, orders_repeat_interval_histogram_sql())


def test_daily_count_autocorr_stats_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        daily_count_autocorr_stats,
        daily_count_autocorr_stats_sql,
    )

    mine = daily_count_autocorr_stats(SF)
    assert list(mine["lag"]) == [1, 2, 3, 4, 5, 6, 7]
    # events cover one month: lag-k pair count = observed days - k
    assert (mine["n_pairs"].diff().dropna() == -1).all()
    compare_twin(mine, con, daily_count_autocorr_stats_sql())


def test_salted_repartition_join_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        salted_repartition_join,
        salted_repartition_join_sql,
    )

    mine = salted_repartition_join(SF)
    # sf0.001 has only 15 event users -> 4 of 5 segments reached
    assert 4 <= len(mine) <= 5
    assert mine["n_events"].sum() > 0
    compare_twin(mine, con, salted_repartition_join_sql())


def test_salted_join_matches_unsalted_broadcast(ray_session):
    """The salt rewrite must be a pure repartitioning trick: results
    identical to the plain broadcast join aggregation."""
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.relational import salted_repartition_join

    mine = salted_repartition_join(SF, n_salts=4)
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    cu = pq.read_table(f"{SF}/customer.parquet").to_pandas()
    j = ev.merge(cu, left_on="user_id", right_on="c_custkey")
    j["cents"] = (j["value"] * 100).round().astype("int64")
    exp = (
        j.groupby("c_mktsegment")
        .agg(n_events=("cents", "size"), total_value_cents=("cents", "sum"))
        .reset_index()
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(mine, exp, check_dtype=False)


def test_erasure_sweep_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import erasure_sweep, erasure_sweep_sql

    mine = erasure_sweep(SF)
    total_events = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    kept = mine["n_rows"].sum()
    assert 0 < kept < total_events  # something deleted, something kept
    compare_twin(mine, con, erasure_sweep_sql())


def test_erasure_sweep_removes_every_subject_row(ray_session, con):
    """No row of any erased subject survives, and no non-subject row is
    touched — the compliance invariant."""
    from pdfrust_ray.pipelines.datasetops import erasure_sweep

    mine = erasure_sweep(SF, min_errors=20)
    exp = con.execute(
        """
        SELECT event_type, COUNT(*) AS n FROM events
        WHERE user_id NOT IN (SELECT user_id FROM events
                              WHERE event_type = 'error'
                              GROUP BY 1 HAVING COUNT(*) >= 20)
        GROUP BY 1 ORDER BY 1
        """
    ).fetchdf()
    assert list(mine["n_rows"]) == list(exp["n"])
