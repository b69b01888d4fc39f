"""Batch-115: event-type RLE census, region x year market mix."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_user_type_run_histogram_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_type_run_histogram,
        user_type_run_histogram_sql,
    )

    mine = user_type_run_histogram(SF)
    compare_twin(mine, con, user_type_run_histogram_sql())
    # run lengths weighted by count reconcile with total events
    assert int((mine["run_len"] * mine["n_runs"]).sum()) == con.execute(
        "SELECT COUNT(*) FROM events"
    ).fetchone()[0]
    assert (mine["run_len"] >= 1).all()


def test_region_year_order_matrix_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        region_year_order_matrix,
        region_year_order_matrix_sql,
    )

    mine = region_year_order_matrix(SF)
    compare_twin(mine, con, region_year_order_matrix_sql())
    # every order lands in exactly one cell (all customers have nations)
    assert int(mine["n_orders"].sum()) == con.execute(
        "SELECT COUNT(*) FROM orders"
    ).fetchone()[0]
    # per-year shares recompute exactly
    tot = mine.groupby("year")["revenue_cents"].transform("sum")
    assert (
        mine["year_share_ppm"] == mine["revenue_cents"] * 1_000_000 // tot
    ).all()
