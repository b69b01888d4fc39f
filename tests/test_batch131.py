"""Batch-131: weekday-peer extremes, customer growth bands."""

import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_weekday_extremes_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import weekday_extremes, weekday_extremes_sql

    mine = weekday_extremes(SF)
    compare_twin(mine, con, weekday_extremes_sql())
    assert len(mine) == 7 and set(mine["dow"]) == set(range(1, 8))
    assert (mine["min_n"] <= mine["max_n"]).all()
    # the extreme days really belong to their weekday cohort
    assert (pd.to_datetime(mine["min_day"]).dt.dayofweek + 1 == mine["dow"]).all()
    assert (pd.to_datetime(mine["max_day"]).dt.dayofweek + 1 == mine["dow"]).all()


def test_customer_growth_bands_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        customer_growth_bands,
        customer_growth_bands_sql,
    )

    mine = customer_growth_bands(SF)
    compare_twin(mine, con, customer_growth_bands_sql())
    # covers exactly the repeat customers
    repeats = con.execute(
        "SELECT COUNT(*) FROM (SELECT o_custkey FROM orders GROUP BY 1 HAVING COUNT(*) >= 2)"
    ).fetchone()[0]
    assert int(mine["n_customers"].sum()) == repeats
    # band 0 means last within [1x, 2x) of first — must exist on real data
    assert 0 in set(mine["band"])


def test_growth_band_formula(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    # plant: flat (10 -> 10, band 0), doubled (10 -> 20, band 1),
    # halved (20 -> 10, band -1), 5x (10 -> 50, band 2)
    t = pa.table(
        {
            "o_custkey": [1, 1, 2, 2, 3, 3, 4, 4],
            "o_orderkey": [1, 2, 3, 4, 5, 6, 7, 8],
            "o_orderdate": pa.array(
                [pd.Timestamp("2024-01-01") + pd.Timedelta(days=i) for i in range(8)],
                pa.timestamp("us"),
            ),
            "o_totalprice": [10.0, 10.0, 10.0, 20.0, 20.0, 10.0, 10.0, 50.0],
        }
    )
    pq.write_table(t, str(tmp_path / "orders.parquet"))
    from pdfrust_ray.pipelines.relational import customer_growth_bands

    out = customer_growth_bands(str(tmp_path)).set_index("band")["n_customers"]
    assert out.to_dict() == {0: 1, 1: 1, -1: 1, 2: 1}
