"""Batch-53: sequential A/B lift curve, conversation abandonment."""

import duckdb
import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_experiment_lift_curve_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        experiment_lift,
        experiment_lift_curve,
        experiment_lift_curve_sql,
    )

    mine = experiment_lift_curve(SF)
    compare_twin(mine, con, experiment_lift_curve_sql())
    # cumulative columns are monotone per arm
    for v in ("A", "B"):
        sub = mine[mine["variant"] == v]
        assert (np.diff(sub["cum_purchases"].to_numpy()) >= 0).all()
        assert (np.diff(sub["cum_revenue_cents"].to_numpy()) >= 0).all()
    # the curve's final point equals the experiment_lift total readout
    final = mine[mine["d"] == mine["d"].max()].set_index("variant")
    lift = experiment_lift(SF).set_index("variant")
    for v in ("A", "B"):
        assert int(final.loc[v, "cum_purchases"]) == int(lift.loc[v, "n_purchases"])
        assert int(final.loc[v, "cum_revenue_cents"]) == int(lift.loc[v, "revenue_cents"])


def test_conv_abandonment_oracle(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import conv_abandonment, conv_abandonment_sql

    d = ensure_corpus("t1")
    mine = conv_abandonment(d)
    con = duckdb.connect()
    compare_twin(mine, con, conv_abandonment_sql(f"{d}/shards/*.parquet"))
    n_convs = con.execute(
        f"SELECT COUNT(DISTINCT conv_id) FROM read_parquet('{d}/shards/*.parquet')"
    ).fetchone()[0]
    assert int(mine["n_convs"].sum()) == n_convs
