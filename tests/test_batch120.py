"""Batch-120: shard-percentile bias audit, per-type peak hour."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_percentile_stitch_bias_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        percentile_stitch_bias_audit,
        percentile_stitch_bias_audit_sql,
    )

    mine = percentile_stitch_bias_audit(SF)
    compare_twin(mine, con, percentile_stitch_bias_audit_sql())
    # the audit only teaches something if the naive estimator is
    # actually biased somewhere on this data
    assert (mine["bias_cents"] != 0).any()
    assert (
        mine["bias_cents"]
        == mine["naive_median_cents"] - mine["true_median_cents"]
    ).all()


def test_percentile_stitch_true_median_is_exact(ray_session, con):
    from pdfrust_ray.pipelines.relational import percentile_stitch_bias_audit

    mine = percentile_stitch_bias_audit(SF).set_index("event_type")
    # independent check of the lower median for one type
    rows = con.execute(
        "SELECT CAST(ROUND(value*100) AS BIGINT) FROM events WHERE event_type='click' ORDER BY 1"
    ).fetchall()
    vals = [r[0] for r in rows]
    k = (len(vals) + 1) // 2
    assert mine.loc["click", "true_median_cents"] == vals[k - 1]


def test_events_type_peak_hour_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_type_peak_hour,
        events_type_peak_hour_sql,
    )

    mine = events_type_peak_hour(SF)
    compare_twin(mine, con, events_type_peak_hour_sql())
    assert mine["peak_hour"].between(0, 23).all()
    assert (mine["n_peak"] <= mine["type_total"]).all()
    # peak share can never be below the uniform share floor
    assert (mine["peak_share_ppm"] >= 1_000_000 // 24).all()
