"""Batch-94: JSON props audit, quantile normalization, DFT periodogram."""

import json

import numpy as np
import pandas as pd
import pytest
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_props_audit_oracle_and_python_json(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        event_props_json_audit,
        event_props_json_audit_sql,
    )

    mine = event_props_json_audit(SF)
    compare_twin(mine, con, event_props_json_audit_sql())
    # recompute from raw rows with the stdlib parser
    raw = con.execute("SELECT event_type, props FROM events").fetchdf()
    ref: dict = {}
    for _, r in raw.iterrows():
        st = ref.setdefault(r["event_type"], {"n": 0, "k": []})
        st["n"] += 1
        obj = json.loads(r["props"])
        if isinstance(obj.get("k"), int):
            st["k"].append(obj["k"])
    for _, r in mine.iterrows():
        st = ref[r["event_type"]]
        assert int(r["n"]) == st["n"]
        assert int(r["n_with_k"]) == len(st["k"])
        assert int(r["k_sum"]) == sum(st["k"])
        if st["k"]:
            assert int(r["k_min"]) == min(st["k"])
            assert int(r["k_max"]) == max(st["k"])
        assert int(r["n_malformed"]) == 0


def test_quantile_normalize_oracle_and_distribution_transfer(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        price_quantile_normalize,
        price_quantile_normalize_sql,
    )

    mine = price_quantile_normalize(SF)
    compare_twin(mine, con, price_quantile_normalize_sql())
    prices = np.sort(
        con.execute("SELECT p_retailprice FROM part").fetchnumpy()["p_retailprice"]
    )
    n_total = len(prices)
    assert len(mine) == n_total
    # every normalized value is an actual global order statistic
    assert np.isin(mine["norm_price"].to_numpy(), prices).all()
    # extremes: lowest-ranked part per brand maps to the global min,
    # highest-ranked to the global max
    for brand, g in mine.groupby("p_brand"):
        g = g.sort_values("brand_rank")
        if len(g) > 1:
            assert g["norm_price"].iloc[0] == prices[0]
            assert g["norm_price"].iloc[-1] == prices[-1]
        # normalized values are monotone in the brand rank
        assert (np.diff(g["norm_price"].to_numpy()) >= 0).all()


def test_periodogram_oracle_and_numpy_fft_agreement(ray_session, con):
    from pdfrust_ray.pipelines.relational import daily_periodogram, daily_periodogram_sql

    mine = daily_periodogram(SF)
    compare_twin(mine, con, daily_periodogram_sql())
    daily = con.execute(
        "SELECT CAST(epoch_us(ts)//86400000000 AS BIGINT) AS day, COUNT(*) AS x "
        "FROM events GROUP BY 1 ORDER BY day"
    ).fetchdf()
    x = daily["x"].to_numpy(dtype=float)
    fft = np.fft.fft(x)
    # micro-quantization error per term is < 0.5e-6 * n terms
    n = len(x)
    for _, r in mine.iterrows():
        k = int(r["k"])
        assert r["re_micro"] / 1e6 == pytest.approx(fft[k].real, abs=n * 1e-6 + 1e-9)
        assert r["im_micro"] / 1e6 == pytest.approx(fft[k].imag, abs=n * 1e-6 + 1e-9)
    # determinism
    again = daily_periodogram(SF)
    pd.testing.assert_frame_equal(mine, again)
