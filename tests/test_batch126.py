"""Batch-126: HDR log-linear quantile sketch, discount-return odds."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_hdr_quantile_sketch_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        hdr_quantile_sketch,
        hdr_quantile_sketch_sql,
    )

    mine = hdr_quantile_sketch(SF)
    compare_twin(mine, con, hdr_quantile_sketch_sql())
    # error certificate: every selected bucket contains the exact
    # order statistic, and bucket width / lo <= 1/8 (12.5% rel error)
    cents = (
        con.execute(
            "SELECT GREATEST(CAST(ROUND(value*100) AS BIGINT),1) AS c FROM events ORDER BY 1"
        )
        .fetchdf()["c"]
        .to_numpy()
    )
    n = len(cents)
    qmap = {50: (1, 2), 90: (9, 10), 99: (99, 100)}
    for _, r in mine.iterrows():
        q_num, q_den = qmap[int(r["quantile_pct"])]
        pos = (n * q_num + q_den - 1) // q_den
        exact = int(cents[pos - 1])
        assert r["lo_cents"] <= exact <= r["hi_cents"]
        if r["lo_cents"] >= 8:
            assert (r["hi_cents"] - r["lo_cents"] + 1) * 8 <= r["lo_cents"] + 8


def test_hdr_bucket_is_mergeable():
    # bucketing a concatenation equals summing bucket censuses
    from pdfrust_ray.pipelines.relational import _bit_length_exact

    rng = np.random.RandomState(5)
    a = rng.randint(1, 10**6, 500).astype("int64")
    b = rng.randint(1, 10**6, 700).astype("int64")

    def census(v):
        bl = _bit_length_exact(v) + 1
        bucket = np.where(v < 8, v, (bl - 3) * 8 + (v >> np.maximum(bl - 4, 0)))
        u, c = np.unique(bucket, return_counts=True)
        return dict(zip(u.tolist(), c.tolist()))

    ca, cb, cab = census(a), census(b), census(np.concatenate([a, b]))
    merged = dict(ca)
    for k, v in cb.items():
        merged[k] = merged.get(k, 0) + v
    assert merged == cab


def test_discount_return_contingency_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        discount_return_contingency,
        discount_return_contingency_sql,
    )

    mine = discount_return_contingency(SF)
    compare_twin(mine, con, discount_return_contingency_sql())
    r = mine.iloc[0]
    total = con.execute("SELECT COUNT(*) FROM lineitem").fetchone()[0]
    assert (
        r["n_disc_ret"] + r["n_disc_kept"] + r["n_plain_ret"] + r["n_plain_kept"]
        == total
    )
    assert r["odds_num"] == r["n_disc_ret"] * r["n_plain_kept"]
