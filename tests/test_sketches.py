"""Mergeable sketches: HyperLogLog distinct count and Misra-Gries
heavy hitters with exact recount."""

import os

import numpy as np
import pytest

from pdfrust_ray.stages import sketches as sk

SF = "/root/testdata/sf0.001"

needs_testdata = pytest.mark.skipif(not os.path.isdir(SF), reason="testdata not available")


def test_hll_estimator_accuracy_known_cardinalities():
    # p=14 -> standard error ~0.81%; assert 3 sigma across regimes that
    # cross the linear-counting/raw-estimator boundary.
    for n in (100, 1000, 50_000, 500_000):
        regs = np.frombuffer(
            sk._hll_partial(np.arange(n, dtype=np.int64)), dtype=np.uint8
        )
        est = sk._hll_estimate(regs)
        assert abs(est - n) / n < 0.025, (n, est)


def test_hll_partials_merge_to_union():
    # merge(max) of two disjoint halves == sketch of the union
    a = np.arange(0, 40_000, dtype=np.int64)
    b = np.arange(20_000, 70_000, dtype=np.int64)
    ra = np.frombuffer(sk._hll_partial(a), dtype=np.uint8)
    rb = np.frombuffer(sk._hll_partial(b), dtype=np.uint8)
    merged = np.maximum(ra, rb)
    full = np.frombuffer(
        sk._hll_partial(np.arange(0, 70_000, dtype=np.int64)), dtype=np.uint8
    )
    assert np.array_equal(merged, full)


@needs_testdata
def test_hll_distinct_users_matches_exact_within_bound(ray_session, con):
    out = sk.hll_distinct_users(SF)
    exact = dict(
        con.execute(
            "SELECT event_type, COUNT(DISTINCT user_id) FROM events GROUP BY event_type"
        ).fetchall()
    )
    exact["__all__"] = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert set(out.event_type) == set(exact)
    for _, r in out.iterrows():
        e = exact[r.event_type]
        assert abs(r.est_distinct_users - e) / e < 0.025, (r.event_type, r.est_distinct_users, e)


@needs_testdata
def test_heavy_tokens_equals_exact_topk(ray_session, con):
    mine = sk.heavy_tokens(SF)
    oracle = con.execute(sk.heavy_tokens_sql()).fetchdf().astype({"cnt": "int64"})
    assert mine[["token", "cnt"]].values.tolist() == oracle[["token", "cnt"]].values.tolist()


def test_mg_candidate_guarantee_planted(ray_session, tmp_path):
    """A token above the 1/m global-share threshold survives even when
    every block is dominated by filler vocabulary (capacity pressure)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    # 40 docs x 50 unique filler words each, plus 'needle' in every 4th
    docs = []
    for i in range(40):
        words = [f"w{i}_{j}" for j in range(50)]
        if i % 4 == 0:
            words += ["needle"] * 5
        docs.append(" ".join(words))
    pq.write_table(
        pa.table({"doc_id": list(range(len(docs))), "text": docs}),
        tmp_path / "documents.parquet",
    )
    out = sk.heavy_tokens(str(tmp_path), k=1, m=64)
    assert out.iloc[0].token == "needle" and out.iloc[0].cnt == 50


def test_cms_bounds_and_oracle(ray_session, con):
    """Count-Min guarantees: never underestimates; overestimate bounded
    by eps*N (eps = e/w). At the fixture vocabulary (~40 tokens vs
    w=2048) every probe is collision-free, so the estimates equal the
    exact counts — the property the SQL oracle relies on."""
    import math

    est = sk.cms_token_freqs(SF)
    true = con.execute(
        r"""
        WITH toks AS (SELECT unnest(list_filter(string_split_regex(lower(text), '\s+'),
                                                w -> w <> '')) AS token FROM documents)
        SELECT token, COUNT(*) AS n FROM toks GROUP BY token
        """
    ).df().set_index("token")["n"].to_dict()
    n_total = sum(true.values())
    eps = math.e / sk._CMS_W
    for tok, e in zip(est["token"], est["est_count"]):
        t = true.get(tok, 0)
        assert e >= t
        assert e <= t + 2 * eps * n_total
    oracle = con.execute(sk.cms_token_freqs_sql()).df()
    assert est["token"].tolist() == oracle["token"].tolist()
    assert est["est_count"].tolist() == oracle["est_count"].tolist()


def test_cms_partials_merge_additively():
    """CMS blobs merge by elementwise sum: sketch(A) + sketch(B) must
    equal sketch(A union B) exactly."""
    from collections import Counter

    import numpy as np

    a = Counter({"x": 3, "y": 5, "z": 1})
    b = Counter({"x": 2, "w": 7})
    m_a = np.frombuffer(sk._cms_partial(a), dtype=np.int64)
    m_b = np.frombuffer(sk._cms_partial(b), dtype=np.int64)
    m_ab = np.frombuffer(sk._cms_partial(a + b), dtype=np.int64)
    assert ((m_a + m_b) == m_ab).all()


def test_quantile_sketch_exact_when_small():
    s = sk._QuantileSketch(k=256)
    s.extend(range(100))  # n <= k: no compaction, exact quantiles
    assert s.query([0.5])[0] == 49.0
    assert s.query([0.25])[0] == 24.0
    assert s.query([1.0])[0] == 99.0


def test_quantile_sketch_merge_and_error_bound():
    """Rank error after blockwise build + merge stays within the
    compactor bound (measured: ~0.5% at k=256, n=50k; assert 2%)."""
    import numpy as _np

    rng = _np.random.RandomState(3)
    data = rng.lognormal(0.0, 2.0, 50_000)
    full = _np.sort(data)
    merged = sk._QuantileSketch()
    for i in range(0, len(data), 1000):
        b = sk._QuantileSketch()
        b.extend(data[i : i + 1000])
        merged.merge(b)
    for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        est = merged.query([q])[0]
        true_rank = _np.searchsorted(full, est) / len(full)
        assert abs(true_rank - q) <= 0.02, (q, true_rank)


@needs_testdata
def test_quantile_sketch_events(ray_session, con):
    out = sk.quantile_sketch(SF)
    assert out["q"].tolist() == [0.25, 0.5, 0.75, 0.9]
    true = {
        q: con.execute(f"SELECT quantile_disc(value, {q}) FROM events").fetchone()[0]
        for q in (0.25, 0.5, 0.75, 0.9)
    }
    import pyarrow.parquet as _pq

    vals = _pq.read_table(f"{SF}/events.parquet", columns=["value"])["value"].to_numpy()
    sv = np.sort(vals)
    for q, est in zip(out["q"], out["est_value"]):
        true_rank = np.searchsorted(sv, est) / len(sv)
        assert abs(true_rank - q) <= 0.02, (q, est, true[q])


def test_hll_sql_twin_bit_exact(ray_session, con):
    """The DuckDB twin (splitmix64 in HUGEINT limbs + integer S51)
    reproduces the engine's HLL estimates value-for-value."""
    mine = sk.hll_distinct_users(SF).reset_index(drop=True)
    ora = con.execute(sk.hll_distinct_users_sql()).fetchdf()
    assert list(mine["event_type"]) == list(ora["event_type"])
    assert list(mine["est_distinct_users"]) == [
        int(v) for v in ora["est_distinct_users"]
    ]


def test_kmv_joinability_sql_twin_bit_exact(ray_session, con):
    from pdfrust_ray.pipelines import relational as rel

    mine = rel.kmv_joinability_estimate(SF).reset_index(drop=True)
    ora = con.execute(rel.kmv_joinability_estimate_sql()).fetchdf()
    cols = ["col_a", "col_b", "est_jaccard_ppm", "exact_jaccard_ppm", "abs_err_ppm"]
    assert mine[cols].astype(str).values.tolist() == ora[cols].astype(str).values.tolist()


@needs_testdata
def test_quantile_sketch_det_sql_twin_exact(ray_session, con):
    """The deterministic-partition sibling's full compaction schedule
    (per-pid cascade + merge cascade + weighted-rank walk) is replayed
    bit-for-bit by the recursive-CTE twin."""
    import pandas as pd

    mine = sk.quantile_sketch_det(SF)
    ora = con.execute(sk.quantile_sketch_det_sql()).fetchdf()
    pd.testing.assert_frame_equal(mine.reset_index(drop=True), ora)


@needs_testdata
def test_quantile_sketch_det_rank_bound(ray_session):
    import pyarrow.parquet as _pq

    out = sk.quantile_sketch_det(SF)
    vals = _pq.read_table(f"{SF}/events.parquet", columns=["value"])["value"].to_numpy()
    sv = np.sort(vals)
    for q, est in zip(out["q"], out["est_value"]):
        true_rank = np.searchsorted(sv, est) / len(sv)
        assert abs(true_rank - q) <= 0.02, (q, est)


def test_quantile_sketch_det_small_partition_exact(ray_session, tmp_path):
    """part_rows <= k per pid and a merged total <= k: no compaction
    anywhere, so the sketch returns exact discrete quantiles."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as _pq

    n = 200
    t = pa.table(
        {
            "event_id": pa.array(range(n), pa.int64()),
            "value": pa.array([float(i) for i in range(n)], pa.float64()),
        }
    )
    d = tmp_path / "qdet"
    d.mkdir()
    _pq.write_table(t, str(d / "events.parquet"))
    out = sk.quantile_sketch_det(str(d), part_rows=100)
    # weights all 1: estimate = first value with rank >= q*n
    expect = {0.25: 49.0, 0.5: 99.0, 0.75: 149.0, 0.9: 179.0}
    for q, est in zip(out["q"], out["est_value"]):
        assert est == expect[q], (q, est)
