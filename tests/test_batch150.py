"""Batch-150: Zipf slope fit + streaming SpaceSaving heavy hitters."""


SF = "/root/testdata/sf0.001"


def test_zipf_slope_fit_negative_slope(ray_session):
    from pdfrust_ray.pipelines.textops import zipf_slope_fit

    out = zipf_slope_fit(SF)
    assert out["source"].is_unique and len(out) >= 2
    # frequency decreasing in rank -> negative covariance numerator
    assert (out["slope_num"] < 0).all()
    assert (out["slope_den"] > 0).all()
    # |slope| around 1 for Zipf-ish data: bound loosely to (0, 3)
    ratio = out["slope_num"].astype(float) / out["slope_den"].astype(float)
    assert ((ratio < 0) & (ratio > -3.0)).all()


def test_streaming_heavy_hitters_spacesaving_invariant(ray_session):
    from pdfrust_ray.stages.streaming import streaming_heavy_hitters
    import pyarrow.parquet as pq
    import collections

    out = streaming_heavy_hitters(SF, capacity=4, n_buckets=8)
    ev = pq.read_table(
        f"{SF}/events.parquet", columns=["event_type"]
    ).to_pandas()
    exact = collections.Counter(ev["event_type"])
    got = dict(zip(out["event_type"], zip(out["est_count"], out["max_overcount"])))
    # SpaceSaving invariant: guaranteed_min <= true <= est for every
    # type present in the merged summary
    for t, (est, err) in got.items():
        true = exact.get(t, 0)
        assert est - err <= true <= est, (t, est, err, true)
    # the overall majority type can never be evicted everywhere
    top = exact.most_common(1)[0][0]
    assert top in got
    assert (out["guaranteed_min"] >= 0).all()


def test_streaming_heavy_hitters_deterministic(ray_session):
    from pdfrust_ray.stages.streaming import streaming_heavy_hitters

    a = streaming_heavy_hitters(SF, capacity=4, n_buckets=8)
    b = streaming_heavy_hitters(SF, capacity=4, n_buckets=8)
    assert a.equals(b)
