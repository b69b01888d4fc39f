"""Batch-132: join-key discovery census, KMV joinability estimate."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_key_joinability_census_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        key_joinability_census,
        key_joinability_census_sql,
    )

    mine = key_joinability_census(SF)
    compare_twin(mine, con, key_joinability_census_sql())
    # the FK signature: orders.o_custkey ⊆ customer.c_custkey domain
    r = mine.set_index(["col_a", "col_b"]).loc[
        ("customer.c_custkey", "orders.o_custkey")
    ]
    assert r["n_inter"] == min(r["n_a"], r["n_b"])
    # events users are a subset of customers in the fixture
    r2 = mine.set_index(["col_a", "col_b"]).loc[
        ("customer.c_custkey", "events.user_id")
    ]
    assert r2["n_inter"] == r2["n_b"]


def test_kmv_joinability_tracks_exact(ray_session):
    from pdfrust_ray.pipelines.relational import kmv_joinability_estimate

    est = kmv_joinability_estimate(SF)
    # bottom-k sketch at k=256 over domains <= 256 keys is EXACT;
    # at larger domains the estimator is unbiased with ~1/sqrt(k) err
    assert (est["abs_err_ppm"] <= 125_000).all()
    # and at this fixture scale it is perfectly exact
    assert (est["abs_err_ppm"] == 0).all()
