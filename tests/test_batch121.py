"""Batch-121: skeleton collision census, reply length by prompt decile."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_skeleton_token_collisions_oracle(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_homoglyph_fixture
    from pdfrust_ray.pipelines.conversation import (
        skeleton_token_collisions,
        skeleton_token_collisions_sql,
    )

    hg = ensure_homoglyph_fixture()
    mine = skeleton_token_collisions(hg)
    con = duckdb.connect()
    compare_twin(mine, con, skeleton_token_collisions_sql(f"{hg}/shards/*.parquet"))
    # the planted spoofed tokens must collide with their clean twins
    assert "payment" in set(mine["skeleton"])
    assert (mine["n_forms"] >= 2).all()
    assert (mine["n_tokens"] >= mine["n_forms"]).all()


def test_skeleton_collisions_invisible_to_exact_dedup(ray_session):
    # the colliding raw forms are byte-distinct (exact dedup would keep
    # both) yet skeleton-identical — the census's reason to exist
    from pdfrust_ray.fixtures.corpus import ensure_homoglyph_fixture
    from pdfrust_ray.pipelines.conversation import _CONFUSABLE_MAP

    assert all(k != v for k, v in _CONFUSABLE_MAP.items())
    assert all(len(k) == 1 and len(v) == 1 for k, v in _CONFUSABLE_MAP.items())


def test_reply_length_by_prompt_decile_oracle(ray_session):
    from __ray_entry__ import _scale_for
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        reply_length_by_prompt_decile,
        reply_length_by_prompt_decile_sql,
    )

    corpus = ensure_corpus(_scale_for(SF))
    mine = reply_length_by_prompt_decile(corpus)
    con = duckdb.connect()
    compare_twin(mine, con, reply_length_by_prompt_decile_sql(f"{corpus}/shards/*.parquet"))
    assert mine["decile"].between(0, 9).all()
    # deciles are monotone in average prompt length by construction
    assert mine["avg_prompt_len"].is_monotonic_increasing
    assert (mine["n_pairs"] >= 1).all()
