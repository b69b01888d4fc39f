"""Batch-35 ops: Markov backtest, per-user p95 histogram, Bloom audit."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_markov_backtest_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import markov_backtest, markov_backtest_sql

    mine = markov_backtest(SF)
    assert len(mine) >= 3  # several previous-event types evaluated
    assert (mine["n_correct"] <= mine["n_eval"]).all()
    assert mine["n_eval"].sum() > 0
    compare_twin(mine, con, markov_backtest_sql())


def test_markov_backtest_beats_nothing(ray_session):
    """Sanity: the model predicts SOMETHING (accuracy > 0 overall) —
    with 5 event types a broken join would typically show 0."""
    from pdfrust_ray.pipelines.relational import markov_backtest

    mine = markov_backtest(SF)
    assert mine["n_correct"].sum() > 0


def test_user_p95_distribution_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_p95_distribution,
        user_p95_distribution_sql,
    )

    mine = user_p95_distribution(SF)
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert mine["n_users"].sum() == n_users
    compare_twin(mine, con, user_p95_distribution_sql())


def test_bloom_dedup_audit_invariants(ray_session, con):
    from pdfrust_ray.stages.dedup import bloom_dedup_audit

    out = bloom_dedup_audit(SF, n_probes=5000)
    row = out.iloc[0]
    n_docs = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert row["n_docs"] == n_docs
    # the Bloom guarantee: every inserted member answers present
    assert row["n_members_found"] == row["n_docs"]
    # FPR within 10x + slack of theory (binomial noise on small probes)
    theo = row["theoretical_fpp"]
    assert row["n_false_positives"] <= max(5, 10 * theo * row["n_probes"])


def test_bloom_smaller_filter_saturates(ray_session):
    """A deliberately tiny filter (m=512 bits, 500 docs) must show real
    false positives — proves the probe pass can detect them at all."""
    from pdfrust_ray.stages.dedup import bloom_dedup_audit

    out = bloom_dedup_audit(SF, m_bits=512, n_probes=2000)
    row = out.iloc[0]
    assert row["n_members_found"] == row["n_docs"]  # FN never happen
    assert row["n_false_positives"] > 0
    assert row["theoretical_fpp"] > 0.5
