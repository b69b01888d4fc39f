"""Batch-27 ops: norm histogram, Benford audit, session-size
distribution."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_embedding_norm_histogram_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        embedding_norm_histogram,
        embedding_norm_histogram_sql,
    )

    mine = embedding_norm_histogram(SF)
    assert int(mine["n_vecs"].sum()) == 500
    compare_twin(mine, con, embedding_norm_histogram_sql())


def test_events_value_benford_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_value_benford,
        events_value_benford_sql,
    )

    mine = events_value_benford(SF)
    assert mine["digit"].tolist() == list(range(1, 10))
    assert int(mine["benford_ppm"].sum()) in (999_999, 1_000_000, 1_000_001)
    compare_twin(mine, con, events_value_benford_sql())


def test_session_size_histogram_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        session_size_histogram,
        session_size_histogram_sql,
        sessionize,
    )

    mine = session_size_histogram(SF)
    n_sessions = len(sessionize(SF))
    assert int(mine["n_sessions"].sum()) == n_sessions
    compare_twin(mine, con, session_size_histogram_sql())
