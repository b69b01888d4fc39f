"""Batch-62: daily-count overdispersion (Fano) sufficient stats."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_events_burstiness_fano_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_burstiness_fano,
        events_burstiness_fano_sql,
    )

    mine = events_burstiness_fano(SF)
    compare_twin(mine, con, events_burstiness_fano_sql())
    # total mass == event count; Cauchy-Schwarz: n * S2 >= S^2
    total = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    assert int(mine["sum_n"].sum()) == total
    assert ((mine["n_days"] * mine["sum_n2"]) >= mine["sum_n"] ** 2).all()
