"""Threshold-calibration sweeps: exact twins + curve monotonicity."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_quality_sweep_twin_and_monotone(ray_session, con):
    from pdfrust_ray.pipelines.calibration import (
        quality_threshold_sweep,
        quality_threshold_sweep_sql,
    )

    mine = quality_threshold_sweep(SF)
    compare_twin(mine, con, quality_threshold_sweep_sql())
    # retention can only fall as the cutoff rises; t=0 keeps everything
    assert (mine["n_docs_kept"].diff().dropna() <= 0).all()
    assert (mine["n_chars_kept"].diff().dropna() <= 0).all()
    n_docs = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert int(mine.iloc[0]["n_docs_kept"]) == n_docs


def test_jaccard_sweep_twin_and_consistency(ray_session, con):
    from pdfrust_ray.pipelines.calibration import (
        jaccard_threshold_sweep,
        jaccard_threshold_sweep_sql,
    )
    from pdfrust_ray.stages.dedup import ngram_jaccard_dedup

    mine = jaccard_threshold_sweep(SF)
    compare_twin(mine, con, jaccard_threshold_sweep_sql())
    assert (mine["n_pairs"].diff().dropna() <= 0).all()
    # the t=0.80 grid point must agree with running the dedup at 0.80
    at80 = ngram_jaccard_dedup(SF, threshold=0.8)
    row = mine[mine["t_centi"] == 80].iloc[0]
    assert int(row["n_pairs"]) == len(at80)
