"""Batch-55: length-vs-quality Pearson sufficient statistics."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_doc_len_quality_corr_oracle(ray_session, con):
    from pdfrust_ray.pipelines.llmdata import (
        doc_len_quality_corr,
        doc_len_quality_corr_sql,
    )

    mine = doc_len_quality_corr(SF)
    compare_twin(mine, con, doc_len_quality_corr_sql())
    # Cauchy-Schwarz on the centered sums: cov_num^2 <= varx_num * vary_num
    n, sx, sy, sxx, syy, sxy = (int(mine[c].iloc[0]) for c in mine.columns)
    cov = n * sxy - sx * sy
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    assert vx >= 0 and vy >= 0
    assert cov * cov <= vx * vy
    # r is a real correlation on this fixture (non-degenerate columns)
    assert vx > 0 and vy > 0
