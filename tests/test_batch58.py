"""Batch-58: block jackknife inputs, dedup weight correction."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_block_jackknife_stats_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        block_jackknife_stats,
        block_jackknife_stats_sql,
    )

    mine = block_jackknife_stats(SF)
    # each row's own + complement reconstructs the total
    tot_n = int(mine["n"].sum())
    tot_s = int(mine["sum_cents"].sum())
    assert ((mine["n"] + mine["loo_n"]) == tot_n).all()
    assert ((mine["sum_cents"] + mine["loo_sum_cents"]) == tot_s).all()
    compare_twin(mine, con, block_jackknife_stats_sql())


def test_dedup_weight_correction_oracle(ray_session, con):
    from pdfrust_ray.stages.dedup import (
        dedup_weight_correction,
        dedup_weight_correction_sql,
    )

    mine = dedup_weight_correction(SF)
    # weighted >= raw (weights >= 1) and weighted == full-corpus tokens
    assert (mine["tokens_weighted"] >= mine["tokens_kept"]).all()
    full = con.execute(
        r"""SELECT lang, SUM(len(list_filter(string_split_regex(text, '\s+'),
                                             w -> w <> ''))) FROM documents GROUP BY 1"""
    ).fetchall()
    full = dict(full)
    for _, row in mine.iterrows():
        assert int(row["tokens_weighted"]) == int(full[row["lang"]])
    compare_twin(mine, con, dedup_weight_correction_sql())
