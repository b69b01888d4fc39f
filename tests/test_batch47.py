"""Batch-47: MinHash vs SimHash pair-set agreement audit."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_dedup_method_overlap_oracle(ray_session, con):
    from pdfrust_ray.stages.dedup import (
        dedup_method_overlap,
        dedup_method_overlap_sql,
        minhash_lsh_dedup,
        simhash_dedup,
    )

    mine = dedup_method_overlap(SF)
    # internal consistency vs the constituent pair frames
    m = len(minhash_lsh_dedup(SF))
    s = len(simhash_dedup(SF))
    row = mine.iloc[0]
    assert int(row["n_minhash"]) == m
    assert int(row["n_simhash"]) == s
    assert int(row["n_both"]) + int(row["n_minhash_only"]) == m
    assert int(row["n_both"]) + int(row["n_simhash_only"]) == s
    assert int(row["n_both"]) > 0  # planted dups are found by both

    compare_twin(mine, con, dedup_method_overlap_sql())
