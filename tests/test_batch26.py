"""Batch-26 ops: bigram vocabulary growth, ingest lineage, type-share
trend."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_bigram_vocab_growth_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        bigram_vocab_growth,
        bigram_vocab_growth_sql,
    )

    mine = bigram_vocab_growth(SF)
    assert len(mine) == 5  # 500 docs / 100-doc buckets
    # diminishing returns: the first bucket dominates, curve is monotone
    assert mine.iloc[0]["n_new_bigrams"] > mine.iloc[1:]["n_new_bigrams"].sum()
    assert mine["cum_vocab"].is_monotonic_increasing
    compare_twin(mine, con, bigram_vocab_growth_sql())


def test_csv_shard_lineage_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import csv_shard_lineage, csv_shard_lineage_sql

    mine = csv_shard_lineage(SF)
    assert len(mine) == 8
    assert int(mine["n_rows"].sum()) == 1000
    compare_twin(mine, con, csv_shard_lineage_sql())


def test_events_type_share_trend_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_type_share_trend,
        events_type_share_trend_sql,
    )

    mine = events_type_share_trend(SF)
    # per-day shares sum to ~1e6 (ppm truncation loses < n_types ppm)
    day_sums = mine.groupby("day")["share_ppm"].sum()
    assert ((day_sums > 999_990) & (day_sums <= 1_000_000)).all()
    compare_twin(mine, con, events_type_share_trend_sql())
