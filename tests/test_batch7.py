"""Batch-7 ops: containment dedup, behavioral trigram mining."""

import numpy as np
import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_containment_matches_oracle(ray_session, con):
    from pdfrust_ray.stages.dedup import containment_dedup, containment_dedup_sql

    mine = containment_dedup(SF)
    assert len(mine) > 0
    compare_twin(mine, con, containment_dedup_sql())


def test_containment_catches_subset_jaccard_misses(ray_session, tmp_path):
    # a short doc fully embedded in a long one: containment 1.0 but
    # Jaccard well below 0.8 — the pair containment_dedup exists for
    import pyarrow as pa
    import pyarrow.parquet as pq

    small = "the quick brown fox jumps over the lazy dog near the river bank today"
    filler = " ".join(f"unrelated filler sentence number {i} with more words" for i in range(20))
    big = small + " " + filler
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([small, big, "completely different content here entirely"]),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")

    from pdfrust_ray.functions.minhash import char_shingles_u64, jaccard_u64
    from pdfrust_ray.stages.dedup import containment_dedup

    j = jaccard_u64(
        np.sort(char_shingles_u64(small, 5)), np.sort(char_shingles_u64(big, 5))
    )
    assert j < 0.8  # Jaccard would NOT pair them
    mine = containment_dedup(str(tmp_path))
    pairs = set(mine[["doc_a", "doc_b"]].itertuples(index=False, name=None))
    assert (1, 2) in pairs
    assert all(3 not in p for p in pairs)
    row = mine[(mine["doc_a"] == 1) & (mine["doc_b"] == 2)].iloc[0]
    assert row["containment"] == 1.0  # exact subset


def test_trigrams_match_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_event_trigrams,
        user_event_trigrams_sql,
    )

    mine = user_event_trigrams(SF)
    assert len(mine) == 20
    compare_twin(mine, con, user_event_trigrams_sql())


def test_trigrams_hand_corpus(ray_session, tmp_path):
    # user 1: a b a b -> trigrams aba, bab; user 2: a b a -> aba.
    # pins ordering by (ts, event_id) and the cross-user sum
    import pyarrow as pa
    import pyarrow.parquet as pq

    rows = [
        (1, "a", 0, 10),
        (1, "b", 1, 11),
        (1, "a", 2, 12),
        (1, "b", 3, 13),
        (2, "a", 0, 20),
        (2, "b", 1, 21),
        (2, "a", 2, 22),
    ]
    t = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array([r[1] for r in rows]),
            "ts": pa.array([r[2] * 1_000_000 for r in rows], pa.timestamp("us")),
            "event_id": pa.array([r[3] for r in rows], pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    from pdfrust_ray.pipelines.relational import user_event_trigrams

    mine = user_event_trigrams(str(tmp_path))
    expect = pd.DataFrame({"trigram": ["a>b>a", "b>a>b"], "n": [2, 1]})
    expect["n"] = expect["n"].astype("int64")
    pd.testing.assert_frame_equal(mine, expect, check_dtype=False)
