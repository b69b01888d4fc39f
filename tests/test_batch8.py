"""Batch-8 ops: gaps-and-islands coverage, FK profiling, frequent
itemsets."""

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_active_time_matches_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import user_active_time, user_active_time_sql

    mine = user_active_time(SF)
    assert len(mine) > 0
    assert (mine["n_islands"] >= 1).all()
    compare_twin(mine, con, user_active_time_sql())


def test_active_time_hand_corpus(ray_session, tmp_path):
    # user 1: events at 0s, 100s (overlap -> one island through 400s),
    # 1000s (gap -> second island); window 300s.
    # touching intervals merge: user 2 at 0s and exactly 300s -> ONE island.
    us = 1_000_000
    rows = [(1, 0), (1, 100 * us), (1, 1000 * us), (2, 0), (2, 300 * us)]
    t = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    from pdfrust_ray.pipelines.relational import user_active_time

    mine = user_active_time(str(tmp_path))
    expect = pd.DataFrame(
        {
            "user_id": [1, 2],
            "n_islands": [2, 1],
            "active_us": [(400 + 300) * us, 600 * us],
        }
    ).astype("int64")
    pd.testing.assert_frame_equal(mine, expect, check_dtype=False)


def test_fk_profile_matches_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import orders_fk_profile, orders_fk_profile_sql

    mine = orders_fk_profile(SF)
    assert int(mine["n_matched_keys"].iloc[0]) > 0
    compare_twin(mine, con, orders_fk_profile_sql())


def test_fk_profile_planted_orphans(ray_session, tmp_path):
    # lineitem keys {1,2,99}; orders keys {1,2,3,4} -> 1 lineitem
    # orphan (99), 2 childless orders (3,4), 2 matched
    pq.write_table(
        pa.table({"l_orderkey": pa.array([1, 1, 2, 99], pa.int64())}),
        tmp_path / "lineitem.parquet",
    )
    pq.write_table(
        pa.table({"o_orderkey": pa.array([1, 2, 3, 4], pa.int64())}),
        tmp_path / "orders.parquet",
    )
    from pdfrust_ray.pipelines.relational import orders_fk_profile

    mine = orders_fk_profile(str(tmp_path))
    assert mine.iloc[0].tolist() == [1, 2, 2]


def test_itemsets_match_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_type_itemsets,
        user_type_itemsets_sql,
    )

    mine = user_type_itemsets(SF)
    assert len(mine) > 0
    compare_twin(mine, con, user_type_itemsets_sql())


def test_itemsets_hand_corpus(ray_session, tmp_path):
    # baskets: u1={a,b,c}, u2={a,b}, u3={a} -> support(a|b)=2,
    # (a|c)=1, (b|c)=1; min_support=2 keeps only a|b
    rows = [(1, "a"), (1, "b"), (1, "c"), (1, "a"), (2, "a"), (2, "b"), (3, "a")]
    t = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array([r[1] for r in rows]),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    from pdfrust_ray.pipelines.relational import user_type_itemsets

    mine = user_type_itemsets(str(tmp_path), min_support=2)
    expect = pd.DataFrame({"pair": ["a|b"], "support": [2]})
    expect["support"] = expect["support"].astype("int64")
    pd.testing.assert_frame_equal(mine, expect, check_dtype=False)


def test_mmr_matches_serial_recompute(ray_session):
    import numpy as np
    import pyarrow.parquet as pq

    from pdfrust_ray.functions.vectors import embedding_matrix, int_column
    from pdfrust_ray.stages.similarity import _normalize, mmr_diverse_topk

    mine = mmr_diverse_topk(SF)
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = int_column(t["vec_id"])
    V = _normalize(embedding_matrix(t["embedding"]))
    q = V[list(ids).index(0)]
    lam, sel, selv = 0.7, [], []
    for _ in range(20):
        rel = V @ q
        red = (V @ np.array(selv).T).max(axis=1) if selv else np.zeros(len(V))
        score = lam * rel - (1 - lam) * red
        score[np.isin(ids, sel)] = -np.inf
        win = np.lexsort((ids, -score))[0]
        sel.append(int(ids[win]))
        selv.append(V[win])
    assert mine["vec_id"].tolist() == sel


def test_mmr_is_more_diverse_than_plain_topk(ray_session):
    # the whole point: average pairwise similarity within the MMR set
    # must be lower than within the plain relevance top-k
    import numpy as np
    import pyarrow.parquet as pq

    from pdfrust_ray.functions.vectors import embedding_matrix, int_column
    from pdfrust_ray.stages.similarity import (
        _normalize,
        brute_force_topk,
        mmr_diverse_topk,
    )

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = list(int_column(t["vec_id"]))
    V = _normalize(embedding_matrix(t["embedding"]))

    def avg_pairwise(vec_ids):
        M = V[[ids.index(v) for v in vec_ids]]
        S = M @ M.T
        n = len(vec_ids)
        return (S.sum() - n) / (n * (n - 1))

    mmr = mmr_diverse_topk(SF)["vec_id"].tolist()
    topk = brute_force_topk(SF, query_ids=(0,), k=20)["vec_id"].tolist()
    assert avg_pairwise(mmr) < avg_pairwise(topk)


def test_golden_records_match_oracle(ray_session, con):
    from pdfrust_ray.pipelines.quality import (
        part_golden_records,
        part_golden_records_sql,
    )

    mine = part_golden_records(SF)
    assert (mine["n_members"] > 1).any()  # non-vacuous clustering
    compare_twin(mine, con, part_golden_records_sql())


def test_golden_records_survivorship_rule(ray_session, tmp_path):
    # names "abc" (3 rows), "abd" (1 row), "xyz" (2 rows):
    # abc~abd cluster -> survivor abc (most rows), xyz singleton
    t = pa.table({"p_name": pa.array(["abc", "abc", "abc", "abd", "xyz", "xyz"])})
    pq.write_table(t, tmp_path / "part.parquet")
    from pdfrust_ray.pipelines.quality import part_golden_records

    mine = part_golden_records(str(tmp_path))
    expect = pd.DataFrame(
        {"survivor": ["abc", "xyz"], "n_members": [2, 1], "n_rows": [4, 2]}
    )
    for c in ("n_members", "n_rows"):
        expect[c] = expect[c].astype("int64")
    pd.testing.assert_frame_equal(mine, expect, check_dtype=False)


def test_streaming_sessionize_matches_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import sessionize_sql
    from pdfrust_ray.stages.streaming import streaming_sessionize

    mine = streaming_sessionize(SF)
    compare_twin(mine, con, sessionize_sql())


def test_streaming_sessionize_emits_incrementally(ray_session):
    # the point of the actor shape: sessions close DURING the replay,
    # not only at flush. Feed a two-session user through one bucket
    # actor directly and observe the first session emitted mid-stream.
    import numpy as np
    import ray as _ray

    from pdfrust_ray.stages.streaming import _SessionBucket

    a = _SessionBucket.remote(30 * 60_000_000)
    us = 1_000_000
    first = _ray.get(
        a.feed.remote(np.array([7, 7]), np.array([0, 60 * us], dtype=np.int64))
    )
    assert first == []  # still open
    second = _ray.get(
        a.feed.remote(np.array([7]), np.array([10_000 * us], dtype=np.int64))
    )
    assert second == [(7, 1, 2, 0, 60 * us)]  # closed mid-stream
    tail = _ray.get(a.flush.remote())
    assert tail == [(7, 2, 1, 10_000 * us, 10_000 * us)]
