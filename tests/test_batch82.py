"""Batch-82: closest embedding pair, isqrt SD, suffix-automaton windows."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_closest_pair_oracle_brute_and_margin(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        embedding_closest_pair,
        embedding_closest_pair_sql,
    )

    mine = embedding_closest_pair(SF)
    compare_twin(mine, con, embedding_closest_pair_sql())
    t = con.execute("SELECT vec_id, embedding FROM embeddings ORDER BY vec_id").fetchdf()
    ids = t["vec_id"].to_numpy(np.int64)
    m = np.array(t["embedding"].tolist(), dtype=np.float64)
    d2 = ((m[:, None, :] - m[None, :, :]) ** 2).sum(axis=2)
    d2[np.tril_indices(len(m))] = np.inf
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    assert int(mine["vec_id_a"].iloc[0]) == int(ids[i])
    assert int(mine["vec_id_b"].iloc[0]) == int(ids[j])
    # winning margin dominates float summation noise
    flat = np.sort(d2[np.isfinite(d2)].ravel())
    assert flat[1] - flat[0] > 1e-9 * max(flat[0], 1.0)


def test_sd_floor_oracle_and_bigint_brute(ray_session, con):
    import math

    from pdfrust_ray.pipelines.relational import type_value_sd_floor, type_value_sd_floor_sql

    mine = type_value_sd_floor(SF)
    compare_twin(mine, con, type_value_sd_floor_sql())
    df = con.execute(
        "SELECT event_type, CAST(ROUND(value*100) AS BIGINT) x FROM events"
    ).fetchdf()
    for ty, g in df.groupby("event_type"):
        xs = [int(v) for v in g["x"]]
        v = len(xs) * sum(x * x for x in xs) - sum(xs) ** 2
        k = math.isqrt(v)
        row = mine[mine["event_type"] == ty].iloc[0]
        assert int(row["sd_floor"]) == k
        assert k * k <= v < (k + 1) * (k + 1)


def test_subseq_count_oracle_and_set_brute(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        _sam_distinct_substrings,
        user_distinct_subseq_count,
        user_distinct_subseq_count_sql,
    )

    mine = user_distinct_subseq_count(SF)
    compare_twin(mine, con, user_distinct_subseq_count_sql())
    df = con.execute(
        "SELECT user_id, event_type FROM events ORDER BY user_id, ts, event_id"
    ).fetchdf()
    for uid, g in df.groupby("user_id"):
        s = g["event_type"].tolist()
        brute = len(
            {tuple(s[i:j]) for i in range(len(s)) for j in range(i + 1, len(s) + 1)}
        )
        row = mine[mine["user_id"] == uid].iloc[0]
        assert int(row["n_distinct_subseq"]) == brute
    # automaton sanity on crafted strings
    assert _sam_distinct_substrings(list("aaaa")) == 4
    assert _sam_distinct_substrings(list("abab")) == 7
    assert _sam_distinct_substrings(list("abcd")) == 10
