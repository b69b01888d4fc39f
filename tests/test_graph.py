"""Graph analytics + batch-4 relational ops: integer PageRank, the
timed conversion funnel, and the column-profile pass."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_pagerank_matches_oracle(ray_session, con):
    from pdfrust_ray.pipelines.graph import bipartite_pagerank, bipartite_pagerank_sql

    mine = bipartite_pagerank(SF)
    assert len(mine) == 20
    compare_twin(mine, con, bipartite_pagerank_sql())


def test_pagerank_serial_recount(ray_session):
    # independent serial recompute of the integer recurrence over the
    # same edge list — pins the engine's round structure, not just the
    # SQL twin's transcription of it
    from pdfrust_ray.pipelines.graph import (
        _R0,
        _TELEPORT,
        _edges,
        bipartite_pagerank,
    )

    edges = _edges(SF)
    deg = edges.groupby("src").size().to_dict()
    nodes = np.union1d(edges["src"].unique(), edges["dst"].unique())
    ranks = {int(n): _R0 for n in nodes}
    for _ in range(2):
        nxt = {int(n): _TELEPORT for n in nodes}
        for s, d in zip(edges["src"], edges["dst"]):
            nxt[int(d)] += (ranks[int(s)] // deg[int(s)]) * 85 // 100
        ranks = nxt
    serial = (
        pd.DataFrame({"node": list(ranks), "r": list(ranks.values())})
        .astype("int64")
        .sort_values(["r", "node"], ascending=[False, True], kind="mergesort")
        .head(20)
        .reset_index(drop=True)
    )
    mine = bipartite_pagerank(SF)
    pd.testing.assert_frame_equal(mine, serial, check_dtype=False)


def test_pagerank_mass_bounded(ray_session):
    # every rank must be >= teleport and the supplier side (no out-
    # edges in the bipartite direction) only ever accumulates — sanity
    # on the damping/floor-division math
    from pdfrust_ray.pipelines.graph import _TELEPORT, bipartite_pagerank

    mine = bipartite_pagerank(SF)
    assert (mine["r"] >= _TELEPORT).all()


def test_funnel_matches_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        funnel_within_hour,
        funnel_within_hour_sql,
    )

    mine = funnel_within_hour(SF)
    assert len(mine) > 0
    compare_twin(mine, con, funnel_within_hour_sql())


def test_funnel_boundary_semantics(ray_session, tmp_path):
    # hand corpus probing the (ts, ts+window] frame: same-instant
    # purchase excluded, exactly-at-the-boundary included, one purchase
    # can convert many signups, signups with no purchase drop out
    us = 1_000_000
    rows = [
        # user 1: purchase at ts==signup (excluded), at +3600s (included)
        (1, "signup", 0),
        (1, "purchase", 0),
        (1, "purchase", 3600 * us),
        # user 2: two signups share one purchase 10s after the second
        (2, "signup", 100 * us),
        (2, "signup", 200 * us),
        (2, "purchase", 210 * us),
        # user 3: purchase 3601s later — outside
        (3, "signup", 0),
        (3, "purchase", 3601 * us),
        # user 4: purchase only — no signup rows
        (4, "purchase", 50 * us),
    ]
    t = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "event_type": pa.array([r[1] for r in rows]),
            "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")

    from pdfrust_ray.pipelines.relational import funnel_within_hour

    mine = funnel_within_hour(str(tmp_path))
    expect = pd.DataFrame({"user_id": [1, 2], "n_converted": [1, 2]}).astype("int64")
    pd.testing.assert_frame_equal(mine, expect, check_dtype=False)


def test_table_profile_matches_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_table_profile,
        events_table_profile_sql,
    )

    mine = events_table_profile(SF)
    assert list(mine["col"]) == ["user_id", "value_cents"]
    compare_twin(mine, con, events_table_profile_sql())


def test_table_profile_invariants(ray_session):
    from pdfrust_ray.pipelines.relational import events_table_profile

    mine = events_table_profile(SF)
    assert (mine["n_distinct"] <= mine["n"]).all()
    assert (mine["min_v"] <= mine["max_v"]).all()
    assert (mine["nulls"] == 0).all()  # fixture has no nulls


def test_cohort_retention_matches_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import cohort_retention, cohort_retention_sql

    mine = cohort_retention(SF)
    assert len(mine) > 1  # non-vacuous: multiple cells
    compare_twin(mine, con, cohort_retention_sql())


def test_cohort_retention_hand_corpus(ray_session, tmp_path):
    # user 1 first seen day 0, active days 0/1/1 (dup)/3;
    # user 2 first seen day 1, active days 1/2 — pins the distinct-day
    # collapse and the per-user cohort anchoring
    day = 86_400_000_000
    rows = [(1, 0), (1, day), (1, day + 5), (1, 3 * day), (2, day), (2, 2 * day)]
    t = pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    from pdfrust_ray.pipelines.relational import cohort_retention

    mine = cohort_retention(str(tmp_path))
    expect = pd.DataFrame(
        {
            "cohort_day": [0, 0, 0, 1, 1],
            "days_since": [0, 1, 3, 0, 1],
            "n_users": [1, 1, 1, 1, 1],
        }
    ).astype("int64")
    pd.testing.assert_frame_equal(mine, expect, check_dtype=False)


def test_butterflies_match_oracle(ray_session, con):
    from pdfrust_ray.pipelines.graph import (
        supplier_butterflies,
        supplier_butterflies_sql,
    )

    mine = supplier_butterflies(SF)
    assert int(mine["n_butterflies"].iloc[0]) > 0  # non-vacuous
    compare_twin(mine, con, supplier_butterflies_sql())


def test_butterflies_side_invariance(ray_session):
    # the motif count must not depend on which side wedges pivot on —
    # brute-force both pivots on a hand graph with known 2 butterflies:
    # c1-{s1,s2}, c2-{s1,s2} (1 butterfly), c3-{s1,s2} adds C(3,2)=3
    # total over the (s1,s2) pair
    import itertools

    edges = [(1, "a"), (1, "b"), (2, "a"), (2, "b"), (3, "a"), (3, "b"), (4, "c")]

    def count(pivot_idx):
        other_idx = 1 - pivot_idx
        groups: dict = {}
        for e in edges:
            groups.setdefault(e[pivot_idx], set()).add(e[other_idx])
        codeg: dict = {}
        for members in groups.values():
            for u, v in itertools.combinations(sorted(members), 2):
                codeg[(u, v)] = codeg.get((u, v), 0) + 1
        return sum(k * (k - 1) // 2 for k in codeg.values())

    assert count(0) == count(1) == 3


def test_contrastive_pairs_match_oracle(ray_session, con):
    from pdfrust_ray.stages.similarity import contrastive_pairs, contrastive_pairs_sql

    mine = contrastive_pairs(SF)
    assert set(mine["kind"]) == {"pos", "neg"}  # both classes non-vacuous
    compare_twin(mine, con, contrastive_pairs_sql())


def test_contrastive_pairs_label_discipline(ray_session, con):
    # every 'pos' pair shares the query's label, every 'neg' differs,
    # and no self-pairs — checked against the raw label column
    from pdfrust_ray.stages.similarity import contrastive_pairs

    mine = contrastive_pairs(SF)
    labels = dict(
        con.execute("SELECT vec_id, label FROM embeddings").fetchall()
    )
    assert (mine["query_id"] != mine["other_id"]).all()
    for _, r in mine.iterrows():
        same = labels[r["query_id"]] == labels[r["other_id"]]
        assert same == (r["kind"] == "pos")
