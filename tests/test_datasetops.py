"""Dataset-construction ops: split / chunk / index / PMI / bloom dedup."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# bloom filter sketch
# ---------------------------------------------------------------------------


def test_bloom_no_false_negatives_and_merge_is_union():
    from pdfrust_ray.stages.sketches import bloom_contains, bloom_merge, bloom_partial

    a = np.arange(0, 700, dtype=np.uint64)
    b = np.arange(500, 1200, dtype=np.uint64)
    merged = bloom_merge([bloom_partial(a), bloom_partial(b)])
    both = bloom_merge([bloom_partial(np.concatenate([a, b]))])
    assert np.array_equal(merged, both)  # OR-merge == union build
    assert bloom_contains(merged, np.concatenate([a, b])).all()


def test_bloom_false_positive_rate_bounded():
    from pdfrust_ray.stages.sketches import (
        BLOOM_K,
        BLOOM_M_BITS,
        bloom_contains,
        bloom_merge,
        bloom_partial,
    )

    n = 5000
    members = np.arange(n, dtype=np.uint64)
    bits = bloom_merge([bloom_partial(members)])
    probes = np.arange(10**7, 10**7 + 200_000, dtype=np.uint64)
    fp = bloom_contains(bits, probes).mean()
    # theoretical rate (1 - e^{-kn/m})^k, generous 3x margin
    theory = (1 - np.exp(-BLOOM_K * n / BLOOM_M_BITS)) ** BLOOM_K
    assert fp <= 3 * theory + 1e-6


def test_bloom_definitely_absent_is_honest():
    from pdfrust_ray.stages.sketches import bloom_contains, bloom_merge, bloom_partial

    bits = bloom_merge([bloom_partial(np.array([1, 2, 3], dtype=np.uint64))])
    res = bloom_contains(bits, np.array([1, 2, 3], dtype=np.uint64))
    assert res.all()


# ---------------------------------------------------------------------------
# incremental dedup
# ---------------------------------------------------------------------------


def test_incremental_dedup_matches_oracle(ray_session, con):
    from pdfrust_ray.stages.dedup import incremental_dedup, incremental_dedup_sql

    mine = incremental_dedup(SF)
    assert len(mine) > 0  # non-vacuous at the fixture
    compare_twin(mine, con, incremental_dedup_sql())


def test_incremental_dedup_new_only_even_ids(ray_session):
    from pdfrust_ray.stages.dedup import incremental_dedup

    mine = incremental_dedup(SF)
    assert (mine["doc_id"] % 2 == 0).all()


# ---------------------------------------------------------------------------
# dataset split
# ---------------------------------------------------------------------------


def test_dataset_split_oracle_and_partition(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import dataset_split, dataset_split_sql

    mine = dataset_split(SF)
    compare_twin(mine, con, dataset_split_sql())
    # disjoint cover: every doc assigned exactly once
    n_docs = con.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
    assert len(mine) == n_docs
    assert set(mine["split"]) <= {"train", "val", "test"}
    # roughly 80/10/10 (binomial tolerance at n=500)
    frac = (mine["split"] == "train").mean()
    assert 0.7 < frac < 0.9


def test_dataset_split_stable_under_growth(ray_session):
    # the same doc_id maps to the same split regardless of corpus:
    # assignment depends only on the key, never on the data around it
    from pdfrust_ray.pipelines.datasetops import dataset_split

    a = dataset_split("/root/testdata/sf0.001").set_index("doc_id")["split"]
    b = dataset_split("/root/testdata/sf0.01").set_index("doc_id")["split"]
    shared = a.index.intersection(b.index)
    assert len(shared) > 0
    assert (a.loc[shared] == b.loc[shared]).all()


# ---------------------------------------------------------------------------
# doc chunks
# ---------------------------------------------------------------------------


def test_doc_chunks_matches_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import doc_chunks, doc_chunks_sql

    mine = doc_chunks(SF)
    compare_twin(mine, con, doc_chunks_sql())


def test_doc_chunks_cover_and_overlap(ray_session):
    from pdfrust_ray.pipelines.datasetops import CHUNK_SIZE, CHUNK_STRIDE, doc_chunks

    mine = doc_chunks(SF)
    import pyarrow.parquet as pq

    texts = dict(
        pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        .to_pandas()
        .itertuples(index=False, name=None)
    )
    for did, g in mine.groupby("doc_id"):
        n = len(texts[did].split())
        idx = g.sort_values("chunk_idx")
        # chunk starts tile the token range at the stride
        assert list(idx["chunk_idx"]) == list(range(len(idx)))
        covered = (len(idx) - 1) * CHUNK_STRIDE + idx["n_tokens"].iloc[-1]
        assert covered == n  # last chunk ends exactly at the doc end
        for ci, nt in zip(idx["chunk_idx"], idx["n_tokens"]):
            assert nt == min(CHUNK_SIZE, n - ci * CHUNK_STRIDE)


# ---------------------------------------------------------------------------
# inverted index
# ---------------------------------------------------------------------------


def test_inverted_index_matches_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        inverted_index_topk,
        inverted_index_topk_sql,
    )

    mine = inverted_index_topk(SF)
    assert len(mine) > 0
    compare_twin(mine, con, inverted_index_topk_sql())


def test_inverted_index_postings_content(ray_session):
    # hand-recount one token's postings serially and check df + md5
    import hashlib

    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.datasetops import inverted_index_topk

    mine = inverted_index_topk(SF)
    tok = mine["token"].iloc[0]
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    ids = sorted(int(r.doc_id) for r in docs.itertuples() if tok in r.text.split())
    assert int(mine["df"].iloc[0]) == len(ids)
    joined = ",".join(map(str, ids))
    assert mine["postings_md5"].iloc[0] == hashlib.md5(joined.encode()).hexdigest()


# ---------------------------------------------------------------------------
# PMI collocations
# ---------------------------------------------------------------------------


def test_pmi_matches_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import pmi_collocations, pmi_collocations_sql

    mine = pmi_collocations(SF)
    assert len(mine) > 0
    compare_twin(mine, con, pmi_collocations_sql())


def test_pmi_hand_recount(ray_session):
    # recompute one bigram's PMI serially with the exact same float ops
    import math
    from collections import Counter

    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.datasetops import pmi_collocations

    mine = pmi_collocations(SF)
    bg = mine["bg"].iloc[0]
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["text"]).to_pandas()
    uni: Counter = Counter()
    bic: Counter = Counter()
    n = b = 0
    for txt in docs["text"]:
        ws = txt.lower().split()
        uni.update(ws)
        n += len(ws)
        if len(ws) > 1:
            b += len(ws) - 1
        bic.update(map(" ".join, zip(ws, ws[1:])))
    x, y = bg.split(" ", 1)
    val = (float(bic[bg]) * float(n) * float(n)) / (
        (float(b) * uni[x]) * uni[y]
    )
    assert int(mine["pmi_micro"].iloc[0]) == int(math.floor(math.log(val) * 1e6 + 0.5))
