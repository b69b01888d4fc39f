"""Gopher repetition filter and BM25 retrieval: exact-oracle parity
plus property checks independent of the SQL twin."""

import os
from collections import Counter

import pyarrow as pa
import pytest

from pdfrust_ray.pipelines import quality as q

SF = "/root/testdata/sf0.001"

needs_testdata = pytest.mark.skipif(not os.path.isdir(SF), reason="testdata not available")


@needs_testdata
def test_gopher_repetition_oracle(ray_session, con):
    eng = q.gopher_repetition(SF)
    ora = con.execute(q.gopher_repetition_sql()).df()
    assert eng["doc_id"].tolist() == ora["doc_id"].tolist()
    assert eng["n_words"].tolist() == ora["n_words"].tolist()
    assert eng["n_distinct"].tolist() == ora["n_distinct"].tolist()
    # bit-identical doubles: single IEEE division of exact ints each
    assert eng["dup_word_frac"].tolist() == ora["dup_word_frac"].tolist()
    assert eng["top_bigram_share"].tolist() == ora["top_bigram_share"].tolist()
    assert eng["repetitive"].tolist() == ora["repetitive"].tolist()
    # the flag must split the corpus non-trivially at the fixture
    assert 0 < eng["repetitive"].sum() < len(eng)


@needs_testdata
def test_gopher_repetition_spot_check(ray_session, con):
    """Recompute one doc by hand, independent of both implementations."""
    eng = q.gopher_repetition(SF)
    txt = con.execute("SELECT text FROM documents ORDER BY doc_id LIMIT 1").fetchone()[0]
    ws = txt.lower().split()
    row = eng.iloc[0]
    assert row.n_words == len(ws)
    assert row.n_distinct == len(set(ws))
    c = Counter(zip(ws, ws[1:]))
    assert row.top_bigram_share == max(c.values()) / (len(ws) - 1)


@needs_testdata
def test_bm25_oracle(ray_session, con):
    eng = q.bm25_topk(SF)
    ora = con.execute(q.bm25_topk_sql()).df()
    assert eng["doc_id"].tolist() == ora["doc_id"].tolist()
    assert eng["score_q"].tolist() == ora["score_q"].tolist()
    # ranking must be non-degenerate: strictly positive and not all tied
    assert eng["score_q"].iloc[0] > 0
    assert eng["score_q"].nunique() > 1


@needs_testdata
def test_bm25_brute_force_equivalence(ray_session):
    """Independent serial BM25 over the raw parquet must reproduce the
    distributed result exactly (same quantization rule)."""
    import math

    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    docs = list(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    terms = q._probe_terms(SF, 4)
    n = len(docs)
    words = {d: txt.lower().split() for d, txt in docs}
    total = sum(len(w) for w in words.values())
    avgdl = total / n
    scores = []
    for d, _ in docs:
        ws = words[d]
        c = Counter(ws)
        s = 0
        for term in terms:
            tf = c.get(term, 0)
            if tf == 0:
                continue
            df = sum(1 for w in words.values() if term in w)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            raw = (idf * (tf * (q.BM25_K1 + 1.0))) / (
                tf + (q.BM25_K1 * ((1.0 - q.BM25_B) + (q.BM25_B * (len(ws) / avgdl))))
            )
            s += q._quantize(raw)
        scores.append((d, s))
    scores.sort(key=lambda r: (-r[1], r[0]))
    eng = q.bm25_topk(SF)
    assert eng["doc_id"].tolist() == [d for d, _ in scores[:20]]
    assert eng["score_q"].tolist() == [s for _, s in scores[:20]]


def test_quantize_round_half_away():
    assert q._quantize(1.5e-9) == 2
    assert q._quantize(2.5e-9) == 3  # NOT banker's rounding
    assert q._quantize(0.0) == 0


@needs_testdata
def test_bigram_lm_scores_oracle(ray_session, con):
    eng = q.bigram_lm_scores(SF)
    ora = con.execute(q.bigram_lm_scores_sql()).df()
    assert eng["doc_id"].tolist() == ora["doc_id"].tolist()
    assert eng["n_bigrams"].tolist() == ora["n_bigrams"].tolist()
    assert eng["surprisal_q"].tolist() == ora["surprisal_q"].tolist()
    assert (eng["surprisal_q"] > 0).all()  # p < 1 always under smoothing


@needs_testdata
def test_bigram_lm_hand_check_one_bigram(ray_session, con):
    """Recompute one bigram's micro-nat cost independently and confirm
    it divides the engine's doc scores correctly on a 2-word doc model:
    a doc's score must equal the sum of its bigram costs computed from
    raw counts."""
    import math
    from collections import Counter

    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    docs = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    bg = Counter()
    vocab = set()
    for txt in docs.values():
        ws = txt.lower().split()
        vocab.update(ws)
        bg.update(zip(ws, ws[1:]))
    ctx = Counter()
    for (a, _), c in bg.items():
        ctx[a] += c
    nv = len(vocab)

    def cost(a, b):
        p = (bg[(a, b)] + 0.5) / (ctx[a] + 0.5 * nv)
        return int(math.floor(-math.log(p) * 1000000.0 + 0.5))

    eng = q.bigram_lm_scores(SF).set_index("doc_id")
    did = min(docs)
    ws = docs[did].lower().split()
    expect = sum(cost(a, b) for a, b in zip(ws, ws[1:]))
    assert int(eng.loc[did, "surprisal_q"]) == expect


@needs_testdata
def test_name_similarity_join_oracle(ray_session, con):
    eng = q.name_similarity_join(SF)
    ora = con.execute(q.name_similarity_join_sql()).df()
    assert len(eng) > 0  # the fixture names produce real pairs
    for c in ["name_a", "name_b", "n_inter", "n_union", "jaccard"]:
        assert eng[c].tolist() == ora[c].tolist(), c


def test_name_similarity_prefix_filter_complete(ray_session, tmp_path):
    """Candidate completeness: brute-force over all distinct-name pairs
    must equal the prefix-filtered distributed result."""
    import itertools

    import pyarrow.parquet as _pq

    names = [
        "cold widget", "old widget", "bold widget", "cold gadget",
        "red ring", "red rings", "blue ring", "xyzzy", "abcde",
    ]
    rows = [{"p_name": nm} for nm in names for _ in range(2)]  # dup rows
    d = tmp_path / "p"
    d.mkdir()
    _pq.write_table(pa.Table.from_pylist(rows), str(d / "part.parquet"))
    eng = q.name_similarity_join(str(d), threshold=0.4)
    got = set(zip(eng["name_a"], eng["name_b"]))
    expect = set()
    for a, b in itertools.combinations(sorted(set(names)), 2):
        ga, gb = q._char_grams(a), q._char_grams(b)
        un = len(ga) + len(gb) - len(ga & gb)
        if un and len(ga & gb) / un >= 0.4:
            expect.add((a, b))
    assert got == expect and expect


@needs_testdata
def test_compression_ratio_serial_recompute(ray_session):
    import zlib

    import pyarrow.parquet as pq

    eng = q.compression_ratio_scores(SF)
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    expect = {
        d: (len(zlib.compress(x.encode(), 6)) * 1_000_000) // len(x.encode())
        for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
    }
    assert dict(zip(eng["doc_id"], eng["ratio_q"])) == expect


def test_compression_ratio_orders_repetitive_below_random(ray_session, tmp_path):
    import pyarrow.parquet as _pq

    import numpy as np

    rng = np.random.RandomState(5)
    rand_text = " ".join(
        "".join(chr(97 + c) for c in rng.randint(0, 26, size=8)) for _ in range(200)
    )
    rows = [
        {"doc_id": 0, "text": "spam ham " * 400},
        {"doc_id": 1, "text": rand_text},
    ]
    d = tmp_path / "docs"
    d.mkdir()
    _pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
    out = q.compression_ratio_scores(str(d)).set_index("doc_id")
    assert out.loc[0, "ratio_q"] < out.loc[1, "ratio_q"] / 5


@needs_testdata
def test_name_editdist_join_oracle(ray_session, con):
    eng = q.name_editdist_join(SF)
    ora = con.execute(q.name_editdist_join_sql()).df()
    assert len(eng) > 0  # 'cold X' / 'old X' pairs exist in the fixture
    assert eng["name_a"].tolist() == ora["name_a"].tolist()
    assert eng["name_b"].tolist() == ora["name_b"].tolist()


def test_within_edit1_brute_force():
    """Pin the scan-based distance check against a real DP Levenshtein
    on exhaustive short-string pairs."""
    import itertools

    def lev(a, b):
        dp = list(range(len(b) + 1))
        for i, x in enumerate(a, 1):
            prev, dp[0] = dp[0], i
            for j, y in enumerate(b, 1):
                prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1, prev + (x != y))
        return dp[len(b)]

    alphabet = "abc"
    strings = [""]
    for n in (1, 2, 3):
        strings += ["".join(p) for p in itertools.product(alphabet, repeat=n)]
    for a in strings:
        for b in strings:
            assert q._within_edit1(a, b) == (lev(a, b) <= 1), (a, b)


def test_symspell_candidate_completeness(ray_session, tmp_path):
    """Every true <=1 pair must be found (deletion-neighborhood lemma),
    on a vocabulary with substitutions, inserts, deletes and far pairs."""
    import pyarrow.parquet as _pq

    names = ["ring", "rang", "rings", "ing", "wing", "xyzzy", "ring!", "r1ng"]
    rows = [{"p_name": nm} for nm in names for _ in range(2)]
    d = tmp_path / "p"
    d.mkdir()
    _pq.write_table(pa.Table.from_pylist(rows), str(d / "part.parquet"))
    eng = set(zip(*[q.name_editdist_join(str(d))[c] for c in ("name_a", "name_b")]))
    import itertools

    expect = set()
    for a, b in itertools.combinations(sorted(set(names)), 2):
        if q._within_edit1(a, b):
            expect.add((a, b))
    assert eng == expect and len(expect) >= 5
