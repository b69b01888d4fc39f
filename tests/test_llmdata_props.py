"""Property-based tests for the pure LLM-data construction functions
(no Ray): the shared greedy packer vs a brute-force walk and its
invariants, BPE
merge-loop correctness vs per-round recounting, and PII/normalization
regex parity between Python re and DuckDB RE2 on adversarial inputs.
"""

from collections import Counter

import duckdb
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st


def _packs_brute_force(tokens: list[int], budget: int) -> tuple[list[int], list[int]]:
    """Pack by pack: a pack takes the next document while it holds no
    tokens yet or the document still fits; (pack_id, pack_pos) per doc."""
    pids, poss = [], []
    i = 0
    while i < len(tokens):
        total, j = 0, i
        while j < len(tokens) and (total == 0 or total + tokens[j] <= budget):
            total += tokens[j]
            j += 1
        pids += [pids[-1] + 1 if pids else 0] * (j - i)
        poss += list(range(j - i))
        i = j
    return pids, poss


@settings(max_examples=300, deadline=None)
@given(
    tokens=st.lists(st.integers(min_value=0, max_value=200), max_size=60),
    budget=st.integers(min_value=1, max_value=256),
)
# a pack filled to exactly the budget, then an oversized document
@example(tokens=[100, 28, 128, 1, 300, 5], budget=128)
def test_greedy_pack_matches_brute_force_walk(tokens, budget):
    from pdfrust_ray.functions.textstats import greedy_pack

    pids, poss = greedy_pack(tokens, budget)
    assert (pids.tolist(), poss.tolist()) == _packs_brute_force(tokens, budget)


@settings(max_examples=200, deadline=None)
@given(
    tokens=st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=60),
    budget=st.integers(min_value=1, max_value=256),
)
def test_pack_invariants(tokens, budget):
    from pdfrust_ray.functions.textstats import greedy_pack

    pids = greedy_pack(tokens, budget)[0].tolist()
    # pack ids are contiguous and non-decreasing
    assert pids[0] == 0
    assert all(b - a in (0, 1) for a, b in zip(pids, pids[1:]))
    # every pack respects the budget unless it holds a single long doc
    sums = Counter()
    counts = Counter()
    for pid, n in zip(pids, tokens):
        sums[pid] += n
        counts[pid] += 1
    for pid in sums:
        assert sums[pid] <= budget or counts[pid] == 1
    # greedy property: a doc only starts a new pack because it would
    # NOT have fit in the previous one
    for i in range(1, len(tokens)):
        if pids[i] != pids[i - 1]:
            assert sums[pids[i - 1]] + tokens[i] > budget


@settings(max_examples=50, deadline=None)
@given(
    words=st.dictionaries(
        st.text(alphabet="abcdef", min_size=1, max_size=6),
        st.integers(min_value=1, max_value=20),
        min_size=1,
        max_size=12,
    ),
    n_merges=st.integers(min_value=1, max_value=8),
)
def test_bpe_merge_loop_vs_bruteforce(words, n_merges):
    """Every recorded merge must be the true argmax pair (with the
    lexicographic tie-break) of a from-scratch recount at that round."""
    from pdfrust_ray.pipelines.llmdata import bpe_merge_loop

    merges = bpe_merge_loop(words, n_merges)
    vocab = {tuple(w) + ("</w>",): n for w, n in words.items()}
    for left, right, cnt in merges:
        pairs: Counter = Counter()
        for sym, n in vocab.items():
            for j in range(len(sym) - 1):
                pairs[(sym[j], sym[j + 1])] += n
        assert pairs, "merge recorded after pair exhaustion"
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        assert (left, right) == best[0]
        assert cnt == best[1]
        newv: dict = {}
        for sym, n in vocab.items():
            out, j = [], 0
            while j < len(sym):
                if j + 1 < len(sym) and sym[j] == left and sym[j + 1] == right:
                    out.append(left + right)
                    j += 2
                else:
                    out.append(sym[j])
                    j += 1
            newv[tuple(out)] = newv.get(tuple(out), 0) + n
        vocab = newv


# adversarial-but-printable text for the regex parity checks: letters,
# digits, separators, @, dots, whitespace runs
_TEXT = st.text(
    alphabet="abcXY01 .-@_%+\t\n", min_size=0, max_size=80
)


@settings(max_examples=150, deadline=None)
@given(text=_TEXT)
def test_pii_pattern_parity_python_vs_re2(text):
    """The engine's Python re counts must equal DuckDB RE2's
    regexp_extract_all counts on arbitrary inputs — the property the
    pii_redact oracle silently depends on."""
    import re

    from pdfrust_ray.pipelines.textops import PII_EMAIL, PII_PHONE

    con = duckdb.connect()
    for pat in (PII_EMAIL, PII_PHONE):
        py = len(re.findall(pat, text))
        sql = con.execute(
            "SELECT len(regexp_extract_all(?, ?))", [text, pat]
        ).fetchone()[0]
        assert py == sql, (pat, text)


@settings(max_examples=150, deadline=None)
@given(text=_TEXT)
def test_normalize_parity_python_vs_duckdb(text):
    """lower+collapse+trim must agree between Python and DuckDB on
    arbitrary ASCII inputs (the turn_normalize oracle contract)."""
    import re

    py = re.sub(r"\s+", " ", text).strip().lower()
    con = duckdb.connect()
    sql = con.execute(
        "SELECT lower(trim(regexp_replace(?, '\\s+', ' ', 'g')))", [text]
    ).fetchone()[0]
    assert py == sql


def test_clean_pack_pipeline_matches_composed_sql(ray_session, con):
    import os

    SF = "/root/testdata/sf0.001"
    if not os.path.isdir(SF):
        pytest.skip("testdata not available")
    """End-to-end composed pipeline (gopher -> near-dup drop -> exact
    dedup -> rebalance -> pack) must match the chained-CTE SQL oracle
    row for row, and its survivor set must be consistent with the
    individual stage queries."""
    from pdfrust_ray.pipelines.llmdata import (
        clean_pack_pipeline,
        clean_pack_pipeline_sql,
    )
    from pdfrust_ray.pipelines.quality import gopher_repetition

    mine = clean_pack_pipeline(SF)
    assert len(mine) > 0
    oracle = con.execute(clean_pack_pipeline_sql()).df()
    cols = sorted(mine.columns)
    assert cols == sorted(oracle.columns)
    for c in cols:
        assert mine[c].tolist() == oracle[c].tolist(), c
    # stage consistency: no repetitive doc survives
    rep = set(gopher_repetition(SF).query("repetitive")["doc_id"])
    assert not (set(mine["doc_id"]) & rep)
    # packing invariant: no pack exceeds the budget unless single-doc
    sums = mine.groupby(["bucket", "pack_id"])["n_tokens"].agg(["sum", "count"])
    assert ((sums["sum"] <= 128) | (sums["count"] == 1)).all()
