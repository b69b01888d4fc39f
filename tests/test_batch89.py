"""Batch-89: DL canonical matching, Luhn audit, dictionary-encoding audit."""

import random
import string

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_dl_implementation_matches_duckdb_builtin(con):
    from pdfrust_ray.pipelines.relational import _damerau_levenshtein

    rng = random.Random(89)
    cases = [("CA", "ABC"), ("ab", "ba"), ("", "xyz"), ("same", "same")]
    for _ in range(200):
        a = "".join(rng.choices(string.ascii_lowercase[:6], k=rng.randint(0, 8)))
        b = "".join(rng.choices(string.ascii_lowercase[:6], k=rng.randint(0, 8)))
        cases.append((a, b))
    for a, b in cases:
        ref = con.execute("SELECT damerau_levenshtein(?, ?)", [a, b]).fetchone()[0]
        assert _damerau_levenshtein(a, b) == ref, (a, b)


def test_canonical_match_oracle_and_pruning_safety(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        _damerau_levenshtein,
        part_word_canonical_match,
        part_word_canonical_match_sql,
    )

    mine = part_word_canonical_match(SF)
    compare_twin(mine, con, part_word_canonical_match_sql())
    # every p_name word is present exactly once; n_uses sums to total words
    n_words = con.execute(
        "SELECT COUNT(*) FROM (SELECT UNNEST(string_split(p_name,' ')) FROM part)"
    ).fetchone()[0]
    assert int(mine["n_uses"].sum()) == n_words
    assert mine["word"].is_unique
    # brute-force re-derive the argmin for each word (no pruning)
    canon = [r[0] for r in con.execute("SELECT DISTINCT p_type FROM part").fetchall()]
    for _, r in mine.iterrows():
        best = min(((_damerau_levenshtein(r["word"], c), c) for c in canon))
        assert (int(r["dl"]), r["canon"]) == best


def test_luhn_oracle_and_reference_implementation(ray_session, con):
    from pdfrust_ray.pipelines.relational import custkey_luhn_audit, custkey_luhn_audit_sql

    mine = custkey_luhn_audit(SF)
    compare_twin(mine, con, custkey_luhn_audit_sql())
    assert int(mine["n"].sum()) == con.execute("SELECT COUNT(*) FROM customer").fetchone()[0]

    def luhn_valid(s: str) -> bool:
        tot = 0
        for i, ch in enumerate(reversed(s)):
            d = int(ch)
            if i % 2 == 1:
                d *= 2
                if d > 9:
                    d -= 9
            tot += d
        return tot % 10 == 0

    def check_digit(payload: str) -> int:
        tot = 0
        for i, ch in enumerate(reversed(payload)):
            d = int(ch)
            if i % 2 == 0:
                d *= 2
                if d > 9:
                    d -= 9
            tot += d
        return (10 - tot % 10) % 10

    keys = [r[0] for r in con.execute("SELECT c_custkey FROM customer").fetchall()]
    from collections import Counter

    ref = Counter(
        (int(luhn_valid(f"{k:010d}")), check_digit(f"{k:010d}"[:9])) for k in keys
    )
    got = {(int(r["is_valid"]), int(r["check_digit"])): int(r["n"]) for _, r in mine.iterrows()}
    assert got == dict(ref)
    # the payload+check construction always Luhn-validates
    for k in keys[:50]:
        p = f"{k:010d}"[:9]
        assert luhn_valid(p + str(check_digit(p)))


def test_dictionary_audit_oracle_and_byte_identities(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        string_dictionary_audit,
        string_dictionary_audit_sql,
    )

    mine = string_dictionary_audit(SF)
    compare_twin(mine, con, string_dictionary_audit_sql())
    # dict_bytes <= raw_bytes always; equality iff every row is distinct
    assert (mine["dict_bytes"] <= mine["raw_bytes"]).all()
    ev = mine[(mine["table_name"] == "events") & (mine["column_name"] == "event_type")].iloc[0]
    raw = con.execute("SELECT SUM(strlen(event_type)) FROM events").fetchone()[0]
    assert int(ev["raw_bytes"]) == raw
    assert int(ev["n_distinct"]) == con.execute(
        "SELECT COUNT(DISTINCT event_type) FROM events"
    ).fetchone()[0]
