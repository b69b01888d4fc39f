"""Batch-163: MOSS winnowing near-dup pairs and the contamination
lexicon substring census."""

import duckdb
import hashlib
import pandas as pd

SF = "/root/testdata/sf0.001"


def _serial_winnow(text: str, k: int, w: int) -> set:
    """Textbook winnowing fingerprint set (independent of the engine's
    vectorized path)."""
    n = len(text)
    if n < k:
        return set()
    hs = [
        int.from_bytes(hashlib.md5(text[i : i + k].encode()).digest()[:8], "big") >> 1
        for i in range(n - k + 1)
    ]
    if len(hs) < w:
        return {min(hs)}
    return {min(hs[i : i + w]) for i in range(len(hs) - w + 1)}


def test_winnowing_pairs_match_serial_recompute(ray_session):
    from pdfrust_ray.stages.dedup import winnowing_dedup

    k, w, min_shared, stop_df = 8, 4, 10, 25
    mine = winnowing_dedup(SF, k=k, w=w, min_shared=min_shared, stop_df=stop_df)
    docs = duckdb.sql(
        f"SELECT doc_id, text FROM read_parquet('{SF}/documents.parquet')"
    ).fetchdf()
    sets = {int(r.doc_id): _serial_winnow(r.text, k, w) for r in docs.itertuples()}
    df: dict = {}
    for s in sets.values():
        for fp in s:
            df[fp] = df.get(fp, 0) + 1
    keep = {fp for fp, c in df.items() if 2 <= c <= stop_df}
    expected = []
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            shared = len(sets[a] & sets[b] & keep)
            if shared >= min_shared:
                expected.append((a, b, shared))
    exp = pd.DataFrame(expected, columns=["doc_a", "doc_b", "n_shared"]).astype(
        "int64"
    )
    pd.testing.assert_frame_equal(mine.reset_index(drop=True), exp)


def test_winnowing_guarantee_on_planted_duplicate(ray_session, tmp_path):
    """Any shared substring of length >= k + w - 1 must share a
    fingerprint — plant a verbatim copy and assert the pair appears."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pdfrust_ray.stages.dedup import winnowing_dedup

    base = "the quick brown fox jumps over the lazy dog and keeps running " * 6
    other = "completely different content with no overlap whatsoever here " * 6
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array([base, base + " tail", other], pa.string()),
        }
    )
    d = tmp_path / "planted"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    out = winnowing_dedup(str(d), min_shared=5, stop_df=25)
    assert ((out["doc_a"] == 0) & (out["doc_b"] == 1)).any()
    assert not ((out["doc_b"] == 2) | (out["doc_a"] == 2)).any()


def test_winnowing_no_surviving_pairs_returns_empty(ray_session):
    """ADVICE r3 regression: stop_df<=2 leaves no pair after filtering —
    must return an empty typed frame, not crash with KeyError 'pk'."""
    from pdfrust_ray.stages.dedup import winnowing_dedup

    out = winnowing_dedup(SF, stop_df=2, min_shared=10**9)
    assert list(out.columns) == ["doc_a", "doc_b", "n_shared"]
    assert len(out) == 0
    assert all(str(out[c].dtype) == "int64" for c in out.columns)


def test_winnowing_sql_twin_exact(ray_session, con):
    from pdfrust_ray.stages.dedup import winnowing_dedup, winnowing_dedup_sql

    mine = winnowing_dedup(SF)
    ora = con.execute(winnowing_dedup_sql()).fetchdf().astype("int64")
    pd.testing.assert_frame_equal(mine.reset_index(drop=True), ora)


def test_lexicon_census_matches_str_count(ray_session):
    from pdfrust_ray.pipelines.textops import (
        CONTAMINATION_LEXICON,
        lexicon_match_census,
    )

    mine = lexicon_match_census(SF)
    texts = duckdb.sql(
        f"SELECT text FROM read_parquet('{SF}/documents.parquet')"
    ).fetchdf()["text"].tolist()
    for p in CONTAMINATION_LEXICON:
        counts = [t.count(p) for t in texts]
        row = mine.loc[mine["phrase"] == p].iloc[0]
        assert int(row["n_docs"]) == sum(1 for c in counts if c)
        assert int(row["n_occurrences"]) == sum(counts)


def test_lexicon_census_sql_twin_exact(ray_session, con):
    from pdfrust_ray.pipelines.textops import (
        lexicon_match_census,
        lexicon_match_census_sql,
    )

    mine = lexicon_match_census(SF)
    ora = con.execute(lexicon_match_census_sql()).fetchdf()
    pd.testing.assert_frame_equal(mine.reset_index(drop=True), ora)
