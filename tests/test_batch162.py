"""Batch-162: matryoshka truncation recall + content-op lexical census."""

SF = "/root/testdata/sf0.001"


def test_matryoshka_recall_brute(ray_session):
    import numpy as np
    import pyarrow.parquet as pq
    from pdfrust_ray.stages.similarity import (
        _int8_codes,
        matryoshka_recall_curve,
    )

    out = matryoshka_recall_curve(SF)
    t = pq.read_table(SF + "/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    codes = _int8_codes(mat)
    order = np.argsort(ids)
    ids, codes = ids[order], codes[order]

    def topk(qrow, d, k=10):
        dots = codes[:, :d] @ qrow[:d]
        idx = np.lexsort((ids, -dots))[:k]
        return [int(ids[i]) for i in idx]

    qpos = {int(v): i for i, v in enumerate(ids)}
    for qid in (0, 1, 2, 3, 4):
        q = codes[qpos[qid]]
        full = set(topk(q, 64))
        for d in (8, 16, 32, 64):
            row = out[(out["query_id"] == qid) & (out["dim"] == d)]
            exp = len(full.intersection(topk(q, d)))
            assert int(row["overlap_k"].iloc[0]) == exp, (qid, d)
    # full dim recalls itself exactly; truncation loses something
    assert (out.loc[out["dim"] == 64, "overlap_k"] == 10).all()
    assert int(out.loc[out["dim"] == 8, "overlap_k"].min()) < 10


def test_matryoshka_monotone_tendency(ray_session):
    # mean overlap should not collapse at 32 dims (sanity on fixture)
    from pdfrust_ray.stages.similarity import matryoshka_recall_curve

    out = matryoshka_recall_curve(SF)
    m8 = out.loc[out["dim"] == 8, "overlap_k"].mean()
    m32 = out.loc[out["dim"] == 32, "overlap_k"].mean()
    assert m32 >= m8


def test_content_op_census_brute(ray_session):
    import re

    import pandas as pd
    import pyarrow.parquet as pq
    from pdfrust_ray.fixtures.corpus import ensure_modes_fixture
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from pdfrust_ray.pipelines.textops import (
        PDF_CONTENT_OPS,
        content_op_census,
    )
    from pdfrust_ray.sources.transcripts import read_transcripts

    d = ensure_modes_fixture()
    out = content_op_census(
        build_extraction(read_transcripts(d), mode="raw-content",
                         batch_size=4, concurrency=2)
    )
    golden = pq.read_table(f"{d}/golden_modes.parquet").to_pandas()
    raw = golden[(golden["mode"] == "raw-content") & (golden["parse_status"] == "ok")]
    rx = re.compile("[ \\t\\r\\n\\f]+")
    ops = set(PDF_CONTENT_OPS)
    occ, docs = {}, {}
    for s in raw["extracted_text"]:
        seen = set()
        for tok in rx.split(s):
            if tok in ops:
                occ[tok] = occ.get(tok, 0) + 1
                seen.add(tok)
        for tok in seen:
            docs[tok] = docs.get(tok, 0) + 1
    assert list(out["op"]) == sorted(occ)
    for _, r in out.iterrows():
        assert int(r["n_occurrences"]) == occ[r["op"]]
        assert int(r["n_docs"]) == docs[r["op"]]
    # the fixture matrix exercises the core text-op family
    assert {"BT", "ET", "Tf", "Tj"} <= set(out["op"])


def test_int8_codes_zero_vector_guard(ray_session):
    """ADVICE r3: an all-zero embedding must yield all-zero int8 codes
    (not NaN -> undefined int cast), matching the SQL twins' max-abs=0
    -> divide-by-1 rule."""
    import numpy as np
    from pdfrust_ray.stages.similarity import _int8_codes

    mat = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]])
    codes = _int8_codes(mat)
    assert (codes[0] == 0).all()
    assert (codes[1] == np.floor(mat[1] * 127.0 / 2.0 + 0.5)).all()
