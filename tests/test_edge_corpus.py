"""Edge-corpus regressions: the round-5 adversarial probe findings.

A corpus with empty / whitespace-only / single-char / trailing-space /
punctuation-only documents must keep engine and twin hash-identical —
each case here silently diverged once (the ADVICE-class bug family:
inner joins dropping token-less rows, DuckDB array_to_string([]) being
NULL, likelihood grids missing token-less candidate sources). A token
of 56 bytes or more once crashed the md5 lanes of the DoReMi kernel."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from tools.contract_check import compare_twin, connect

SRC = "/root/testdata/sf0.001"

_EDGES = [
    ("", "en", "edge0"),
    ("   ", "fr", "edge0"),
    ("\t\n\t\n", "en", "edge1"),
    ("x", "de", "edge1"),
    ("word " * 50, "en", "edge2"),
    ("!!! ??? ... ;;;", "fr", "src0"),
    ("a b", "en", "src0"),
    # one token of 90 bytes: past the single-block md5 lanes (< 56 bytes)
    ("the " + "pneumonoultramicroscopicsilicovolcanoconiosis" * 2 + " word", "en", "src1"),
]


@pytest.fixture(scope="module")
def edge_dir(tmp_path_factory):
    import shutil

    dst = tmp_path_factory.mktemp("edge_sf")
    for t in (
        "region nation customer supplier part orders lineitem events embeddings"
    ).split():
        shutil.copy(f"{SRC}/{t}.parquet", dst / f"{t}.parquet")
    d = pq.read_table(f"{SRC}/documents.parquet")
    base = max(d["doc_id"].to_pylist()) + 1
    rows = {
        "doc_id": [base + i for i in range(len(_EDGES))],
        "text": [e[0] for e in _EDGES],
        "lang": [e[1] for e in _EDGES],
        "source": [e[2] for e in _EDGES],
        "n_chars": [len(e[0]) for e in _EDGES],
    }
    pq.write_table(
        pa.concat_tables([d, pa.table(rows, schema=d.schema)]),
        dst / "documents.parquet",
    )
    return str(dst)


@pytest.fixture(scope="module")
def con(edge_dir):
    return connect(edge_dir)


@pytest.mark.parametrize(
    "mod_path,name",
    [
        ("pdfrust_ray.pipelines.llmdata", "bpe_encode_counts"),
        ("pdfrust_ray.pipelines.llmdata", "tokenizer_fertility"),
        ("pdfrust_ray.pipelines.textops", "doc_adler32_audit"),
        ("pdfrust_ray.pipelines.textops", "feature_hashing"),
        ("pdfrust_ray.pipelines.quality", "oov_rate"),
        ("pdfrust_ray.pipelines.textops", "nb_source_confusion"),
        ("pdfrust_ray.stages.dedup", "incremental_dedup"),
        ("pdfrust_ray.stages.dedup", "prefix_cluster_keep_best"),
        ("pdfrust_ray.pipelines.textops", "heaps_law_fit"),
    ],
)
def test_edge_twin_exact(ray_session, edge_dir, con, mod_path, name):
    import importlib

    mod = importlib.import_module(mod_path)
    fn = getattr(mod, name)
    sqlfn = getattr(mod, f"{name}_sql")
    compare_twin(fn(edge_dir), con, sqlfn())


def test_edge_doremi_twin_exact(ray_session, edge_dir, con):
    """DoReMi hashes every word with the md5 lanes, the 90-byte one too.
    eta=100 keeps the one-word source edge1 (excess ~6.8 nats) inside
    the kernel's stated bound eta * excess < 1e9; the default eta=200
    refuses this corpus (test_edge_doremi_default_eta_refused)."""
    from pdfrust_ray.pipelines.mixing import doremi_fixedpoint, doremi_fixedpoint_sql

    compare_twin(doremi_fixedpoint(edge_dir, eta=100), con, doremi_fixedpoint_sql(eta=100))


def test_edge_doremi_default_eta_refused(ray_session, edge_dir):
    """At the default eta=200, edge1's excess breaks eta * excess < 1e9:
    a ValueError (not an assert, which python -O strips) names the
    largest eta that works, and that eta does work."""
    import re

    from pdfrust_ray.pipelines.mixing import doremi_fixedpoint

    with pytest.raises(ValueError, match=r"eta must be at most \d+") as exc:
        doremi_fixedpoint(edge_dir)
    top_eta = int(re.search(r"at most (\d+)", str(exc.value)).group(1))
    assert 100 <= top_eta < 200
    assert len(doremi_fixedpoint(edge_dir, eta=top_eta)) > 0
    with pytest.raises(ValueError):
        doremi_fixedpoint(edge_dir, eta=top_eta + 1)


def test_edge_specific_values(ray_session, edge_dir):
    """Spot-pin the edge semantics themselves, not just twin parity."""
    import hashlib

    from pdfrust_ray.pipelines.textops import doc_adler32_audit, feature_hashing

    ad = doc_adler32_audit(edge_dir).set_index("doc_id")["adler32"]
    base = int(ad.index.max()) - len(_EDGES) + 1
    assert int(ad.loc[base]) == 1  # adler32 of empty = b*65536+a = 1
    fh = feature_hashing(edge_dir).set_index("doc_id")
    assert int(fh.loc[base, "nnz"]) == 0
    assert fh.loc[base, "sig"] == hashlib.md5(b"").hexdigest()
