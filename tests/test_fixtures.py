"""Fixture generator determinism + construct coverage."""

import pytest

from pdfrust_ray.fixtures.pdfgen import PDF_CONSTRUCTS
from pdfrust_ray.functions.payload import detect_kind, encode_pdf_payload, extract_row, payload_bytes
from pdfrust_ray.pdfref import ParseError, extract


def test_constructs_deterministic():
    for cid, fn in PDF_CONSTRUCTS.items():
        assert fn("abc") == fn("abc"), cid
        assert fn("abc") != fn("abd"), cid


EXPECTED = {
    "pdf-hello": ("ok", "Hello u!"),
    "pdf-lenref": ("ok", "lenref u"),
    "pdf-lig": ("ok", "ofox"),
    "pdf-kern": ("ok", "kernedwordsofu"),
    "pdf-hexodd": ("ok", "A@B@"),
    "pdf-fixref": ("ok", "repaired u"),
    "pdf-multixref": ("ok", "prev-chain u"),
    "pdf-ops": ("ok", "ops noise u"),
}


@pytest.mark.parametrize("cid", sorted(EXPECTED))
def test_construct_golden(cid):
    status, text = EXPECTED[cid]
    r = extract(PDF_CONSTRUCTS[cid]("u"), "text")
    assert r.text == text


def test_error_constructs():
    with pytest.raises(ParseError) as e:
        extract(PDF_CONSTRUCTS["pdf-badcmap"]("u"))
    assert e.value.kind == "CMapMiss"
    with pytest.raises(ParseError):
        extract(PDF_CONSTRUCTS["pdf-nofont"]("u"))
    with pytest.raises(ParseError) as e:
        extract(PDF_CONSTRUCTS["pdf-corrupt"]("u"))
    assert e.value.kind == "Eof"


def test_octal_quirk_in_esc_construct():
    # \101 under the reference's 8c+8d+e octal math is 9 (TAB), not 'A'
    r = extract(PDF_CONSTRUCTS["pdf-esc"]("u"), "text")
    assert "\t oct" in r.text
    assert "A oct" not in r.text


def test_tree_joins_pages_with_newline():
    r = extract(PDF_CONSTRUCTS["pdf-tree"]("u"), "text")
    assert r.text.split("\n") == [f"page {i} of u" for i in range(4)]
    assert r.n_pages == 4


def test_payload_roundtrip():
    for cid in ("pdf-hello", "pdf-flate", "pdf-cmap1"):
        data = PDF_CONSTRUCTS[cid]("x")
        carrier = encode_pdf_payload(data)
        assert detect_kind(carrier) == "pdf"
        assert payload_bytes(carrier) == data


def test_extract_row_kinds():
    assert extract_row("hello world")["payload_kind"] == "plain"
    assert extract_row("<html><body><p>x</p></body></html>")["payload_kind"] == "html"
    r = extract_row(encode_pdf_payload(PDF_CONSTRUCTS["pdf-hello"]("y")))
    assert r["payload_kind"] == "pdf"
    assert r["extracted_text"] == "Hello y!"
    assert r["parse_status"] == "ok"
    bad = extract_row(encode_pdf_payload(PDF_CONSTRUCTS["pdf-corrupt"]("y")))
    assert bad["parse_status"] == "error:Eof"


def test_pdf_info_construct():
    from pdfrust_ray.pdfref.extract import extract_info

    info = extract_info(PDF_CONSTRUCTS["pdf-info"]("u7"))
    assert info["title"] == "Doc u7"
    assert info["author"] == "Fixture Author"
    assert info["creation_date"] == "D:20250101000000Z"
    # PDFs without /Info error like the reference unwrap
    with pytest.raises(ParseError):
        extract_info(PDF_CONSTRUCTS["pdf-hello"]("u7"))


def test_pdf_version():
    from pdfrust_ray.pdfref.extract import pdf_version

    assert pdf_version(b"%PDF-1.4") == "1.4"
    assert pdf_version(b"%PDF-1.7") == "1.7"
    with pytest.raises(ParseError):
        pdf_version(b"%PDF-2.0")


def test_shards_only_build_does_not_hide_the_golden(tmp_path):
    import os

    from pdfrust_ray.fixtures.corpus import ensure_corpus

    base = ensure_corpus("t1", base_dir=str(tmp_path / "t1"), golden=False)
    assert not os.path.exists(os.path.join(base, "golden.parquet"))
    assert os.path.exists(os.path.join(ensure_corpus("t1", base_dir=base), "golden.parquet"))
