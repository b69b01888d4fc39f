"""Property tests: the extraction row function is TOTAL.

On arbitrary or corrupted payloads, extract_row must return an error
row — never raise — so Ray task retries are reserved for infra faults
(SURVEY §4). The pure library may raise only ParseError.
"""

import zlib

from hypothesis import given, settings, strategies as st

# deterministic examples: the driver's gate must not flake on a fresh
# random seed; genuinely new counterexamples belong to dev runs
settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")

from pdfrust_ray.fixtures.pdfgen import PDF_CONSTRUCTS, PdfBuilder, pdf_hello
from pdfrust_ray.functions.payload import RESULT_FIELDS, encode_pdf_payload, extract_row
from pdfrust_ray.pdfref import ParseError, extract

OUT_KEYS = {"payload_kind", "extracted_text", "parse_status", "n_pages", "bytes_decoded", "error"}


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=400))
def test_extract_row_total_on_arbitrary_text(text):
    r = extract_row(text)
    assert set(r) == OUT_KEYS
    assert r["parse_status"] == "ok" or r["parse_status"].startswith(("error:", "skipped:"))


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=600))
def test_extract_row_total_on_pdfish_bytes(data):
    # force the PDF detection path with arbitrary tails
    r = extract_row("%PDF-" + data.decode("latin-1"))
    assert r["payload_kind"] == "pdf"
    assert r["parse_status"] == "ok" or r["parse_status"].startswith("error:")


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(PDF_CONSTRUCTS)),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=255),
)
def test_mutated_valid_pdfs_never_crash(cid, pos, byte):
    data = bytearray(PDF_CONSTRUCTS[cid]("fuzz"))
    data[pos % len(data)] = byte
    r = extract_row(encode_pdf_payload(bytes(data)))
    assert r["parse_status"] == "ok" or r["parse_status"].startswith("error:")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(PDF_CONSTRUCTS)), st.integers(min_value=1, max_value=2000))
def test_truncated_valid_pdfs_never_crash(cid, cut):
    data = PDF_CONSTRUCTS[cid]("fuzz")
    r = extract_row(encode_pdf_payload(data[: max(1, len(data) - cut)]))
    assert r["parse_status"] == "ok" or r["parse_status"].startswith("error:")


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=300))
def test_library_raises_only_parseerror(data):
    try:
        extract(b"%PDF-1.4\n" + data + b"\n%%EOF")
    except ParseError:
        pass
    except RecursionError:
        pass  # pathological nesting is allowed to surface


def _nested_catalog_pdf(depth: int, opener: bytes, closer: bytes, leaf: bytes = b"") -> bytes:
    """A one-page "Hello nest!" PDF whose catalog holds `depth` nested
    containers under /Nest."""
    b = PdfBuilder()
    content = b.add_stream("", b"BT\n70 50 TD\n/F1 12 Tf\n(Hello nest!) Tj\nET")
    font = b.add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    page = b.add(
        f"<< /Type /Page /Parent 0 0 R /Resources << /Font << /F1 {font} 0 R >> >> "
        f"/Contents {content} 0 R >>".encode()
    )
    pages = b.add(f"<< /Type /Pages /Kids [ {page} 0 R ] /Count 1 >>".encode())
    nest = opener * depth + leaf + closer * depth
    return b.build(b.add(f"<< /Type /Catalog /Pages {pages} 0 R /Nest ".encode() + nest + b" >>"))


def test_nesting_gives_error_rows():
    # 3,000 nested dictionaries (a 28 KB payload) once overflowed the
    # recursive dictionary parser: a RecursionError out of extract_row
    # failed the whole task
    r = extract_row(encode_pdf_payload(_nested_catalog_pdf(3000, b"<< /A ", b" >>", b"1")))
    assert r["parse_status"] == "error:Nesting"
    r = extract_row(encode_pdf_payload(_nested_catalog_pdf(3000, b"[", b"]")))
    assert r["parse_status"].startswith("error:")
    # up to the bound, nesting parses: the page text is still extracted
    for depth in (1, 100, 990):
        r = extract_row(encode_pdf_payload(_nested_catalog_pdf(depth, b"<< /A ", b" >>", b"1")))
        assert r["parse_status"] == "ok" and "Hello nest!" in r["extracted_text"], depth


def _self_referencing_pdfs() -> dict[str, bytes]:
    """pdf_hello with one edit that the reference recurses on until its
    stack overflows, keyed by the error row it must become: a trailer
    /Prev naming its own xref section, and a /Pages node (object 4)
    that lists itself in /Kids."""
    hello = pdf_hello("loop")
    startxref = hello.rsplit(b"startxref", 1)[1].split()[0]
    docs = {
        "error:XRef": hello.replace(b"/Root 5 0 R >>", b"/Root 5 0 R /Prev " + startxref + b" >>"),
        "error:PageTree": hello.replace(b"/Kids [ 3 0 R ]", b"/Kids [ 4 0 R ]"),
    }
    assert all(d != hello for d in docs.values())
    return docs


def test_every_row_kind_has_the_schema_fields_in_order():
    # _result names its keys; they must stay the OUTPUT_SCHEMA columns
    for text in ("plain", "<html><p>x</p></html>", "%PDF-B85:\x00", encode_pdf_payload(pdf_hello("k")), "%PDF-junk"):
        assert tuple(extract_row(text)) == RESULT_FIELDS, text


def test_self_referencing_documents_give_error_rows():
    for status, doc in _self_referencing_pdfs().items():
        r = extract_row(encode_pdf_payload(doc))
        assert (r["payload_kind"], r["parse_status"]) == ("pdf", status), r


def test_self_referencing_documents_do_not_fail_a_run(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.fixtures.corpus import TRANSCRIPTS_SCHEMA
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from pdfrust_ray.sources.transcripts import read_transcripts

    texts = [encode_pdf_payload(d) for d in _self_referencing_pdfs().values()]
    texts += ["plain turn", encode_pdf_payload(pdf_hello("ok"))]
    rows = [
        {"conv_id": "loop", "turn_idx": i, "role": "tool", "text": t, "tool": "pdf_render", "ts": 0}
        for i, t in enumerate(texts)
    ]
    (tmp_path / "shards").mkdir()
    for s in range(2):
        pq.write_table(
            pa.Table.from_pylist(rows[s::2], schema=TRANSCRIPTS_SCHEMA),
            str(tmp_path / "shards" / f"part-{s:04d}.parquet"),
        )
    out = build_extraction(read_transcripts(str(tmp_path / "shards")), batch_size=1).to_pandas()
    assert list(out["parse_status"]) == ["error:XRef", "error:PageTree", "ok", "ok"]
    assert list(out["extracted_text"])[2:] == ["plain turn", "Hello ok!"]


def test_page_reached_twice_through_a_dag_extracts_twice():
    # the ancestor check follows the current path only: two /Kids
    # entries naming the same /Pages node are not a cycle
    b = PdfBuilder()
    content = b.add_stream("", b"BT\n70 50 TD\n/F1 12 Tf\n(Hello dag!) Tj\nET")
    font = b.add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    page = b.add(
        f"<< /Type /Page /Parent 0 0 R /Resources << /Font << /F1 {font} 0 R >> >> "
        f"/Contents {content} 0 R >>".encode()
    )
    inner = b.add(f"<< /Type /Pages /Kids [ {page} 0 R ] /Count 1 >>".encode())
    pages = b.add(f"<< /Type /Pages /Kids [ {inner} 0 R {inner} 0 R ] /Count 2 >>".encode())
    r = extract_row(encode_pdf_payload(b.build(b.add(f"<< /Type /Catalog /Pages {pages} 0 R >>".encode()))))
    assert (r["parse_status"], r["n_pages"], r["extracted_text"]) == ("ok", 2, "Hello dag!\nHello dag!")


def test_flate_bomb_is_bounded():
    # 10x-buffer quirk also bounds decompression memory (filters.rs:7)
    bomb = zlib.compress(b"\0" * 100_000_000, 9)
    from pdfrust_ray.pdfref.filters import flate_decode

    out = flate_decode(bomb)
    assert len(out) == len(bomb) * 10  # truncated at 10x, not 100 MB


@settings(max_examples=120, deadline=None)
@given(st.text(max_size=500))
def test_html_extractor_total_and_deterministic(text):
    from pdfrust_ray.html import extract_main_text

    html = "<html><body>" + text + "</body></html>"
    a = extract_main_text(html)
    b = extract_main_text(html)
    assert a == b  # deterministic


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(["<div>", "</div>", "<p>", "<b>", "</i>", "<table>", "<td>",
                                 "text ", "&amp;", "<script>x</script>", "<a href=x>l</a>",
                                 "<br>", "<nav>n</nav>", "</p>", "<!--c-->"]), max_size=30))
def test_html_extractor_on_tag_soup(parts):
    from pdfrust_ray.html import extract_main_text

    out = extract_main_text("".join(parts))
    assert isinstance(out, str)
