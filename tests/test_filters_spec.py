"""Spec-mode stream filter family (ISO 32000-1 7.4).

The reference supports FlateDecode only — any other /Filter name panics
(body.rs:47-54), and filters.rs:4-14 is the only decoder. These filters
exist on the spec_mode=True path (like xref streams / Form XObjects) so
real-world PDFs extract instead of erroring; parity mode must keep
rejecting them exactly like the reference.

Oracles: the PDF/TIFF spec's published LZW example vector, stdlib
base85 (`base64.a85decode`) as an independent ASCII85 implementation,
and hand-computed RunLength/ASCIIHex vectors.
"""

import base64
import random

import pytest

from pdfrust_ray.fixtures.pdfgen import pdf_filtered
from pdfrust_ray.pdfref import ParseError, extract
from pdfrust_ray.pdfref.filters import (
    ascii85_decode,
    asciihex_decode,
    lzw_decode_pdf,
    lzw_encode_pdf,
    runlength_decode,
)

FILTERS = ["ASCIIHexDecode", "ASCII85Decode", "RunLengthDecode", "LZWDecode"]

# spec-mode streams beyond one filter name: /Filter arrays and PNG
# predictors, decoded by the same filter chain as xref streams
CHAINS = [
    pytest.param(["FlateDecode"], {}, id="FlateDecode-array"),
    pytest.param(["ASCIIHexDecode", "FlateDecode"], {}, id="ASCIIHexDecode-FlateDecode-array"),
    pytest.param("FlateDecode", {"columns": 8}, id="FlateDecode-predictor12"),
]


class TestAsciiHex:
    def test_basic(self):
        assert asciihex_decode(b"48 65 6C 6C 6F>") == b"Hello"

    def test_odd_digit_padded(self):
        # 7.4.2: a final odd digit behaves as if followed by 0
        assert asciihex_decode(b"417>") == b"Ap"

    def test_whitespace_ignored_and_eod_stops(self):
        assert asciihex_decode(b"4\n1 42>4343") == b"AB"

    def test_bad_char(self):
        with pytest.raises(ParseError):
            asciihex_decode(b"4G>")


class TestAscii85:
    def test_matches_stdlib_on_random_payloads(self):
        rng = random.Random(85)
        for n in [0, 1, 2, 3, 4, 5, 63, 64, 65, 400]:
            data = bytes(rng.randrange(0, 256) for _ in range(n))
            assert ascii85_decode(base64.a85encode(data) + b"~>") == data

    def test_z_shortcut(self):
        assert ascii85_decode(b"z~>") == b"\0\0\0\0"

    def test_z_inside_group_rejected(self):
        with pytest.raises(ParseError):
            ascii85_decode(b"!z~>")

    def test_single_trailing_char_rejected(self):
        with pytest.raises(ParseError):
            ascii85_decode(b"!!!!!" + b"!" + b"~>")

    def test_group_overflow_rejected(self):
        with pytest.raises(ParseError):
            ascii85_decode(b"uuuuu~>")  # 85^5-ish > 2^32

    def test_whitespace_ignored(self):
        data = b"ray data engine"
        enc = base64.a85encode(data)
        spaced = b" ".join(bytes([c]) for c in enc) + b" ~>"
        assert ascii85_decode(spaced) == data


class TestRunLength:
    def test_literal_and_repeat_runs(self):
        enc = bytes([2]) + b"abc" + bytes([254]) + b"x" + bytes([128])
        assert runlength_decode(enc) == b"abcxxx"

    def test_truncated_literal(self):
        with pytest.raises(ParseError):
            runlength_decode(bytes([5]) + b"ab")

    def test_truncated_repeat(self):
        with pytest.raises(ParseError):
            runlength_decode(bytes([200]))

    def test_missing_eod(self):
        with pytest.raises(ParseError):
            runlength_decode(bytes([0]) + b"a")


class TestLzw:
    def test_pdf_spec_example_vector(self):
        # ISO 32000-1 7.4.4.2 / TIFF 6.0 published example
        spec_in = b"-----A---B"
        spec_enc = bytes([0x80, 0x0B, 0x60, 0x50, 0x22, 0x0C, 0x0C, 0x85, 0x01])
        assert lzw_decode_pdf(spec_enc) == spec_in
        assert lzw_encode_pdf(spec_in) == spec_enc

    @pytest.mark.parametrize("early", [0, 1])
    def test_roundtrip_across_width_boundaries(self, early):
        # dictionary crosses 9->10->11 bits and forces a mid-stream reset
        data = bytes((i * 7) % 256 for i in range(3000)) + bytes(range(256)) * 4
        assert lzw_decode_pdf(lzw_encode_pdf(data, early), early) == data

    def test_early_change_streams_differ(self):
        data = bytes((i * 3) % 250 for i in range(2000))
        assert lzw_encode_pdf(data, 0) != lzw_encode_pdf(data, 1)
        # and cross-decoding with the wrong EarlyChange fails or mismatches
        enc0 = lzw_encode_pdf(data, 0)
        try:
            assert lzw_decode_pdf(enc0, 1) != data
        except ParseError:
            pass

    def test_missing_eod(self):
        with pytest.raises(ParseError):
            lzw_decode_pdf(bytes([0x80, 0x0B]))

    def test_code_out_of_range(self):
        # clear(256) then code 300 with an empty table
        bits = "100000000" + format(300, "09b")
        raw = int(bits, 2).to_bytes(3, "big")  # 18 bits -> pad to 24
        with pytest.raises(ParseError):
            lzw_decode_pdf(raw)


class TestEndToEnd:
    """Through Stream.get_data on the extraction path."""

    @pytest.mark.parametrize("filt, kw", [pytest.param(f, {}, id=f) for f in FILTERS] + CHAINS)
    def test_spec_mode_extracts(self, filt, kw):
        data = pdf_filtered("u9", filt, **kw)
        names = " ".join([filt] if isinstance(filt, str) else filt)
        assert extract(data, "text", spec_mode=True).text == f"filter {names} u9"

    @pytest.mark.parametrize(
        "filt, message",
        [pytest.param(f, f"Filter name '{f}' is currently not supported", id=f) for f in FILTERS]
        + [pytest.param(["FlateDecode"], "Filter should be a name", id="FlateDecode-array")],
    )
    def test_parity_rejects_like_reference(self, filt, message):
        # body.rs:47-54: any non-Flate name, and any array, is an error
        # in the reference
        data = pdf_filtered("u9", filt)
        with pytest.raises(ParseError) as err:
            extract(data, "text")
        assert (err.value.kind, err.value.message) == ("Stream", message)

    @pytest.mark.parametrize("early", [0, 1])
    def test_lzw_decodeparms_early_change(self, early):
        data = pdf_filtered("u9", "LZWDecode", early_change=early)
        assert (
            extract(data, "text", spec_mode=True).text == "filter LZWDecode u9"
        )

    def test_corrupt_filter_payload_is_error_row_material(self):
        data = pdf_filtered("u9", "ASCII85Decode")
        broken = data.replace(b"~>", b"uuuuu~>", 1)
        with pytest.raises(ParseError):
            extract(broken, "text", spec_mode=True)

    def test_broken_construct_reports_decode_error(self):
        from pdfrust_ray.fixtures.pdfgen import pdf_filtered_broken
        from pdfrust_ray.functions.payload import encode_pdf_payload, extract_row

        g = extract_row(
            encode_pdf_payload(pdf_filtered_broken("u9")), mode="text", spec_mode=True
        )
        assert g["parse_status"] == "error:ASCII85"
        assert g["error"] == "group value overflow"

    def test_filters_pipeline_matches_golden(self, ray_session, tmp_path):
        import duckdb

        from pdfrust_ray.fixtures.corpus import ensure_filters_fixture
        from pdfrust_ray.pipelines.extract_pipeline import build_extraction
        from pdfrust_ray.sources.transcripts import read_transcripts

        d = ensure_filters_fixture(str(tmp_path / "filters"))
        ds = read_transcripts(d)
        out = (
            build_extraction(ds, mode="text", batch_size=16, concurrency=2, spec_mode=True)
            .to_pandas()
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        golden = con.execute(
            f"SELECT * FROM read_parquet('{d}/golden.parquet') ORDER BY conv_id, turn_idx"
        ).df()
        assert len(out) == len(golden) == 64
        got = out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
        for col in ("conv_id", "turn_idx", "extracted_text", "parse_status", "error"):
            assert got[col].tolist() == golden[col].tolist(), col
        # every filter really decoded, and the corrupt variant errored
        ok = got[got["parse_status"] == "ok"]["extracted_text"]
        for filt in FILTERS:
            assert ok.str.contains(f"filter {filt} ").any(), filt
        assert (got["parse_status"] == "error:ASCII85").sum() == 8
