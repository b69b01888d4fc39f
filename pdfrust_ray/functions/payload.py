"""Per-turn payload detection and extraction (the row-level semantics).

This module is the single source of truth for what one transcript turn
extracts to: the Ray pipeline applies it per batch in task workers,
and the fixture golden generator applies it serially — so pipeline
output can be compared to goldens per (conv_id, turn_idx).

Payload kinds in the `text` column (FIXTURES.md §1):
  - "%PDF-B85:" + ascii85  -> pdf (binary payload, base85-bridged)
  - "%PDF-"  raw           -> pdf (latin-1-safe PDFs carried verbatim)
  - leading "<!doctype html" / "<html"  -> html
  - anything else          -> plain (identity extraction)

PDF extraction = the reference-semantics library (pdfrust parity, see
pdfrust_ray.pdfref); HTML = DOM-heuristic boilerplate strip; errors the
reference would panic on become parse_status="error:<kind>" rows.
"""

from __future__ import annotations

import base64

import pyarrow as pa

from ..html import extract_main_text
from ..pdfref import ParseError, extract
from ..pdfref.extract import INFO_KEYS

B85_PREFIX = "%PDF-B85:"
PDF_PREFIX = "%PDF-"

KIND_PDF = "pdf"
KIND_HTML = "html"
KIND_PLAIN = "plain"

# the extraction output row: the turn key, then what extract_row returns
OUTPUT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("payload_kind", pa.string()),
        ("extracted_text", pa.large_string()),
        ("parse_status", pa.string()),
        ("n_pages", pa.int32()),
        ("bytes_decoded", pa.int64()),
        ("error", pa.string()),
    ]
)
RESULT_FIELDS = tuple(OUTPUT_SCHEMA.names[2:])

INFO_FIELDS = tuple(field for field, _ in INFO_KEYS)
# the info row: the turn key, one string per INFO_FIELDS entry, the status
INFO_SCHEMA = pa.schema(
    [OUTPUT_SCHEMA.field("conv_id"), OUTPUT_SCHEMA.field("turn_idx")]
    + [(f, pa.string()) for f in INFO_FIELDS]
    + [OUTPUT_SCHEMA.field("parse_status")]
)


def detect_kind(text: str) -> str:
    if text.startswith(B85_PREFIX) or text.startswith(PDF_PREFIX):
        return KIND_PDF
    head = text[:64].lstrip().lower()
    if head.startswith("<!doctype html") or head.startswith("<html"):
        return KIND_HTML
    return KIND_PLAIN


def payload_bytes(text: str) -> bytes:
    """Recover the PDF byte payload from its string carrier."""
    if text.startswith(B85_PREFIX):
        return base64.a85decode(text[len(B85_PREFIX):])
    return text.encode("latin-1")


def encode_pdf_payload(data: bytes) -> str:
    """Inverse of payload_bytes, used by the fixture generator: carry
    mostly-ASCII PDFs verbatim (latin-1), base85-bridge binary ones."""
    if sum(b >= 0x80 for b in data) * 20 < len(data):
        return data.decode("latin-1")
    return B85_PREFIX + base64.a85encode(data).decode("ascii")


def _result(kind: str, status: str = "ok", text: str = "", n_pages: int = 0,
            n_bytes: int = 0, error: str = "") -> dict:
    """One output row without its (conv_id, turn_idx) key, keyed by name
    in RESULT_FIELDS order (tests/test_fuzz.py pins the keys)."""
    return {
        "payload_kind": kind,
        "extracted_text": text,
        "parse_status": status,
        "n_pages": n_pages,
        "bytes_decoded": n_bytes,
        "error": error,
    }


def extract_row(text: str, mode: str = "text", cmap_cache=None, spec_mode: bool = False) -> dict:
    """Extract one turn. Returns the output-row columns after the key.

    spec_mode=True switches PDF xref resolution to the ISO 32000-1
    layer (PDF 1.5+ xref streams / ObjStm / predictors) instead of the
    reference's bug-parity behavior — see pdfref/xref_spec.py."""
    kind = detect_kind(text)
    if kind == KIND_PDF:
        try:
            data = payload_bytes(text)
        except ValueError as exc:
            return _result(kind, "error:B85", error=str(exc)[:200])
        try:
            r = extract(data, mode, cmap_cache=cmap_cache, spec_mode=spec_mode)
            return _result(kind, "ok", r.text, r.n_pages, len(data))
        except ParseError as exc:
            return _result(kind, f"error:{exc.kind}", n_bytes=len(data), error=exc.message[:200])
        except Exception as exc:  # noqa: BLE001 — total function by design
            # any unclassified parser exception on adversarial bytes
            # (RecursionError included) maps to an error ROW (UDFs must
            # be total: Ray task retries are reserved for infra faults,
            # SURVEY §4)
            status = f"error:Internal:{type(exc).__name__}"
            return _result(kind, status, n_bytes=len(data), error=str(exc)[:200])
    n_bytes = len(text.encode("utf-8"))
    if kind == KIND_HTML:
        try:
            return _result(kind, "ok", extract_main_text(text), n_bytes=n_bytes)
        except Exception as exc:  # html.parser is tolerant; belt-and-braces
            return _result(kind, "error:Html", n_bytes=n_bytes, error=str(exc)[:200])
    return _result(KIND_PLAIN, "ok", text, n_bytes=n_bytes)
