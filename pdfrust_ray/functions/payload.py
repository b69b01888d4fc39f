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

from ..html import extract_main_text
from ..pdfref import ParseError, extract

B85_PREFIX = "%PDF-B85:"
PDF_PREFIX = "%PDF-"

KIND_PDF = "pdf"
KIND_HTML = "html"
KIND_PLAIN = "plain"


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


def extract_row(text: str, mode: str = "text", cmap_cache=None, spec_mode: bool = False) -> dict:
    """Extract one turn. Returns the output-row columns.

    spec_mode=True switches PDF xref resolution to the ISO 32000-1
    layer (PDF 1.5+ xref streams / ObjStm / predictors) instead of the
    reference's bug-parity behavior — see pdfref/xref_spec.py."""
    kind = detect_kind(text)
    if kind == KIND_PDF:
        try:
            data = payload_bytes(text)
        except ValueError as exc:
            return {
                "payload_kind": kind,
                "extracted_text": "",
                "parse_status": "error:B85",
                "n_pages": 0,
                "bytes_decoded": 0,
                "error": str(exc)[:200],
            }
        try:
            r = extract(data, mode, cmap_cache=cmap_cache, spec_mode=spec_mode)
            return {
                "payload_kind": kind,
                "extracted_text": r.text,
                "parse_status": "ok",
                "n_pages": r.n_pages,
                "bytes_decoded": len(data),
                "error": "",
            }
        except ParseError as exc:
            return {
                "payload_kind": kind,
                "extracted_text": "",
                "parse_status": f"error:{exc.kind}",
                "n_pages": 0,
                "bytes_decoded": len(data),
                "error": exc.message[:200],
            }
        except RecursionError:
            raise  # let pathological nesting surface, not masquerade as data
        except Exception as exc:  # noqa: BLE001 — total function by design
            # any unclassified parser exception on adversarial bytes maps
            # to an error ROW (UDFs must be total: Ray task retries are
            # reserved for infra faults, SURVEY §4)
            return {
                "payload_kind": kind,
                "extracted_text": "",
                "parse_status": f"error:Internal:{type(exc).__name__}",
                "n_pages": 0,
                "bytes_decoded": len(data),
                "error": str(exc)[:200],
            }
    if kind == KIND_HTML:
        try:
            out = extract_main_text(text)
            return {
                "payload_kind": kind,
                "extracted_text": out,
                "parse_status": "ok",
                "n_pages": 0,
                "bytes_decoded": len(text.encode("utf-8")),
                "error": "",
            }
        except Exception as exc:  # html.parser is tolerant; belt-and-braces
            return {
                "payload_kind": kind,
                "extracted_text": "",
                "parse_status": "error:Html",
                "n_pages": 0,
                "bytes_decoded": len(text.encode("utf-8")),
                "error": str(exc)[:200],
            }
    return {
        "payload_kind": KIND_PLAIN,
        "extracted_text": text,
        "parse_status": "ok",
        "n_pages": 0,
        "bytes_decoded": len(text.encode("utf-8")),
        "error": "",
    }
