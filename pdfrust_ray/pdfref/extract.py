"""Top-level document extraction entry points.

Pins /root/reference/src/lib.rs + src/main.rs:
  - Pdf::from(Vec<u8>): trim ASCII whitespace, require trailing
    "%%EOF" (lib.rs:63-67), locate `startxref` in the ORIGINAL bytes
    (lib.rs:68) but parse the xref against the TRIMMED bytes
    (lib.rs:69); object parsing then uses the ORIGINAL bytes
    (lib.rs:70, `file: value`).
  - Pdf::extract: catalog offset from the xref, Catalog parse, extract
    per mode (lib.rs:75-80); modes Text/Chars/Font/RawContent
    (lib.rs:16-21 / main.rs:20-26).
  - Info metadata reader (src/info.rs:23-75): library-only in the
    reference (never called by the CLI) — exposed as extract_info.
"""

from __future__ import annotations

from dataclasses import dataclass

from .body import Catalog, DocCtx
from .errors import ParseError
from .objects import HexString, PdfString, object_at
from .xref import parse_xref, startxref

# Rust trim_ascii / u8::is_ascii_whitespace: space, \t, \n, \x0C, \r (no \x0B)
_ASCII_WS = b"\t\n\x0c\r "

MODES = ("text", "chars", "font", "raw-content")

# (output field, Info dictionary key) of every entry extract_info reads
INFO_KEYS = (
    ("title", "Title"),
    ("author", "Author"),
    ("creator", "Creator"),
    ("producer", "Producer"),
    ("creation_date", "CreationDate"),
    ("mod_date", "ModDate"),
)

_VERSIONS = {b"1.3": "1.3", b"1.4": "1.4", b"1.5": "1.5", b"1.6": "1.6", b"1.7": "1.7"}


def pdf_version(header: bytes) -> str:
    """Version sniff from the last 3 bytes of a header slice
    (lib.rs:44-53); unsupported versions panic -> ParseError.

    Library-only in the reference (never called on the main path)."""
    tail = header[-3:]
    v = _VERSIONS.get(bytes(tail))
    if v is None:
        raise ParseError("Version", "Pdf version not supported")
    return v


@dataclass
class Extracted:
    text: str
    n_pages: int
    bytes_len: int


class LruCache:
    """LRU bounded by the total cost of its entries. At cost 1 (the
    default) it is an entry-count LRU, as the cross-payload CMap cache
    uses it; the whole-result cache passes each entry's bytes, since
    one huge payload is worth thousands of small ones. An entry
    costlier than the cap is not cached."""

    __slots__ = ("cap", "size", "d")

    def __init__(self, cap: int = 256):
        self.cap = cap
        self.size = 0
        self.d: dict = {}  # key -> (cost, value), oldest first

    def get(self, key):
        e = self.d.pop(key, None)
        if e is None:
            return None
        self.d[key] = e
        return e[1]

    def put(self, key, value, cost: int = 1) -> None:
        if cost > self.cap:
            return
        old = self.d.pop(key, None)
        if old is not None:
            self.size -= old[0]
        while self.size + cost > self.cap and self.d:
            self.size -= self.d.pop(next(iter(self.d)))[0]
        self.d[key] = (cost, value)
        self.size += cost


def _load(data: bytes, cmap_cache=None, spec_mode: bool = False) -> tuple[DocCtx, object]:
    """The document context and its xref. The dialect is chosen here,
    once: every later layer reads it from the xref's `spec_mode`,
    `decryptor`, `encrypt` and `info`."""
    trimmed = data.strip(_ASCII_WS)
    if len(trimmed) < 5 or trimmed[-5:] != b"%%EOF":
        raise ParseError("Eof", "PDF file is corrupted; not consistent trailing charaters")
    sx = startxref(data)
    if spec_mode:
        # spec mode (PDF 1.5+): ISO-compliant xref streams / ObjStm /
        # predictors against the ORIGINAL bytes (see xref_spec.py)
        from .xref_spec import SpecXRef

        xref = SpecXRef(data, sx)
    else:
        xref = parse_xref(trimmed, sx)
    # object parsing uses the original bytes (lib.rs:70); offsets refer to
    # the trimmed buffer, so any leading whitespace triggers the repair scan
    ctx = DocCtx(data, xref, cmap_cache)
    #
    # Encrypted-document signalling: the reference only type-checks the
    # trailer Encrypt entry (xref.rs:136-139) and then fails later with
    # whatever generic error the encrypted streams produce. A distinct,
    # early status row is the real-user behavior: strings/streams of an
    # encrypted document are ciphertext, so continuing can only mislead.
    # Spec mode goes further: resolve the /Encrypt dict and attach a
    # standard-security-handler decryptor (empty user password, RC4 or
    # AES-128 — see crypt.py); password-protected or unsupported
    # handlers still become error rows.
    if xref.encrypt is not None:
        if xref.spec_mode:
            from .crypt import build_decryptor

            enc = ctx.resolve(xref.encrypt)
            if enc is None:
                raise ParseError("Encrypted", "/Encrypt object not found")
            if not isinstance(enc, dict):
                raise ParseError("Encrypted", "/Encrypt is not a dictionary")
            xref.decryptor = build_decryptor(enc, xref.id0)
        else:
            raise ParseError(
                "Encrypted",
                "document uses encryption (trailer /Encrypt present); decryption unsupported",
            )
    return ctx, xref


def extract(data: bytes, mode: str = "text", cmap_cache=None, spec_mode: bool = False) -> Extracted:
    """Full-document extraction, reference-equivalent.

    Raises ParseError wherever the reference would panic. With
    spec_mode=True the xref layer follows ISO 32000-1 instead of the
    reference's (broken) 1.5+ behavior — content-stream semantics are
    unchanged.
    """
    if mode not in MODES:
        raise ParseError("Mode", f"unknown mode {mode!r}")
    ctx, xref = _load(data, cmap_cache, spec_mode=spec_mode)
    offset = xref.get_catalog_offset()
    if offset is None:
        raise ParseError("Catalog", "catalog offset not found")
    obj = object_at(ctx.data, offset, xref)
    if not isinstance(obj, dict):
        raise ParseError("Catalog", f"Catalog should be a dictionary, found {obj!r}")
    catalog = Catalog(obj, ctx)
    text = catalog.extract(mode)
    return Extracted(text=text, n_pages=catalog.n_pages(), bytes_len=len(data))


def extract_info(data: bytes, spec_mode: bool = False) -> dict:
    """Trailer Info dict reader (info.rs:23-75).

    spec_mode additionally accepts hex strings for every field (decoded
    UTF-8, "" on error) — encrypted documents store Info strings as hex
    so they survive the parser's UTF-8-strict literal strings, and the
    decryptor hands back their plaintext bytes as HexString."""
    ctx, xref = _load(data, spec_mode=spec_mode)
    if xref.info is None:
        raise ParseError("Info", "trailer has no Info")
    d = ctx.resolve(xref.info)
    if d is None:
        raise ParseError("Info", "Info object not found")
    if not isinstance(d, dict):
        raise ParseError("Info", "Trailer should be a dictionary")
    out = {}
    for field, key in INFO_KEYS:
        v = d.get(key)
        if v is None:
            out[field] = None
        elif isinstance(v, PdfString):
            out[field] = str(v)
        elif isinstance(v, HexString) and (xref.spec_mode or key in ("Creator", "Producer")):
            try:
                out[field] = v.decode("utf-8")
            except UnicodeDecodeError:
                out[field] = ""  # info.rs:47-50
        else:
            raise ParseError("Info", f"{key} should be a string")
    return out
