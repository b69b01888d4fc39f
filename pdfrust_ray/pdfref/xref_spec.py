"""Spec-mode cross-reference resolution for PDF 1.5+ documents.

The reference's own xref-STREAM path is effectively broken: its
`get_catalog_offset` is a `Some(0)` stub (xref.rs:331-333), any
`DecodeParms` panics (xref.rs:368-376), type-2 (compressed-object)
entries are only partially handled (xref.rs:350), and the only
xref-stream fixture test is disabled (tests/integration.rs:44-50).
The default engine path replicates that brokenness for parity
(xref.py::XRefStream).

This module is the opt-in `spec_mode=True` replacement that real
corpora need (most modern PDFs are 1.5+): ISO 32000-1 compliant
xref-stream parsing (PNG predictors, multi-pair Index, zero-width W
defaults), type-2 entries resolved through /ObjStm object streams,
classic-table sections with multiple subsections, /Prev chains mixing
both forms, and hybrid-reference /XRefStm keys.

SpecXRef states the same interface as XRefTable/XRefStream
(`spec_mode`, `decryptor`, `encrypt`, `info`, `get_and_fix`,
`get_catalog_offset`), so the other layers read the dialect from the
xref instead of working it out again. Objects that live inside an
object stream get a NEGATIVE address handle, which `objects.object_at`
routes back to `SpecXRef.compressed_object`. Xref and object streams
decode through the same filter chain as every other spec-mode stream
(filters.spec_chain/spec_decode), and offsets go through the same
repair scan as the parity table (xref.fix_offset).
"""

from __future__ import annotations

from .errors import ParseError
from .filters import spec_chain, spec_decode
from .numbers import Number
from .objects import Ref, StreamObj, parse_object
from .tokenizer import NUM, STR, Lemmatizer, Tokenizer
from .xref import XRefTable, fix_offset


def _as_int(v, what: str) -> int:
    if not (isinstance(v, Number) and v.is_int):
        raise ParseError("XRef", f"{what} should be an integer")
    return v.val


class SpecXRef:
    """ISO-compliant xref for spec mode; entries keyed by object number
    (generations are not tracked separately — real 1.5+ files use gen 0
    for everything reachable through an xref stream)."""

    spec_mode = True

    __slots__ = (
        "data", "entries", "root", "info", "encrypt",
        "id0", "decryptor", "_handles", "_objstm",
    )

    def __init__(self, data: bytes, offset: int):
        self.data = data
        # obj_num -> ("o", byte_offset) | ("c", objstm_num, idx) | ("f",)
        self.entries: dict[int, tuple] = {}
        self.root = None
        self.info = None
        self.encrypt = None
        self.id0 = b""  # first /ID element (encryption key derivation)
        self.decryptor = None  # StdDecryptor once /Encrypt is resolved
        self._handles: list[tuple[int, int]] = []  # negative-address table
        self._objstm: dict[int, tuple[bytes, list[tuple[int, int]]]] = {}
        self._parse_section(offset, set())

    # ---- section parsing -------------------------------------------------

    def _parse_section(self, offset: int, seen: set) -> None:
        if offset in seen:  # cycle guard on Prev chains
            return
        seen.add(offset)
        tok = Tokenizer(self.data, offset)
        peek = tok.clone().next()
        if peek is None:
            raise ParseError("XRef", "End of stream at xref offset")
        if peek[0] == STR:
            self._parse_classic(tok, seen)
        elif peek[0] == NUM:
            # parsed in the spec dialect: an unfiltered xref stream
            # starts with the free-list head's NUL bytes, which the
            # parity stream positioning would skip as whitespace
            obj = parse_object(Lemmatizer(self.data, offset, self))
            if not isinstance(obj, StreamObj):
                raise ParseError("XRef", f"Xref object cannot be of type {obj!r}")
            self._parse_stream_section(obj, seen)
        else:
            raise ParseError("XRef", "Xref object or string 'xref' not found")

    def _parse_classic(self, tok: Tokenizer, seen: set) -> None:
        t = tok.next()
        if t is None or t[0] != STR or t[1] != b"xref":
            raise ParseError("XRef", f"expected 'xref', found {t!r}")
        # spec mode: ANY number of subsections (the parity parser keeps
        # the reference's single-subsection quirk, xref.rs:94-109)
        pending: list[tuple[int, tuple]] = []
        while True:
            peek = tok.clone().next()
            if peek is None:
                raise ParseError("XRef", "End of file in xref table")
            if peek[0] == STR:  # 'trailer'
                break
            start = _as_int(tok.next()[1], "subsection start")
            count = _as_int(tok.next()[1], "subsection count")
            for num in range(start, start + count):
                f1, gen, in_use = XRefTable._read_subsection_entry(tok)
                pending.append((num, ("o", f1) if in_use else ("f",)))
        t = tok.next()
        if t is None or t[0] != STR or t[1] != b"trailer":
            raise ParseError("XRef", f"expected 'trailer', found {t!r}")
        trailer = parse_object(Lemmatizer(self.data, tok.pos, self))
        if not isinstance(trailer, dict):
            raise ParseError("XRef", "Trailer should be a dictionary")
        # hybrid-reference: the /XRefStm stream's entries describe the
        # compressed objects this table lists as free — apply it FIRST
        # so its type-2 entries win over the table's free markers
        xrefstm = trailer.get("XRefStm")
        if xrefstm is not None:
            self._parse_section(_as_int(xrefstm, "XRefStm"), seen)
        for num, loc in pending:
            self.entries.setdefault(num, loc)
        self._take_trailer_fields(trailer)
        prev = trailer.get("Prev")
        if prev is not None:
            self._parse_section(_as_int(prev, "Prev"), seen)

    def _parse_stream_section(self, s: StreamObj, seen: set) -> None:
        h = s.header
        size = _as_int(h.get("Size"), "Size")
        w = h.get("W")
        if not isinstance(w, list) or len(w) < 3:
            raise ParseError("XRef", "xref stream W is required, len 3")
        w = tuple(x.as_usize() for x in w[:3])
        index = h.get("Index")
        if index is None:
            pairs = [(0, size)]
        else:
            if not isinstance(index, list) or len(index) % 2 != 0:
                raise ParseError("XRef", "Index must hold (start, count) pairs")
            pairs = [
                (index[i].as_usize(), index[i + 1].as_usize()) for i in range(0, len(index), 2)
            ]
        raw = spec_decode(s.data, spec_chain(h))
        esz = sum(w)
        pos = 0
        for start, count in pairs:
            for i in range(count):
                entry = raw[pos : pos + esz]
                pos += esz
                if len(entry) < esz:
                    raise ParseError("XRef", "xref stream entry out of range")
                o = 0
                f1 = int.from_bytes(entry[: w[0]], "big") if w[0] else 1  # type defaults to 1
                o += w[0]
                f2 = int.from_bytes(entry[o : o + w[1]], "big")
                o += w[1]
                f3 = int.from_bytes(entry[o : o + w[2]], "big")
                num = start + i
                if f1 == 1:
                    self.entries.setdefault(num, ("o", f2))
                elif f1 == 2:
                    self.entries.setdefault(num, ("c", f2, f3))
                elif f1 == 0:
                    self.entries.setdefault(num, ("f",))
                else:
                    raise ParseError("XRef", f"xref stream entry type {f1} invalid")
        self._take_trailer_fields(h)
        prev = h.get("Prev")
        if prev is not None:
            self._parse_section(_as_int(prev, "Prev"), seen)

    def _take_trailer_fields(self, d: dict) -> None:
        root = d.get("Root")
        if self.root is None and isinstance(root, Ref):
            self.root = root.key()
        info = d.get("Info")
        if self.info is None and isinstance(info, Ref):
            self.info = info.key()
        enc = d.get("Encrypt")
        if self.encrypt is None and isinstance(enc, Ref):
            self.encrypt = enc.key()
        fid = d.get("ID")
        if not self.id0 and isinstance(fid, list) and fid and isinstance(fid[0], bytes):
            self.id0 = bytes(fid[0])

    # ---- object resolution ----------------------------------------------

    def get_and_fix(self, key, data: bytes):
        loc = self.entries.get(key[0])
        if loc is None:
            return None
        if loc[0] == "f":
            raise ParseError("XRef", "XReftable object was freed")
        if loc[0] == "o":
            return fix_offset(key, loc[1], data)
        self._handles.append((loc[1], loc[2]))
        return -len(self._handles)

    def get_catalog_offset(self):
        if self.root is None:
            raise ParseError("XRef", "trailer has no Root")
        return self.get_and_fix(self.root, self.data)

    def _load_objstm(self, stm_num: int):
        cached = self._objstm.get(stm_num)
        if cached is not None:
            return cached
        loc = self.entries.get(stm_num)
        if loc is None or loc[0] != "o":
            raise ParseError("XRef", f"object stream {stm_num} not found at a byte offset")
        addr = fix_offset((stm_num, 0), loc[1], self.data)
        obj = parse_object(Lemmatizer(self.data, addr, self), self)
        if not isinstance(obj, StreamObj):
            raise ParseError("XRef", f"object {stm_num} is not a stream")
        n = _as_int(obj.header.get("N"), "ObjStm N")
        first = _as_int(obj.header.get("First"), "ObjStm First")
        content = spec_decode(obj.data, spec_chain(obj.header))
        tok = Tokenizer(content, 0)
        offsets: list[tuple[int, int]] = []
        for _ in range(n):
            t1 = tok.next()
            t2 = tok.next()
            if t1 is None or t2 is None or t1[0] != NUM or t2[0] != NUM:
                raise ParseError("XRef", "ObjStm header pair malformed")
            offsets.append((t1[1].val, first + t2[1].val))
        cached = (content, offsets)
        self._objstm[stm_num] = cached
        return cached

    def compressed_object(self, handle: int):
        """Resolve a negative address from get_and_fix: parse the idx-th
        object out of its /ObjStm (decompressed once, cached)."""
        stm_num, idx = self._handles[-1 - handle]
        content, offsets = self._load_objstm(stm_num)
        if idx >= len(offsets):
            raise ParseError("XRef", f"ObjStm index {idx} out of range")
        return parse_object(Lemmatizer(content, offsets[idx][1], self), self)


__all__ = ["SpecXRef"]
