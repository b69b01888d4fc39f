"""Cross-reference tables and streams — the document's object "index".

Pins /root/reference/src/xref.rs:
  - `startxref` backward scan + offset parse (xref.rs:286-309).
  - dispatch on the first token at the xref offset: bare string ->
    classic table, numeric -> xref stream object (xref.rs:44-58).
  - classic table: ONE subsection only (`start size` then `size`
    entries; a second subsection header fails the `trailer` keyword
    check, xref.rs:94-109) — quirk kept; entries keyed
    (obj#, gen#) -> (offset, in_use) (xref.rs:196-222).
  - trailer dict: Size required numeric, Root required ref, Prev
    triggers recursive parse of the previous section
    (xref.rs:117-150); lookups fall back down the Prev chain
    (xref.rs:228-243); freed objects panic (xref.rs:234).
  - offset repair: if the bytes at the recorded offset don't start
    with "{obj} {gen} obj", linear-scan for "\\n{obj} {gen} obj" and
    return position+1; no match panics (xref.rs:245-268).
  - xref STREAM: W widths / Index range / big-endian packed entries,
    FlateDecode'd payload with the 10x-buffer quirk; DecodeParms
    panics; `get_catalog_offset` is the reference's stub Some(0)
    (xref.rs:331-333) — the xref-stream path is effectively broken in
    the reference (its fixture test is disabled,
    tests/integration.rs:44-50) and we replicate that brokenness.
"""

from __future__ import annotations

from .errors import ParseError
from .filters import flate_decode
from .numbers import Number
from .objects import Ref, StreamObj, parse_object
from .tokenizer import NUM, STR, Lemmatizer, Tokenizer


def startxref(data: bytes) -> int:
    idx = data.rfind(b"startxref")
    if idx < 0:
        raise ParseError("StartXref", "startxref not found")
    tok = Tokenizer(data, idx)
    t = tok.next()
    if t is None or t[0] != STR or t[1] != b"startxref":
        raise ParseError("StartXref", f"Startxref string missing, found {t!r}")
    t = tok.next()
    if t is None or t[0] != NUM or not t[1].is_int:
        raise ParseError("StartXref", f"Startxref integer missing, found {t!r}")
    return t[1].val


def fix_offset(key, offset: int, data: bytes) -> int:
    """The repair scan (xref.rs:245-268): `offset` when the bytes there
    start with "{num} {gen} obj", else the position after the first
    "\n{num} {gen} obj" (the \n prefix avoids matching "11 0 obj" when
    looking for "1 0 obj")."""
    pattern = f"{key[0]} {key[1]} obj".encode()
    if data[offset : offset + len(pattern)] == pattern:
        return offset
    pos = data.find(b"\n" + pattern)
    if pos < 0:
        raise ParseError("XRef", f"object header {pattern!r} not found in byte stream")
    return pos + 1


class XRefTable:
    """The xref interface every layer reads, shared with XRefStream and
    xref_spec.SpecXRef: `spec_mode`, `decryptor`, `encrypt`, `info`,
    `get_and_fix(key, data)` and `get_catalog_offset()`."""

    spec_mode = False
    decryptor = None

    __slots__ = ("size", "prev", "root", "encrypt", "info", "table")

    def __init__(self):
        self.size = Number.int(0)
        self.prev = None
        self.root = None
        self.encrypt = None
        self.info = None
        self.table = {}

    @classmethod
    def _parse(cls, tok: Tokenizer, seen: frozenset) -> "XRefTable":
        t = tok.next()
        if t is None:
            raise ParseError("XRef", "End of file unexpected")
        if t[0] != STR:
            raise ParseError("XRef", f"Incorrect token at beginning of XRefTable: {t!r}")
        if t[1] != b"xref":
            raise ParseError("XRef", f"Startxref string missing, found string {t[1]!r}")

        table = cls._read_table_subsection(tok)

        t = tok.next()
        if t is None:
            raise ParseError("XRef", "End of file")
        if t[0] != STR:
            raise ParseError("XRef", f"Incorrect token at beginning of trailer: {t!r}")
        if t[1] != b"trailer":
            raise ParseError("XRef", f"Trailer string missing, found string {t[1]!r}")

        # trailer parsed from a tokenizer clone with a default xref
        # (xref.rs:112-115 / Object::from(Tokenizer))
        trailer = parse_object(Lemmatizer(tok.bytes, tok.pos, _EMPTY))
        if not isinstance(trailer, dict):
            raise ParseError("XRef", "Trailer should be a dictionary")

        self = cls()
        self.table = table
        size = trailer.get("Size")
        if not isinstance(size, Number):
            raise ParseError("XRef", "Size should be a numeric")
        self.size = size
        prev = trailer.get("Prev")
        if prev is not None:
            if not (isinstance(prev, Number) and prev.is_int):
                raise ParseError("XRef", "Prev should be a numeric")
            self.prev = _parse_xref(tok.bytes, prev.val, seen)
        root = trailer.get("Root")
        if not isinstance(root, Ref):
            raise ParseError("XRef", "Root should be a Catalog object")
        self.root = root.key()
        enc = trailer.get("Encrypt")
        if enc is not None:
            if not isinstance(enc, Ref):
                raise ParseError("XRef", "Encrypt should be an indirect object")
            self.encrypt = enc.key()
        info = trailer.get("Info")
        if info is not None:
            if not isinstance(info, Ref):
                raise ParseError("XRef", "Info should be an indirect object")
            self.info = info.key()
        return self

    @staticmethod
    def _read_table_subsection(tok: Tokenizer) -> dict:
        table = {}
        t = tok.next()
        if t is None or t[0] != NUM or not t[1].is_int:
            raise ParseError("XRef", f"Table subsection header start should be an integer, found {t!r}")
        start = t[1].val
        t = tok.next()
        if t is None or t[0] != NUM or not t[1].is_int:
            raise ParseError("XRef", f"Table subsection header size should be an integer, found {t!r}")
        size = t[1].val
        for object_idx in range(start, start + size):
            number, generation, in_use = XRefTable._read_subsection_entry(tok)
            table[(object_idx, generation)] = (number, in_use)
        return table

    @staticmethod
    def _read_subsection_entry(tok: Tokenizer):
        t = tok.next()
        if t is None or t[0] != NUM or not t[1].is_int:
            raise ParseError("XRef", f"Xref entry offset token should be an integer, found {t!r}")
        number = t[1].val
        t = tok.next()
        if t is None or t[0] != NUM or not t[1].is_int:
            raise ParseError("XRef", f"Xref entry generation token should be an integer, found {t!r}")
        generation = t[1].val
        t = tok.next()
        if t is None or t[0] != STR:
            raise ParseError("XRef", f"Xref entry in_use token should be a regular string, found {t!r}")
        in_use = t[1] == b"n"
        return number, generation, in_use

    def get(self, key):
        v = self.table.get(key)
        if v is not None:
            if v[1]:
                return v[0]
            raise ParseError("XRef", "XReftable object was freed")
        if self.prev is not None:
            return self.prev.get(key)
        return None

    def get_and_fix(self, key, data: bytes):
        offset = self.get(key)
        if offset is None:
            return None
        return fix_offset(key, offset, data)

    def get_catalog_offset(self):
        if self.root is None:
            raise ParseError("XRef", "trailer has no Root")
        return self.get(self.root)

    def __len__(self):
        return len(self.table)


_EMPTY = XRefTable()


class XRefStream:
    # the reference reads no Encrypt or Info from an xref stream
    spec_mode = False
    decryptor = None
    encrypt = None
    info = None

    __slots__ = ("size", "index", "prev", "w", "stream")

    @classmethod
    def from_stream(cls, s: StreamObj) -> "XRefStream":
        self = cls.__new__(cls)
        size = s.header.get("Size")
        if size is None:
            raise ParseError("XRef", "xref stream dict missing Size")
        if not (isinstance(size, Number) and size.is_int):
            raise ParseError("XRef", "xref stream Size has wrong type")
        self.size = size.val
        if "DecodeParms" in s.header:
            raise ParseError(
                "XRef", "Data encoded with custom filters which is currently not supported"
            )
        index = s.header.get("Index")
        if index is None:
            self.index = (0, self.size)
        else:
            if not isinstance(index, list) or len(index) != 2:
                raise ParseError("XRef", "Index is not an array of length 2")
            self.index = (index[0].as_usize(), index[1].as_usize())
        prev = s.header.get("Prev")
        if prev is not None:
            if not (isinstance(prev, Number) and prev.is_int):
                raise ParseError("XRef", "xref stream Prev wrong type")
            self.prev = prev.val
        else:
            self.prev = None
        w = s.header.get("W")
        if not isinstance(w, list) or len(w) < 3:
            raise ParseError("XRef", "xref stream W is required, len 3")
        self.w = tuple(x.as_usize() for x in w[:3])
        self.stream = flate_decode(s.data)
        return self

    def get(self, key):
        object_idx = key[0]
        if object_idx > self.index[1]:
            raise ParseError("XRef", f"Object number {key[0]} is out of index")
        esz = self.w[0] + self.w[1] + self.w[2]
        entry = self.stream[object_idx * esz : object_idx * esz + esz]
        if len(entry) < esz:
            raise ParseError("XRef", "xref stream entry out of range")
        etype = int.from_bytes(entry[: self.w[0]], "big")
        emid = int.from_bytes(entry[self.w[0] : self.w[0] + self.w[1]], "big")
        if etype == 1:
            return emid
        if etype == 0:
            return None  # freed, unimplemented in reference (xref.rs:349)
        if etype == 2:
            return self.get((emid, 0))  # partial, as in xref.rs:350
        raise ParseError("XRef", "Cross reference stream data type can only be 0, 1 or 2")

    def get_and_fix(self, key, data: bytes):
        return self.get(key)

    def get_catalog_offset(self):
        return 0  # the reference's stub (xref.rs:331-333)


def parse_xref(data: bytes, offset: int):
    """XRef::from(Tokenizer) dispatch (xref.rs:44-58)."""
    return _parse_xref(data, offset, frozenset())


def _parse_xref(data: bytes, offset: int, seen: frozenset):
    """parse_xref on a trailer /Prev walk that has visited `seen`. A
    revisited offset raises ParseError; the reference recurses until its
    stack overflows."""
    if offset in seen:
        raise ParseError("XRef", f"Prev chain revisits offset {offset}")
    tok = Tokenizer(data, offset)
    peek = tok.clone().next()
    if peek is None:
        raise ParseError("XRef", "End of stream")
    if peek[0] == STR:
        return XRefTable._parse(tok, seen | {offset})
    if peek[0] == NUM:
        obj = parse_object(Lemmatizer(data, offset, _EMPTY))
        if isinstance(obj, StreamObj):
            return XRefStream.from_stream(obj)
        raise ParseError("XRef", f"Xref object cannot be of type {obj!r}")
    raise ParseError("XRef", "Xref object or string 'xref' not found")
