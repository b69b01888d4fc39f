"""COS object parser (tokens -> object tree).

Pins /root/reference/src/object.rs:
  - Object = Dictionary | Stream | Array | Name | String | HexString |
    Numeric | Ref (object.rs:24-34).
  - Dictionary parse: Name key then one value token; a bare keyword
    value token (Token::String, e.g. `true`) becomes a *Name* object
    (object.rs:70-72); literal strings must be valid UTF-8
    (object.rs:67-69 unwrap); DictEnd breaks; any other key token
    panics (object.rs:87-88).
  - Array parse via bare-token conversion: a DictBegin inside an array
    becomes an *empty* Dictionary and the dict's tokens keep streaming
    into the array (object.rs:36-49 + 171-192) — quirk kept.
  - Stream: after a dict, `stream` keyword triggers Length resolution;
    Length may be an indirect ref, resolved through the xref with the
    repair scan, reading the object header then one numeric
    (object.rs:107-135); payload = next_n(length) raw bytes.
  - Object::try_from: ObjBegin skipped, bare keyword at object position
    panics (object.rs:145), numerics/arrays/dicts accepted.
"""

from __future__ import annotations

from .errors import ParseError
from .numbers import Number
from .tokenizer import (
    ARR_BEGIN,
    ARR_END,
    DICT_BEGIN,
    DICT_END,
    HEX,
    LIT,
    NAME,
    NUM,
    OBJ_BEGIN,
    REF,
    STR,
    STREAM_BEGIN,
    Lemmatizer,
)


class Name(str):
    """A PDF name (or a bare keyword promoted to Name, object.rs:70-72)."""

    __slots__ = ()


class PdfString(str):
    """A decoded literal string (UTF-8 strict, object.rs:67-69)."""

    __slots__ = ()


class HexString(bytes):
    __slots__ = ()


class Ref:
    __slots__ = ("num", "gen")

    def __init__(self, num: int, gen: int):
        self.num = num
        self.gen = gen

    def key(self) -> tuple[int, int]:
        return (self.num, self.gen)

    def __eq__(self, other):
        return isinstance(other, Ref) and other.num == self.num and other.gen == self.gen

    def __hash__(self):
        return hash((self.num, self.gen))

    def __repr__(self):
        return f"Ref({self.num}, {self.gen})"


class StreamObj:
    __slots__ = ("header", "data")

    def __init__(self, header: dict, data: bytes):
        self.header = header
        self.data = data

    def __repr__(self):
        return f"StreamObj({self.header!r}, {len(self.data)} bytes)"


def _decode_utf8_strict(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError("Utf8", "invalid UTF-8 in literal string")


def _decrypt_str(raw: bytes, crypt) -> bytes:
    """Spec-mode string decryption: `crypt` is (StdDecryptor, (num, gen))
    while parsing inside an encrypted document's indirect object."""
    if crypt is None:
        return raw
    dec, (num, gen) = crypt
    return dec.decrypt(raw, num, gen, "str")


def token_to_object(tok, crypt=None):
    """Bare-token -> Object conversion (object.rs:171-192)."""
    kind, val = tok
    if kind == DICT_BEGIN:
        return {}
    if kind == ARR_BEGIN:
        return []
    if kind == NAME:
        return Name(val)
    if kind == NUM:
        return val
    if kind == STR:
        return PdfString(_decode_utf8_strict(val))
    if kind == LIT:
        return PdfString(_decode_utf8_strict(_decrypt_str(val, crypt)))
    if kind == HEX:
        return HexString(_decrypt_str(val, crypt))
    if kind == REF:
        return Ref(*val)
    raise ParseError("Object", f"Unexpected token found in object {tok!r}")


def parse_array(lem: Lemmatizer) -> list:
    """Array::try_from (object.rs:36-49). Flat: a nested `[` or `<<`
    becomes an empty leaf, so arrays need no nesting bound."""
    arr = []
    while True:
        t = lem.next()
        if t is None:
            break
        if t[0] == ARR_END:
            break
        arr.append(token_to_object(t, lem.crypt))
    return arr


# dictionary nesting bound: the recursive parser this replaced hit
# CPython's 1000-frame limit at ~985 levels, so every document that
# parsed before parses the same
MAX_NESTING = 1000


def parse_dictionary(lem: Lemmatizer) -> dict:
    """Dictionary::try_from (object.rs:51-93).

    A dictionary value opens a nested dictionary on an explicit stack,
    not by recursion, at most MAX_NESTING deep; deeper input raises
    ParseError("Nesting") where the reference would overflow its stack.
    End of stream closes every open dictionary."""
    d = {}
    outer = []  # (enclosing dictionary, key the open one is filed under)
    while True:
        t = lem.next()
        if t is None or t[0] == DICT_END:
            if not outer:
                return d
            parent, key = outer.pop()
            parent[key] = d
            d = parent
            continue
        kind, val = t
        if kind != NAME:
            raise ParseError("Object", f"Unexpected token found in dictionary key {t!r}")
        key = val
        vt = lem.next()
        if vt is None:
            raise ParseError("Object", "Unexpected end of stream found in dictionary value")
        vkind, vval = vt
        if vkind == DICT_BEGIN:
            if len(outer) + 2 > MAX_NESTING:
                raise ParseError("Nesting", f"dictionaries nested deeper than {MAX_NESTING}")
            outer.append((d, key))
            d = {}
            continue
        if vkind == ARR_BEGIN:
            value = parse_array(lem)
        elif vkind == LIT:
            value = PdfString(_decode_utf8_strict(_decrypt_str(vval, lem.crypt)))
        elif vkind == STR:
            value = Name(_decode_utf8_strict(vval))
        elif vkind == HEX:
            value = HexString(_decrypt_str(vval, lem.crypt))
        elif vkind == NAME:
            value = Name(vval)
        elif vkind == NUM:
            value = vval
        elif vkind == REF:
            value = Ref(*vval)
        else:
            raise ParseError("Object", f"Unexpected token found in dictionary value {vt!r}")
        d[key] = value


def _resolve_stream_length(d: dict, lem: Lemmatizer, xref) -> int:
    length = d.get("Length")
    if isinstance(length, Number):
        if length.is_int:
            return length.val
        raise ParseError("Object", "Real number found in stream length")
    if isinstance(length, Ref):
        # follow the indirect ref (object.rs:115-131)
        addr = xref.get_and_fix(length.key(), lem.bytes)
        if addr is None:
            raise ParseError("Object", f"Stream dictionary should have a Length key, {d!r}")
        if addr < 0:  # spec mode: Length object stored in an /ObjStm
            obj = xref.compressed_object(addr)
            if isinstance(obj, Number) and obj.is_int:
                return obj.val
            raise ParseError("Object", f"Unexpected object found as stream Length: {obj!r}")
        t = Lemmatizer(lem.bytes, addr, xref)
        t.next()  # object header (discarded, object.rs:120)
        t2 = t.next()
        if t2 is not None and t2[0] == NUM and t2[1].is_int:
            return t2[1].val
        raise ParseError("Object", f"Unexpected token found in object; found {t2!r}")
    raise ParseError("Object", f"Stream dictionary should have a Length key, {d!r}")


def parse_object(lem: Lemmatizer, xref=None):
    """Object::try_from(&mut Lemmatizer) (object.rs:96-156)."""
    if xref is None:
        xref = lem.xref
    while True:
        t = lem.next()
        if t is None:
            raise ParseError("Object", "Unexpected end of stream found in object")
        kind, val = t
        if kind == OBJ_BEGIN:
            # spec-mode decryption: the xref carries a decryptor once the
            # /Encrypt dict is resolved; arm per-object crypt state with
            # this object's (num, gen) for strings and the stream payload
            dec = xref.decryptor
            if dec is not None and val is not None:
                lem.crypt = (dec, val)
            continue
        if kind == DICT_BEGIN:
            d = parse_dictionary(lem)
            nt = lem.next()
            if nt is not None and nt[0] == STREAM_BEGIN:
                length = _resolve_stream_length(d, lem, xref)
                # spec mode: exact single-EOL stream positioning (binary
                # payloads may START with whitespace-class bytes the
                # parity next_n would eat)
                if xref.spec_mode:
                    data = lem.next_n_spec(length)
                else:
                    data = lem.next_n(length)
                # xref streams are never encrypted (ISO 32000-1 7.5.8.2)
                if lem.crypt is not None and str(d.get("Type")) != "XRef":
                    dec, (num, gen) = lem.crypt
                    data = dec.decrypt(data, num, gen, "stm")
                return StreamObj(d, data)
            return d
        if kind == NUM:
            return val
        if kind == STR:
            raise ParseError("Object", f"{val!r}")
        if kind == ARR_BEGIN:
            return parse_array(lem)
        raise ParseError("Object", f"Unexpected token found in object; found {t!r}")


def object_at(data: bytes, pos: int, xref):
    """Object::new (object.rs:159-162).

    Spec-mode extension: a negative `pos` is a compressed-object handle
    minted by SpecXRef.get_and_fix (the object lives inside an /ObjStm,
    not at a byte offset of `data`) — route it back to the xref."""
    if pos < 0:
        return xref.compressed_object(pos)
    return parse_object(Lemmatizer(data, pos, xref), xref)
