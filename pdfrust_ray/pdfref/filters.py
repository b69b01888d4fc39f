"""Stream filters.

Pins /root/reference/src/filters.rs:4-14: the reference allocates a
zero-filled buffer of exactly 10x the compressed size, issues a single
read, and returns the whole buffer. Decompressed output is therefore
always zero-PADDED to 10x compressed size, and silently TRUNCATED if
the real output exceeds 10x. Trailing NULs are whitespace to the
tokenizer (tokenizer.rs:83) so text extraction is unaffected, but
`--raw-content` includes the padding (body.rs:529-535) — replicated.
"""

from __future__ import annotations

import zlib

from .errors import ParseError
from .numbers import Number
from .objects import Name


def flate_decode(data: bytes) -> bytes:
    cap = len(data) * 10
    try:
        d = zlib.decompressobj()
        out = d.decompress(data, cap)
    except zlib.error as exc:
        raise ParseError("Flate", str(exc))
    if len(out) < cap:
        out = out + b"\0" * (cap - len(out))
    return out


def flate_decode_exact(data: bytes) -> bytes:
    """Spec-mode FlateDecode: exact zlib inflate, no 10x pad/truncate.

    Used only on the spec_mode=True path, through spec_decode (every
    stream of a spec-mode document) — the parity path above keeps the
    reference's buffer quirk. Tolerates trailing garbage after the
    zlib stream (common in real PDFs; d.unused_data), but rejects
    TRUNCATED streams: a cut deflate stream decompresses partially
    without raising (d.eof stays False), so without this check
    spec-mode xref/ObjStm/content streams would silently extract wrong
    partial text instead of producing an error row."""
    try:
        d = zlib.decompressobj()
        out = d.decompress(data)
    except zlib.error as exc:
        raise ParseError("Flate", str(exc))
    if not d.eof:
        raise ParseError("Flate", "truncated stream")
    return out


def apply_png_predictor(data: bytes, columns: int, colors: int = 1, bpc: int = 8) -> bytes:
    """Reverse PNG row filters (Predictor 10-15, ISO 32000-1 7.4.4.4).

    The reference panics on any DecodeParms (xref.rs:368-376); this is
    the spec-mode replacement. Per-byte Python is fine here: predictor
    payloads are mostly xref/object-stream indexes, kilobytes at most."""
    bpp = max(1, (colors * bpc) // 8)
    rowlen = (columns * colors * bpc + 7) // 8
    out = bytearray()
    prev = bytearray(rowlen)
    i = 0
    n = len(data)
    while i < n:
        ft = data[i]
        i += 1
        row = bytearray(data[i : i + rowlen])
        i += rowlen
        if len(row) < rowlen:
            raise ParseError("Predictor", "truncated predictor row")
        if ft == 0:
            pass
        elif ft == 1:  # Sub
            for j in range(bpp, rowlen):
                row[j] = (row[j] + row[j - bpp]) & 0xFF
        elif ft == 2:  # Up
            for j in range(rowlen):
                row[j] = (row[j] + prev[j]) & 0xFF
        elif ft == 3:  # Average
            for j in range(rowlen):
                left = row[j - bpp] if j >= bpp else 0
                row[j] = (row[j] + ((left + prev[j]) >> 1)) & 0xFF
        elif ft == 4:  # Paeth
            for j in range(rowlen):
                a = row[j - bpp] if j >= bpp else 0
                b = prev[j]
                c = prev[j - bpp] if j >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                row[j] = (row[j] + pred) & 0xFF
        else:
            raise ParseError("Predictor", f"unknown PNG filter type {ft}")
        out += row
        prev = row
    return bytes(out)


# --- spec-mode filter family (ISO 32000-1 7.4) ---------------------------
# The reference supports FlateDecode only (filters.rs:4-14; body.rs:65-77
# rejects other names). On the spec_mode=True path every stream —
# content, CMap and Form XObject streams as well as xref and object
# streams — decodes through one chain: spec_chain reads /Filter and
# /DecodeParms when the stream is built, spec_decode runs it. Each
# decoder raises ParseError on malformed input (error rows).


def asciihex_decode(data: bytes) -> bytes:
    """ASCIIHexDecode (7.4.2): hex pairs, whitespace ignored, '>' EOD,
    odd trailing digit padded with 0."""
    out = []
    for b in data:
        c = chr(b)
        if c == ">":
            break
        if c.isspace():
            continue
        if c not in "0123456789abcdefABCDEF":
            raise ParseError("ASCIIHex", f"bad hex character {c!r}")
        out.append(c)
    if len(out) % 2:
        out.append("0")
    return bytes.fromhex("".join(out))


def ascii85_decode(data: bytes) -> bytes:
    """ASCII85Decode (7.4.3): base-85 groups, 'z' shortcut for four
    zero bytes, '~>' EOD, whitespace ignored, 1-4 byte final group."""
    out = bytearray()
    group: list[int] = []
    i = 0
    n = len(data)
    while i < n:
        c = data[i]
        if c in b"~":
            break
        if bytes([c]).isspace():
            i += 1
            continue
        if c == 0x7A:  # 'z'
            if group:
                raise ParseError("ASCII85", "z inside group")
            out += b"\0\0\0\0"
            i += 1
            continue
        if not (0x21 <= c <= 0x75):
            raise ParseError("ASCII85", f"bad base-85 byte {c}")
        group.append(c - 33)
        if len(group) == 5:
            v = 0
            for g in group:
                v = v * 85 + g
            if v > 0xFFFFFFFF:
                raise ParseError("ASCII85", "group value overflow")
            out += v.to_bytes(4, "big")
            group = []
        i += 1
    if group:
        if len(group) == 1:
            raise ParseError("ASCII85", "single trailing character")
        k = len(group)
        v = 0
        for g in group + [84] * (5 - k):
            v = v * 85 + g
        out += v.to_bytes(4, "big")[: k - 1]
    return bytes(out)


def runlength_decode(data: bytes) -> bytes:
    """RunLengthDecode (7.4.5): length byte 0-127 -> copy n+1 literal
    bytes; 129-255 -> repeat next byte 257-n times; 128 -> EOD."""
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        ln = data[i]
        i += 1
        if ln == 128:
            return bytes(out)
        if ln < 128:
            chunk = data[i : i + ln + 1]
            if len(chunk) != ln + 1:
                raise ParseError("RunLength", "truncated literal run")
            out += chunk
            i += ln + 1
        else:
            if i >= n:
                raise ParseError("RunLength", "truncated repeat run")
            out += bytes([data[i]]) * (257 - ln)
            i += 1
    raise ParseError("RunLength", "missing EOD")


def lzw_decode_pdf(data: bytes, early_change: int = 1) -> bytes:
    """LZWDecode (7.4.4.2): MSB-first variable-width codes starting at
    9 bits over 8-bit literals, 256 = clear, 257 = EOD, table grows to
    12 bits; EarlyChange=1 (default) bumps the code width one entry
    early."""
    out = bytearray()
    table: list[bytes] = []
    width = 9
    prev: bytes | None = None

    def reset():
        nonlocal table, width, prev
        table = [bytes([i]) for i in range(256)] + [b"", b""]
        width = 9
        prev = None

    reset()
    acc = 0
    nbits = 0
    pos = 0
    n = len(data)
    while True:
        while nbits < width:
            if pos >= n:
                raise ParseError("LZW", "stream ended before EOD")
            acc = (acc << 8) | data[pos]
            pos += 1
            nbits += 8
        code = (acc >> (nbits - width)) & ((1 << width) - 1)
        nbits -= width
        acc &= (1 << nbits) - 1
        if code == 256:
            reset()
            continue
        if code == 257:
            return bytes(out)
        if prev is None:
            if code >= 256:
                raise ParseError("LZW", "first code not a literal")
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            if len(table) < 4096:
                table.append(prev + entry[:1])
        elif code == len(table) and len(table) < 4096:
            entry = prev + prev[:1]
            table.append(entry)
        else:
            raise ParseError("LZW", "code out of range")
        out += entry
        prev = entry
        if len(table) + early_change >= (1 << width) + 1 and width < 12:
            width += 1


def _int_parm(parms: dict | None, key: str, default: int) -> int:
    v = parms.get(key) if parms is not None else None
    return v.val if isinstance(v, Number) and v.is_int else default


def _unpredict(data: bytes, parms: dict | None) -> bytes:
    """Reverse the /Predictor of a FlateDecode or LZWDecode stage
    (7.4.4.4): 1 (none), 10-15 (PNG); TIFF predictor 2 is an error."""
    pred = _int_parm(parms, "Predictor", 1)
    if pred == 2:
        raise ParseError("Predictor", "TIFF predictor 2 not supported")
    if pred < 10:
        return data
    return apply_png_predictor(
        data,
        columns=_int_parm(parms, "Columns", 1),
        colors=_int_parm(parms, "Colors", 1),
        bpc=_int_parm(parms, "BitsPerComponent", 8),
    )


# filter name -> decode(data, DecodeParms dict or None)
_SPEC_DECODERS = {
    "FlateDecode": lambda data, parms: _unpredict(flate_decode_exact(data), parms),
    "LZWDecode": lambda data, parms: _unpredict(
        lzw_decode_pdf(data, _int_parm(parms, "EarlyChange", 1)), parms
    ),
    "ASCIIHexDecode": lambda data, parms: asciihex_decode(data),
    "ASCII85Decode": lambda data, parms: ascii85_decode(data),
    "RunLengthDecode": lambda data, parms: runlength_decode(data),
}


def spec_chain(header: dict) -> tuple:
    """The spec-mode filter chain of a stream dictionary: (name,
    DecodeParms dict or None) pairs in decode order. /Filter is a name
    or an array of names, /DecodeParms a dict or an array parallel to
    it. A non-name or unsupported filter raises here, so a document
    reports it when the stream is built, not when it is read."""
    filt = header.get("Filter")
    names = [] if filt is None else filt if isinstance(filt, list) else [filt]
    parms = header.get("DecodeParms")
    parms = list(parms) if isinstance(parms, list) else [parms]
    parms += [None] * (len(names) - len(parms))
    for name in names:
        if not isinstance(name, Name):
            raise ParseError("Stream", "Filter should be a name")
        if name not in _SPEC_DECODERS:
            raise ParseError("Stream", f"Filter name {name!r} is currently not supported")
    return tuple((str(n), p if isinstance(p, dict) else None) for n, p in zip(names, parms))


def spec_decode(data: bytes, chain: tuple) -> bytes:
    """Run a spec_chain over a raw stream payload. Inflate is exact (no
    10x buffer quirk); predictors apply after FlateDecode and LZWDecode."""
    for name, parms in chain:
        data = _SPEC_DECODERS[name](data, parms)
    return data


def lzw_encode_pdf(data: bytes, early_change: int = 1) -> bytes:
    """LZWDecode inverse (fixture/test helper and a real encoder):
    dictionary LZW with the PDF width schedule."""
    out = bytearray()
    acc = 0
    nbits = 0

    def emit(code: int, width: int):
        nonlocal acc, nbits
        acc = (acc << width) | code
        nbits += width
        while nbits >= 8:
            out.append((acc >> (nbits - 8)) & 0xFF)
            nbits -= 8
            acc &= (1 << nbits) - 1

    def fresh():
        return {bytes([i]): i for i in range(256)}, 258, 9

    table, next_code, width = fresh()
    emit(256, width)
    buf = b""
    for byte in data:
        cand = buf + bytes([byte])
        if cand in table:
            buf = cand
            continue
        emit(table[buf], width)
        table[cand] = next_code
        next_code += 1
        if next_code + early_change - 1 == (1 << width) + 1 and width < 12:
            width += 1
        if next_code > 4095:
            emit(256, width)
            table, next_code, width = fresh()
        buf = bytes([byte])
    if buf:
        emit(table[buf], width)
    emit(257, width)
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)
