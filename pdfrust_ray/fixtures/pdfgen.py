"""Deterministic synthetic PDF writer for the fixture construct matrix.

Emits classic-xref PDFs exercising exactly the constructs the reference
parses (see FIXTURES.md and the citations there): uncompressed and
FlateDecode content streams, Length-as-indirect-ref, 1- and 2-byte
ToUnicode CMaps (bfchar / incrementing bfrange / array bfrange,
multi-code-unit values), kerned TJ arrays, Td/TD/T*/Tm line movement,
octal/escape literal strings, odd-length hexstrings, multi-page trees,
indirect Widths, broken xref offsets (repair scan), /Prev chains,
parsed-and-ignored operator noise, and the error cases (missing CMap
code, Tj before Tf, truncated file).

Pure functions of (construct id, seed text) — no wall-clock, no RNG;
the fuzz documents at the end draw from a seeded random.Random.
"""

from __future__ import annotations

import random
import zlib


class PdfBuilder:
    """Minimal classic-xref PDF serializer."""

    def __init__(self, version: str = "1.4"):
        self.version = version
        self.objects: list[bytes] = []  # body of object n+1

    def add(self, body: bytes) -> int:
        """Add an object; returns its 1-based object number."""
        self.objects.append(body)
        return len(self.objects)

    def add_stream(self, header_extra: str, data: bytes, compress: bool = False,
                   length_ref: int | None = None) -> int:
        if compress:
            data = zlib.compress(data, 6)
            header_extra += " /Filter /FlateDecode"
        if length_ref is not None:
            header = f"<< /Length {length_ref} 0 R{header_extra} >>"
        else:
            header = f"<< /Length {len(data)}{header_extra} >>"
        body = header.encode("latin-1") + b"\nstream\n" + data + b"\nendstream"
        return self.add(body)

    def build(self, root: int, offset_skew: int = 0, prev_sections: int = 0,
              info: int | None = None, trailer_extra: str = "") -> bytes:
        """Serialize. offset_skew != 0 corrupts recorded xref offsets to
        exercise the repair scan; prev_sections > 0 splits the xref into
        a /Prev chain (the top section re-lists the first object only).
        trailer_extra is appended verbatim to the trailer dictionary
        (e.g. " /Encrypt 9 0 R /ID [ <..> <..> ]").
        """
        out = bytearray()
        out += f"%PDF-{self.version}\n".encode()
        offsets = []
        for i, body in enumerate(self.objects, start=1):
            out += b"\n"
            offsets.append(len(out))
            out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"

        n = len(self.objects)

        def entry(off):
            return f"{off:010d} 00000 n \n".encode()

        def xref_section(start, count, first_free, prev_part, at):
            sec = bytearray()
            sec += b"xref\n"
            sec += f"{start} {count}\n".encode()
            if first_free:
                sec += b"0000000000 65535 f \n"
                rng = range(start + 1, start + count)
            else:
                rng = range(start, start + count)
            for i in rng:
                # the catalog is resolved via plain `get` (xref.rs:224-226,
                # no repair), so never skew the root's entry
                skew = 0 if i == root else offset_skew
                sec += entry(offsets[i - 1] + skew)
            sec += b"trailer\n"
            info_part = f" /Info {info} 0 R" if info is not None else ""
            sec += (
                f"<< /Size {n + 1} /Root {root} 0 R{info_part}"
                f"{prev_part}{trailer_extra} >>\n"
            ).encode()
            return sec

        if prev_sections:
            # previous (older) full section first, then the top section
            # listing a contiguous prefix, with /Prev pointing back
            prev_off = len(out)
            out += xref_section(0, n + 1, True, "", prev_off)
            top_off = len(out)
            out += xref_section(1, 1, False, f" /Prev {prev_off}", top_off)
            sx = top_off
        else:
            sx = len(out)
            out += xref_section(0, n + 1, True, "", sx)
        out += f"startxref\n{sx}\n%%EOF".encode()
        return bytes(out)


def _simple_font(b: PdfBuilder, base: str = "Helvetica", extra: str = "") -> int:
    return b.add(f"<< /Type /Font /Subtype /Type1 /BaseFont /{base}{extra} >>".encode())


def cmap_source(entries: dict[int, str], two_byte: bool, bfranges=(), array_ranges=(), raw_values=None) -> str:
    """Build a ToUnicode CMap stream body.

    entries: code -> single char (bfchar); raw_values overrides the hex
    value text per code (e.g. multi-code-unit "00660066"). bfranges:
    (lo, hi, start_char) incrementing ranges. array_ranges:
    (lo, [chars...]) array-destination ranges.
    """
    w = 4 if two_byte else 2
    parts = [
        "/CIDInit /ProcSet findresource begin\n12 dict begin\nbegincmap\n",
        "/CMapName /Adobe-Identity-UCS def\n/CMapType 2 def\n",
        "1 begincodespacerange\n",
        ("<0000> <FFFF>\n" if two_byte else "<00> <FF>\n"),
        "endcodespacerange\n",
    ]
    if entries:
        parts.append(f"{len(entries)} beginbfchar\n")
        for code, ch in sorted(entries.items()):
            val = raw_values.get(code) if raw_values and code in raw_values else f"{ord(ch):04X}"
            parts.append(f"<{code:0{w}X}> <{val}>\n")
        parts.append("endbfchar\n")
    for lo, hi, start in bfranges:
        parts.append("1 beginbfrange\n")
        parts.append(f"<{lo:0{w}X}> <{hi:0{w}X}> <{ord(start):04X}>\n")
        parts.append("endbfrange\n")
    for lo, chars in array_ranges:
        parts.append("1 beginbfrange\n")
        hi = lo + len(chars) - 1
        vals = " ".join(f"<{ord(c):04X}>" for c in chars)
        parts.append(f"<{lo:0{w}X}> <{hi:0{w}X}> [{vals}]\n")
        parts.append("endbfrange\n")
    parts.append("endcmap\nend\nend\n")
    return "".join(parts)


def _page_setup(b: PdfBuilder, content_obj: int, font_obj: int) -> int:
    """Catalog + single page tree; returns catalog obj number."""
    res = f"<< /Font << /F1 {font_obj} 0 R >> >>"
    page = b.add(
        f"<< /Type /Page /Parent 0 0 R /Resources {res} /Contents {content_obj} 0 R >>".encode()
    )
    pages = b.add(f"<< /Type /Pages /Kids [ {page} 0 R ] /Count 1 >>".encode())
    return b.add(f"<< /Type /Catalog /Pages {pages} 0 R >>".encode())


def _lit(s: str) -> str:
    """Escape a string for a PDF literal."""
    return "(" + s.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)") + ")"


# --- construct builders -------------------------------------------------
# Each returns the complete PDF bytes for (uid_text).

def pdf_hello(uid: str) -> bytes:
    b = PdfBuilder()
    content = f"BT\n70 50 TD\n/F1 12 Tf\n{_lit('Hello ' + uid + '!')} Tj\nET".encode("latin-1")
    c = b.add_stream("", content)
    f = _simple_font(b)
    root = _page_setup(b, c, f)
    return b.build(root)


def pdf_flate(uid: str) -> bytes:
    b = PdfBuilder()
    lines = "\n".join(
        f"BT /F1 10 Tf 50 {700 - 14 * i} Td {_lit(f'flate line {i} of {uid}')} Tj ET"
        for i in range(12)
    )
    c = b.add_stream("", lines.encode("latin-1"), compress=True)
    f = _simple_font(b)
    root = _page_setup(b, c, f)
    return b.build(root)


def pdf_lenref(uid: str) -> bytes:
    b = PdfBuilder()
    content = f"BT /F1 9 Tf 10 10 Td {_lit('lenref ' + uid)} Tj ET".encode("latin-1")
    # /Length via indirect reference (object.rs:107-135)
    len_obj_num = len(b.objects) + 2  # stream first, then the length int
    c = b.add_stream("", content, length_ref=len_obj_num)
    ln = b.add(str(len(content)).encode())
    assert ln == len_obj_num
    f = _simple_font(b)
    root = _page_setup(b, c, f)
    return b.build(root)


def _encode_tj_hex(text: str, code_of: dict[str, int], w: int) -> str:
    return "<" + "".join(f"{code_of[ch]:0{w}X}" for ch in text) + ">"


def pdf_cmap1(uid: str) -> bytes:
    """1-byte CMap, TJ hexstrings, TrueType font with widths."""
    b = PdfBuilder()
    text = f"cmap one {uid}"
    alphabet = sorted(set(text))
    code_of = {ch: i + 1 for i, ch in enumerate(alphabet)}
    cm = cmap_source({c: ch for ch, c in code_of.items()}, two_byte=False)
    cm_obj = b.add_stream("", cm.encode("latin-1"), compress=True)
    widths = " ".join(str(400 + 7 * i) for i in range(len(alphabet) + 1))
    font = b.add(
        (
            f"<< /Type /Font /Subtype /TrueType /BaseFont /FAKE+Deja{len(alphabet)} "
            f"/FirstChar 1 /LastChar {len(alphabet)} /Widths [ {widths} ] "
            f"/ToUnicode {cm_obj} 0 R >>"
        ).encode()
    )
    tj = _encode_tj_hex(text, code_of, 2)
    content = f"BT /F1 11 Tf 40 700 Td [{tj}] TJ ET".encode("latin-1")
    c = b.add_stream("", content, compress=True)
    root = _page_setup(b, c, font)
    return b.build(root)


def pdf_cmap2(uid: str) -> bytes:
    """2-byte CMap: bfchar + incrementing bfrange + array bfrange."""
    b = PdfBuilder()
    # bfchar: punctuation/space; bfrange incrementing: 'a'..'z' at 0x0100;
    # array bfrange: digits at 0x0200
    entries = {0x0001: " ", 0x0002: ".", 0x0003: "-"}
    code_of = {" ": 0x0001, ".": 0x0002, "-": 0x0003}
    for i in range(26):
        code_of[chr(ord("a") + i)] = 0x0100 + i
    for i in range(10):
        code_of[str(i)] = 0x0200 + i
    cm = cmap_source(
        entries,
        two_byte=True,
        bfranges=((0x0100, 0x0119, "a"),),
        array_ranges=((0x0200, [str(d) for d in range(10)]),),
    )
    cm_obj = b.add_stream("", cm.encode("latin-1"), compress=True)
    font = b.add(
        f"<< /Type /Font /Subtype /Type0 /BaseFont /FAKE+TwoByte /ToUnicode {cm_obj} 0 R >>".encode()
    )
    text = f"two-byte cmap {uid}".lower()
    text = "".join(ch for ch in text if ch in code_of)
    tj = _encode_tj_hex(text, code_of, 4)
    content = f"BT /F1 10 Tf 40 680 Td [{tj}] TJ ET".encode("latin-1")
    c = b.add_stream("", content, compress=True)
    root = _page_setup(b, c, font)
    return b.build(root)


def pdf_lig(uid: str) -> bytes:
    """CMap value <00660066> decodes to just 'f' (cmap.rs:72-75)."""
    b = PdfBuilder()
    b.add(f"<< /UID ({uid}) >>".encode("latin-1"))  # payload uniqueness per turn
    entries = {0x01: "o", 0x02: "x", 0x03: "f"}
    cm = cmap_source(entries, two_byte=False, raw_values={0x03: "00660066"})
    cm_obj = b.add_stream("", cm.encode("latin-1"))
    font = b.add(
        f"<< /Type /Font /Subtype /TrueType /BaseFont /FAKE+Lig /ToUnicode {cm_obj} 0 R >>".encode()
    )
    # "o ff o x" -> reference yields 'offox'... codes: 01 03 01 02
    content = b"BT /F1 10 Tf 40 650 Td [<01030102>] TJ ET"
    c = b.add_stream("", content)
    root = _page_setup(b, c, font)
    return b.build(root)


def pdf_kern(uid: str) -> bytes:
    """Kerned TJ with negative positions: no space insertion."""
    b = PdfBuilder()
    words = ("kerned", "words", "of", uid)
    tj = " -350 ".join(_lit(w) for w in words)
    widths = " ".join(str(500) for _ in range(95))
    font = b.add(
        (
            "<< /Type /Font /Subtype /Type1 /BaseFont /FAKE+Kern "
            f"/FirstChar 32 /LastChar 126 /Widths [ {widths} ] >>"
        ).encode()
    )
    content = f"BT /F1 9.5 Tf 50 700 Td [{tj}] TJ ET".encode("latin-1")
    c = b.add_stream("", content, compress=True)
    root = _page_setup(b, c, font)
    return b.build(root)


def pdf_lines(uid: str) -> bytes:
    """Td/TD/T*/Tm line moves driving newline-on-ty-change."""
    b = PdfBuilder()
    content = (
        "BT /F1 10 Tf\n"
        f"50 700 Td {_lit('first ' + uid)} Tj\n"
        f"0 -14 TD {_lit('second (TD sets leading)')} Tj\n"
        f"T* {_lit('third via T*')} Tj\n"
        f"10 0 Td {_lit(' same-line shift')} Tj\n"
        f"1 0 0 1 50 600 Tm {_lit('fourth via Tm')} Tj\n"
        "ET"
    ).encode("latin-1")
    c = b.add_stream("", content)
    f = _simple_font(b)
    root = _page_setup(b, c, f)
    return b.build(root)


def pdf_esc(uid: str) -> bytes:
    """Literal-string escapes incl. the octal quirk 8c+8d+e."""
    b = PdfBuilder()
    # \101 -> 8*1+8*0+1 = 9 (TAB under the quirk, NOT 'A'); \050 -> 40 '('
    content = (
        b"BT /F1 10 Tf 50 700 Td "
        b"(esc \\t tab \\( paren \\) \\\\ back \\101 oct \\050 " + uid.encode("latin-1") + b") Tj ET"
    )
    c = b.add_stream("", content)
    f = _simple_font(b)
    root = _page_setup(b, c, f)
    return b.build(root)


def pdf_hexodd(uid: str) -> bytes:
    """Odd-length hexstring padded with '0' (tokenizer.rs:248-250)."""
    b = PdfBuilder()
    b.add(f"<< /UID ({uid}) >>".encode("latin-1"))  # payload uniqueness per turn
    # <414> -> 0x41 0x40 -> "A@"
    content = b"BT /F1 10 Tf 40 620 Td [<414> 10 <424>] TJ ET"
    c = b.add_stream("", content)
    f = _simple_font(b)
    root = _page_setup(b, c, f)
    return b.build(root)


def pdf_tree(uid: str) -> bytes:
    """2-level page tree, 4 pages, shared indirect Resources; pages
    joined by \\n (body.rs:413-419)."""
    b = PdfBuilder()
    font = _simple_font(b)
    res = b.add(f"<< /Font << /F1 {font} 0 R >> >>".encode())
    page_nums = []
    for i in range(4):
        content = f"BT /F1 10 Tf 50 700 Td {_lit(f'page {i} of {uid}')} Tj ET".encode("latin-1")
        c = b.add_stream("", content, compress=(i % 2 == 0))
        p = b.add(
            f"<< /Type /Page /Parent 0 0 R /Resources {res} 0 R /Contents {c} 0 R >>".encode()
        )
        page_nums.append(p)
    inner1 = b.add(
        f"<< /Type /Pages /Kids [ {page_nums[0]} 0 R {page_nums[1]} 0 R ] /Count 2 >>".encode()
    )
    inner2 = b.add(
        f"<< /Type /Pages /Kids [ {page_nums[2]} 0 R {page_nums[3]} 0 R ] /Count 2 >>".encode()
    )
    pages = b.add(f"<< /Type /Pages /Kids [ {inner1} 0 R {inner2} 0 R ] /Count 4 >>".encode())
    root = b.add(f"<< /Type /Catalog /Pages {pages} 0 R >>".encode())
    return b.build(root)


def pdf_widths(uid: str) -> bytes:
    """Widths via indirect ref; chars below FirstChar get width 0."""
    b = PdfBuilder()
    widths_obj = b.add(("[ " + " ".join(str(300 + i) for i in range(30)) + " ]").encode())
    font = b.add(
        (
            "<< /Type /Font /Subtype /Type1 /BaseFont /FAKE+W "
            f"/FirstChar 97 /LastChar 126 /Widths {widths_obj} 0 R >>"
        ).encode()
    )
    content = f"BT /F1 10 Tf 50 700 Td [{_lit('A below-FirstChar then lower ' + uid)}] TJ ET".encode(
        "latin-1"
    )
    c = b.add_stream("", content)
    root = _page_setup(b, c, font)
    return b.build(root)


def pdf_fixref(uid: str) -> bytes:
    """xref offsets off by +3 bytes -> repair scan (xref.rs:245-268)."""
    b = PdfBuilder()
    content = f"BT /F1 10 Tf 60 60 Td {_lit('repaired ' + uid)} Tj ET".encode("latin-1")
    c = b.add_stream("", content)
    f = _simple_font(b)
    root = _page_setup(b, c, f)
    return b.build(root, offset_skew=3)


def pdf_multixref(uid: str) -> bytes:
    """Two xref sections chained via /Prev (xref.rs:123-129)."""
    b = PdfBuilder()
    content = f"BT /F1 10 Tf 60 60 Td {_lit('prev-chain ' + uid)} Tj ET".encode("latin-1")
    c = b.add_stream("", content)
    f = _simple_font(b)
    root = _page_setup(b, c, f)
    return b.build(root, prev_sections=1)


def pdf_ops(uid: str) -> bytes:
    """Path/color/marked-content noise + inline dicts + unknown ops."""
    b = PdfBuilder()
    content = (
        "/P <</MCID 0>> BDC q\n"
        "0.1 0 0 0.1 0 0 cm\n"
        "2 w 1 J 0.5 i\n"
        "[1 2] 0 d\n"
        "/GS1 gs\n"
        "10 20 m 30 40 l 1 2 3 4 5 6 c h\n"
        "5 5 100 100 re W n f f* S W*\n"
        "/DeviceRGB cs 0.5 sc 0.3 G 0.7 g 1 0 0 RG 0 1 0 rg\n"
        "/Im1 Do\n"
        "BMC EMC Q\n"
        f"BT /F1 10 Tf 50 700 Td 7 zzunknown {_lit('ops noise ' + uid)} Tj ET"
    )
    # NOTE: "7 zzunknown" leaves 7 in the operand buffer before Tj; the
    # reference would panic on Tj (buf[0] not a literal string) — so keep
    # the unknown op BEFORE Td instead, where buffered operands are legal.
    content = content.replace("7 zzunknown ", "")
    content = content.replace("BT /F1 10 Tf 50 700 Td", "BT /F1 10 Tf zzunknown 50 700 Td")
    c = b.add_stream("", content.encode("latin-1"))
    f = _simple_font(b)
    root = _page_setup(b, c, f)
    return b.build(root)


def pdf_badcmap(uid: str) -> bytes:
    """TJ code missing from CMap -> reference panics -> error row."""
    b = PdfBuilder()
    b.add(f"<< /UID ({uid}) >>".encode("latin-1"))  # payload uniqueness per turn
    cm = cmap_source({0x01: "y"}, two_byte=False)
    cm_obj = b.add_stream("", cm.encode("latin-1"))
    font = b.add(
        f"<< /Type /Font /Subtype /TrueType /BaseFont /FAKE+Bad /ToUnicode {cm_obj} 0 R >>".encode()
    )
    content = b"BT /F1 10 Tf 40 600 Td [<0105>] TJ ET"  # 0x05 not mapped
    c = b.add_stream("", content)
    root = _page_setup(b, c, font)
    return b.build(root)


def pdf_nofont(uid: str) -> bytes:
    """Tj before any Tf -> reference panics -> error row."""
    b = PdfBuilder()
    content = f"BT 50 700 Td {_lit('no font ' + uid)} Tj ET".encode("latin-1")
    c = b.add_stream("", content)
    f = _simple_font(b)
    root = _page_setup(b, c, f)
    return b.build(root)


def pdf_corrupt(uid: str) -> bytes:
    """Truncated file without %%EOF -> error row (lib.rs:63-67)."""
    return pdf_hello(uid)[:-40]


def pdf_stress(uid: str, pages: int = 14) -> bytes:
    """Large multi-page doc: many Flate streams + CMaps (tracemonkey
    stand-in for skew handling)."""
    b = PdfBuilder()
    text = f"stress {uid} "
    alphabet = sorted(set(text + "abcdefghijklmnopqrstuvwxyz0123456789"))
    code_of = {ch: i + 1 for i, ch in enumerate(alphabet)}
    cm = cmap_source({c: ch for ch, c in code_of.items()}, two_byte=False)
    cm_obj = b.add_stream("", cm.encode("latin-1"), compress=True)
    widths = " ".join(str(450 + 3 * i) for i in range(len(alphabet) + 1))
    font = b.add(
        (
            f"<< /Type /Font /Subtype /TrueType /BaseFont /FAKE+Stress "
            f"/FirstChar 1 /LastChar {len(alphabet)} /Widths [ {widths} ] "
            f"/ToUnicode {cm_obj} 0 R >>"
        ).encode()
    )
    res = b.add(f"<< /Font << /F1 {font} 0 R >> >>".encode())
    page_nums = []
    import hashlib as _hl

    def _noise(tag: str, n_chars: int) -> str:
        # incompressible-ish deterministic text so the payload is actually big
        out = []
        seed = tag
        while sum(map(len, out)) < n_chars:
            seed = _hl.md5(seed.encode()).hexdigest()
            out.append(seed)
        return "".join(out)[:n_chars]

    for p in range(pages):
        ops = [f"BT /F1 9 Tf 40 760 Td"]
        for ln in range(48):
            line = f"{text}page{p} line{ln} " + _noise(f"{uid}:{p}:{ln}", 600)
            line = "".join(ch for ch in line if ch in code_of)
            tj = _encode_tj_hex(line, code_of, 2)
            kerned = _encode_tj_hex(line[:20], code_of, 2)
            ops.append(f"0 -15 Td [{tj} -250 {kerned}] TJ")
        ops.append("ET")
        c = b.add_stream("", "\n".join(ops).encode("latin-1"), compress=True)
        pn = b.add(
            f"<< /Type /Page /Parent 0 0 R /Resources {res} 0 R /Contents {c} 0 R >>".encode()
        )
        page_nums.append(pn)
    pages_obj = b.add(
        ("<< /Type /Pages /Kids [ " + " ".join(f"{p} 0 R" for p in page_nums) + f" ] /Count {pages} >>").encode()
    )
    root = b.add(f"<< /Type /Catalog /Pages {pages_obj} 0 R >>".encode())
    return b.build(root)


def pdf_xobj(uid: str, nested: bool = False, compress: bool = False,
             own_res: bool = True) -> bytes:
    """Body text inside a Form XObject invoked with `Do`.

    The reference parses `Do` and ignores it (content.rs:615-620), so
    parity mode extracts only the text outside the form; spec mode
    recurses and extracts the form's text inline. Variants: the form
    carries its OWN /Resources (own_res, a /G1 font the page lacks) or
    inherits the invoker's; `nested` adds a form-in-form level;
    `compress` FlateDecodes the form stream.
    """
    b = PdfBuilder()
    f1 = _simple_font(b)
    g1 = _simple_font(b, base="Courier")
    inner_txt = f"BT /{'G1' if own_res else 'F1'} 10 Tf 10 10 Td {_lit('inside ' + uid)} Tj ET".encode("latin-1")
    res_part = f" /Resources << /Font << /G1 {g1} 0 R >> >>" if own_res else ""
    if nested:
        leaf = b.add_stream(f" /Subtype /Form{res_part}", inner_txt, compress=compress)
        # the outer form invokes the leaf; its own /XObject dict carries it
        outer_body = f"{_lit('outer ' + uid)} Tj /X2 Do".encode("latin-1")
        outer_body = (
            f"BT /F1 11 Tf 5 5 Td {_lit('outer ' + uid)} Tj ET /X2 Do".encode("latin-1")
        )
        outer_res = (
            f" /Resources << /Font << /F1 {f1} 0 R >> "
            f"/XObject << /X2 {leaf} 0 R >> >>"
        )
        form = b.add_stream(f" /Subtype /Form{outer_res}", outer_body, compress=compress)
    else:
        form = b.add_stream(f" /Subtype /Form{res_part}", inner_txt, compress=compress)
    content = (
        f"BT /F1 12 Tf 70 700 Td {_lit('before ' + uid)} Tj ET "
        f"/X1 Do "
        f"BT /F1 12 Tf 70 650 Td {_lit('after ' + uid)} Tj ET"
    ).encode("latin-1")
    c = b.add_stream("", content)
    res = (
        f"<< /Font << /F1 {f1} 0 R >> /XObject << /X1 {form} 0 R "
        f"/Im1 {form} 0 R >> >>"
    )
    page = b.add(
        f"<< /Type /Page /Parent 0 0 R /Resources {res} /Contents {c} 0 R >>".encode()
    )
    pages = b.add(f"<< /Type /Pages /Kids [ {page} 0 R ] /Count 1 >>".encode())
    root = b.add(f"<< /Type /Catalog /Pages {pages} 0 R >>".encode())
    return b.build(root)


def pdf_info(uid: str) -> bytes:
    """Trailer /Info metadata dictionary (info.rs:23-75)."""
    b = PdfBuilder()
    content = f"BT /F1 10 Tf 50 700 Td {_lit('with info ' + uid)} Tj ET".encode("latin-1")
    c = b.add_stream("", content)
    f = _simple_font(b)
    root = _page_setup(b, c, f)
    info = b.add(
        (
            f"<< /Title {_lit('Doc ' + uid)} /Author (Fixture Author) /Creator (pdfgen) "
            f"/Producer (pdfrust_ray fixtures) /CreationDate (D:20250101000000Z) "
            f"/ModDate (D:20250102000000Z) >>"
        ).encode("latin-1")
    )
    return b.build(root, info=info)


PDF_CONSTRUCTS = {
    "pdf-hello": pdf_hello,
    "pdf-flate": pdf_flate,
    "pdf-lenref": pdf_lenref,
    "pdf-cmap1": pdf_cmap1,
    "pdf-cmap2": pdf_cmap2,
    "pdf-lig": pdf_lig,
    "pdf-kern": pdf_kern,
    "pdf-lines": pdf_lines,
    "pdf-esc": pdf_esc,
    "pdf-hexodd": pdf_hexodd,
    "pdf-tree": pdf_tree,
    "pdf-widths": pdf_widths,
    "pdf-fixref": pdf_fixref,
    "pdf-multixref": pdf_multixref,
    "pdf-ops": pdf_ops,
    "pdf-badcmap": pdf_badcmap,
    "pdf-nofont": pdf_nofont,
    "pdf-corrupt": pdf_corrupt,
    "pdf-info": pdf_info,
}


class Pdf15Builder:
    """PDF 1.5 xref-STREAM serializer for spec-mode fixtures.

    Writes documents the reference cannot read (its xref-stream path is
    broken, xref.rs:331-376): cross-reference streams with configurable
    W widths, optional PNG Up predictor (/DecodeParms /Predictor 12),
    optional multi-pair /Index, an unfiltered xref stream with
    flate_xref=False, and /ObjStm object streams holding the objects
    added with compressed=True (streams themselves always stay at file
    level, per spec).
    """

    def __init__(self, version: str = "1.5", predictor: bool = False,
                 w=(1, 4, 2), index_split: bool = False, flate_xref: bool = True):
        self.version = version
        self.predictor = predictor
        self.flate_xref = flate_xref
        self.w = tuple(w)
        self.index_split = index_split
        self.objects: list[tuple[bytes, bool]] = []  # (body, in_objstm)

    def add(self, body: bytes, compressed: bool = False) -> int:
        self.objects.append((body, compressed))
        return len(self.objects)

    def add_stream(self, header_extra: str, data: bytes, compress: bool = False) -> int:
        if compress:
            data = zlib.compress(data, 6)
            header_extra += " /Filter /FlateDecode"
        header = f"<< /Length {len(data)}{header_extra} >>"
        body = header.encode("latin-1") + b"\nstream\n" + data + b"\nendstream"
        return self.add(body, compressed=False)

    def build(self, root: int) -> bytes:
        n = len(self.objects)
        objstm_num = n + 1 if any(c for _, c in self.objects) else None
        xref_num = (objstm_num or n) + 1
        size = xref_num + 1

        out = bytearray()
        out += f"%PDF-{self.version}\n".encode()
        # entries[num] = (type, f2, f3)
        entries = {0: (0, 0, 65535)}
        stm_members = [i for i, (_, c) in enumerate(self.objects, start=1) if c]
        for idx, num in enumerate(stm_members):
            entries[num] = (2, objstm_num, idx)
        for num, (body, c) in enumerate(self.objects, start=1):
            if c:
                continue
            out += b"\n"
            entries[num] = (1, len(out), 0)
            out += f"{num} 0 obj\n".encode() + body + b"\nendobj\n"
        if objstm_num is not None:
            bodies = [self.objects[num - 1][0] for num in stm_members]
            offs, pos = [], 0
            for b in bodies:
                offs.append(pos)
                pos += len(b) + 1
            header = " ".join(f"{num} {off}" for num, off in zip(stm_members, offs)) + "\n"
            content = header.encode("latin-1") + b" ".join(bodies) + b" "
            payload = zlib.compress(content, 6)
            stm = (
                f"<< /Type /ObjStm /N {len(stm_members)} /First {len(header)} "
                f"/Length {len(payload)} /Filter /FlateDecode >>"
            ).encode() + b"\nstream\n" + payload + b"\nendstream"
            out += b"\n"
            entries[objstm_num] = (1, len(out), 0)
            out += f"{objstm_num} 0 obj\n".encode() + stm + b"\nendobj\n"

        # pack the xref stream itself (its own entry included)
        out += b"\n"
        xref_off = len(out)
        entries[xref_num] = (1, xref_off, 0)
        w1, w2, w3 = self.w
        if self.index_split and size > 2:
            split = size // 2
            index_pairs = [(0, split), (split, size - split)]
            index_part = f" /Index [ 0 {split} {split} {size - split} ]"
        else:
            index_pairs = [(0, size)]
            index_part = ""
        if w1 == 0 and stm_members:
            # a zero-width type field means every entry reads as type 1
            # (ISO 32000-1 table 17) — incompatible with ObjStm members
            raise ValueError("W[0]=0 cannot express type-2 (ObjStm) entries")
        rows = bytearray()
        for start, count in index_pairs:
            for num in range(start, start + count):
                t, f2, f3 = entries.get(num, (0, 0, 0))
                rows += t.to_bytes(w1, "big") if w1 else b""
                rows += f2.to_bytes(w2, "big")
                # clamp (only the free-list head's 65535 can exceed w3)
                rows += min(f3, (1 << (8 * w3)) - 1).to_bytes(w3, "big")
        esz = w1 + w2 + w3
        parms = ""
        data = bytes(rows)
        if self.predictor:
            enc, prev = bytearray(), bytes(esz)
            for i in range(0, len(data), esz):
                row = data[i : i + esz]
                enc.append(2)  # PNG Up
                enc += bytes((row[j] - prev[j]) & 0xFF for j in range(esz))
                prev = row
            data = bytes(enc)
            parms = f" /DecodeParms << /Predictor 12 /Columns {esz} >>"
        payload, filt = (zlib.compress(data, 6), " /Filter /FlateDecode") if self.flate_xref else (data, "")
        xstm = (
            f"<< /Type /XRef /Size {size} /W [ {w1} {w2} {w3} ]{index_part} "
            f"/Root {root} 0 R /Length {len(payload)}{filt}{parms} >>"
        ).encode() + b"\nstream\n" + payload + b"\nendstream"
        out += f"{xref_num} 0 obj\n".encode() + xstm + b"\nendobj\n"
        out += f"startxref\n{xref_off}\n%%EOF".encode()
        return bytes(out)


def _page_setup15(b: Pdf15Builder, content_obj: int, font_obj: int,
                  compressed: bool = True) -> int:
    """Catalog + single page in (optionally) an object stream."""
    res = f"<< /Font << /F1 {font_obj} 0 R >> >>"
    pages = b.add(b"placeholder", compressed)  # patched below
    page = b.add(
        f"<< /Type /Page /Parent {pages} 0 R /Resources {res} /Contents {content_obj} 0 R >>".encode(),
        compressed,
    )
    b.objects[pages - 1] = (
        f"<< /Type /Pages /Kids [ {page} 0 R ] /Count 1 >>".encode(),
        compressed,
    )
    cat = b.add(f"<< /Type /Catalog /Pages {pages} 0 R >>".encode(), compressed)
    return cat


def _spec15_doc(uid: str, pred: bool, w, split: bool, comp: bool,
                indirect_length: bool = False) -> bytes:
    b = Pdf15Builder(predictor=pred, w=w, index_split=split)
    content = f"BT /F1 12 Tf (Spec15 {uid}) Tj 0 -14 Td (second line {uid}) Tj ET".encode("latin-1")
    if indirect_length:
        ln = b.add(str(len(content)).encode(), compressed=True)
        c = b.add(f"<< /Length {ln} 0 R >>".encode() + b"\nstream\n" + content + b"\nendstream")
    else:
        c = b.add_stream("", content, compress=True)
    f = b.add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>", compressed=comp)
    root = _page_setup15(b, c, f, compressed=comp)
    return b.build(root)


# PDF 1.5 construct matrix for the spec-mode fixture family: xref
# streams the reference cannot read (spec_mode=True required)
SPEC15_CONSTRUCTS = {
    "xs-plain": lambda uid: _spec15_doc(uid, False, (1, 4, 2), False, True),
    "xs-pred": lambda uid: _spec15_doc(uid, True, (1, 4, 2), False, True),
    "xs-w121-split": lambda uid: _spec15_doc(uid, True, (1, 2, 1), True, True),
    "xs-uncompressed": lambda uid: _spec15_doc(uid, False, (0, 2, 1), False, False),
    "xs-indirect-len": lambda uid: _spec15_doc(uid, True, (1, 4, 2), False, True, indirect_length=True),
}


# Form-XObject construct matrix for the spec-mode `Do` recursion family
# (the reference parses-and-ignores Do, content.rs:615-620; kept OUT of
# PDF_CONSTRUCTS so the t1/t2/bench corpora stay byte-stable)
XOBJ_CONSTRUCTS = {
    "xo-plain": lambda uid: pdf_xobj(uid),
    "xo-inherit": lambda uid: pdf_xobj(uid, own_res=False),
    "xo-flate": lambda uid: pdf_xobj(uid, compress=True),
    "xo-nested": lambda uid: pdf_xobj(uid, nested=True),
    "xo-nested-flate": lambda uid: pdf_xobj(uid, nested=True, compress=True),
}


def pdf_filtered(uid: str, filt: str | list[str], early_change: int | None = None,
                 columns: int | None = None) -> bytes:
    """Content stream encoded with the spec-mode stream filters (ISO
    32000-1 7.4): FlateDecode, ASCIIHexDecode, ASCII85Decode,
    RunLengthDecode, LZWDecode. `filt` is one name, or a list written
    as a /Filter array and decoded first to last. `columns` PNG-predicts
    the content before a single FlateDecode or LZWDecode filter (Up
    rows, /Predictor 12). The reference rejects every non-Flate filter
    name and every array (body.rs:47-54), so parity mode raises; spec
    mode decodes."""
    import base64

    from ..pdfref.filters import lzw_encode_pdf

    names = [filt] if isinstance(filt, str) else filt
    text = f"filter {' '.join(names)} {uid}"
    data = f"BT /F1 10 Tf 50 700 Td {_lit(text)} Tj ET".encode("latin-1")
    parms = []
    if columns is not None:
        data += b" " * (-len(data) % columns)
        data = b"".join(
            b"\x02" + bytes((data[i + j] - (data[i + j - columns] if i else 0)) & 0xFF
                            for j in range(columns))
            for i in range(0, len(data), columns)
        )
        parms.append(f"/Predictor 12 /Columns {columns}")
    for name in reversed(names):
        if name == "FlateDecode":
            data = zlib.compress(data, 6)
        elif name == "ASCIIHexDecode":
            data = data.hex().upper().encode() + b">"
        elif name == "ASCII85Decode":
            data = base64.a85encode(data) + b"~>"
        elif name == "RunLengthDecode":
            # literal runs of <=128 bytes, EOD marker
            out = bytearray()
            for i in range(0, len(data), 128):
                chunk = data[i : i + 128]
                out += bytes([len(chunk) - 1]) + chunk
            out.append(128)
            data = bytes(out)
        elif name == "LZWDecode":
            data = lzw_encode_pdf(data, early_change=1 if early_change is None else early_change)
            if early_change is not None:
                parms.append(f"/EarlyChange {early_change}")
        else:
            raise ValueError(name)
    if isinstance(filt, str):
        extra = f" /Filter /{filt}"
    else:
        extra = " /Filter [ " + " ".join(f"/{n}" for n in names) + " ]"
    if parms:
        extra += f" /DecodeParms << {' '.join(parms)} >>"
    b = PdfBuilder()
    c = b.add_stream(extra, data)
    f = _simple_font(b)
    root = _page_setup(b, c, f)
    return b.build(root)


def pdf_filtered_broken(uid: str) -> bytes:
    """ASCII85 content stream corrupted in place (same length, so xref
    offsets stay valid) with an overflowing group — spec-mode must
    surface a decode error row, not partial text."""
    data = pdf_filtered(uid, "ASCII85Decode")
    marker = b"stream\n"
    i = data.index(marker) + len(marker)
    # "uuuuu" is a base-85 group > 2^32 -> ParseError("ASCII85", overflow)
    return data[:i] + b"uuuuu" + data[i + 5 :]


# Stream-filter construct matrix for the spec-mode filter family
# (parity mode rejects every name here like the reference, body.rs:47-54;
# kept OUT of PDF_CONSTRUCTS so the t1/t2/bench corpora stay byte-stable)
FILTER_CONSTRUCTS = {
    "flt-hex": lambda uid: pdf_filtered(uid, "ASCIIHexDecode"),
    "flt-a85": lambda uid: pdf_filtered(uid, "ASCII85Decode"),
    "flt-rle": lambda uid: pdf_filtered(uid, "RunLengthDecode"),
    "flt-lzw": lambda uid: pdf_filtered(uid, "LZWDecode"),
    "flt-lzw-ec0": lambda uid: pdf_filtered(uid, "LZWDecode", early_change=0),
    "flt-a85-broken": pdf_filtered_broken,
}


class EncryptedPdfBuilder(PdfBuilder):
    """Classic-xref builder whose streams (and hex strings) are
    encrypted with the standard security handler (ISO 32000-1 §7.6):
    R2/RC4-40, R3/RC4-128, or R4 crypt filters (/V2 RC4, /AESV2
    AES-128-CBC). The engine's spec mode decrypts these with the empty
    user password (pdfref/crypt.py); parity mode surfaces
    `error:Encrypted` like it does for every encrypted document.

    The writer side reuses the engine's algorithm implementations
    (compute_o / file_key / compute_u / object_key) — the round-trip is
    still independently pinned by the FIPS-197 / RC4 published vectors
    and the hand-computed key-derivation test in tests/test_crypt.py.
    """

    def __init__(self, uid: str, r: int = 3, v: int = 2, nbits: int = 128,
                 cfm: str | None = None, user_pw: bytes = b"",
                 encrypt_metadata: bool = True):
        import hashlib

        from ..pdfref import crypt as C

        super().__init__(version="1.6" if v == 4 else "1.4")
        self.r, self.v, self.nbits, self.cfm = r, v, nbits, cfm
        self.encrypt_metadata = encrypt_metadata
        self.p = -44  # print+copy denied: a realistic permissions mask
        n = 5 if r == 2 else nbits // 8
        self.id0 = hashlib.md5(f"encid:{uid}".encode()).digest()
        self.o_entry = C.compute_o(b"fixture-owner", user_pw, r, n)
        self.fkey = C.file_key(user_pw, self.o_entry, self.p, self.id0, r, n,
                               encrypt_metadata)
        self.u_entry = C.compute_u(self.fkey, self.id0, r)
        self.cipher = "aesv2" if cfm == "AESV2" else "rc4"
        self._C = C

    def _encrypt(self, data: bytes, num: int) -> bytes:
        C = self._C
        if self.cipher == "aesv2":
            key = C.object_key(self.fkey, num, 0, True)
            # deterministic IV: fixtures are pure functions of (id, uid)
            import hashlib

            iv = hashlib.md5(self.id0 + num.to_bytes(4, "big")).digest()
            return iv + C.aes_cbc_encrypt(key, iv, data)
        return C.rc4(C.object_key(self.fkey, num, 0, False), data)

    def add_stream(self, header_extra: str, data: bytes, compress: bool = False,
                   length_ref: int | None = None) -> int:
        if compress:
            import zlib as _z

            data = _z.compress(data, 6)
            header_extra += " /Filter /FlateDecode"
        data = self._encrypt(data, len(self.objects) + 1)
        if length_ref is not None:
            header = f"<< /Length {length_ref} 0 R{header_extra} >>"
        else:
            header = f"<< /Length {len(data)}{header_extra} >>"
        body = header.encode("latin-1") + b"\nstream\n" + data + b"\nendstream"
        return self.add(body)

    def add_hexstring_dict(self, key: str, plaintext: bytes, extra: str = "") -> int:
        """An object whose /{key} is an ENCRYPTED hex string (exercises
        the string-decryption path, e.g. an /Info /Title)."""
        num = len(self.objects) + 1
        enc = self._encrypt(plaintext, num)
        return self.add(f"<< /{key} <{enc.hex().upper()}>{extra} >>".encode())

    def build_encrypted(self, root: int, info: int | None = None) -> bytes:
        if self.v == 4:
            em = "" if self.encrypt_metadata else " /EncryptMetadata false"
            cf = (
                f" /CF << /StdCF << /CFM /{self.cfm} /Length {self.nbits // 8} >> >>"
                f" /StmF /StdCF /StrF /StdCF{em}"
            )
        else:
            cf = ""
        enc_obj = self.add(
            (
                f"<< /Filter /Standard /V {self.v} /R {self.r} /Length {self.nbits} "
                f"/P {self.p} /O <{self.o_entry.hex().upper()}> "
                f"/U <{self.u_entry.hex().upper()}>{cf} >>"
            ).encode()
        )
        trailer = (
            f" /Encrypt {enc_obj} 0 R"
            f" /ID [ <{self.id0.hex().upper()}> <{self.id0.hex().upper()}> ]"
        )
        return self.build(root, info=info, trailer_extra=trailer)


def pdf_encrypted(uid: str, r: int = 3, v: int = 2, nbits: int = 128,
                  cfm: str | None = None, user_pw: bytes = b"",
                  encrypt_metadata: bool = True, compress: bool = True) -> bytes:
    """Encrypted single-page document: Flate'd content stream (decrypt
    THEN inflate — order matters), an encrypted CMap stream, and an
    /Info dict whose /Title is an encrypted hex string."""
    b = EncryptedPdfBuilder(uid, r=r, v=v, nbits=nbits, cfm=cfm,
                            user_pw=user_pw, encrypt_metadata=encrypt_metadata)
    text = f"secret {uid}"
    alphabet = sorted(set(text))
    code_of = {ch: i + 1 for i, ch in enumerate(alphabet)}
    cm = cmap_source({c: ch for ch, c in code_of.items()}, two_byte=False)
    cm_obj = b.add_stream("", cm.encode("latin-1"), compress=compress)
    font = b.add(
        (
            f"<< /Type /Font /Subtype /TrueType /BaseFont /FAKE+Enc "
            f"/FirstChar 1 /LastChar {len(alphabet)} /ToUnicode {cm_obj} 0 R >>"
        ).encode()
    )
    tj = _encode_tj_hex(text, code_of, 2)
    content = (
        f"BT /F1 11 Tf 40 700 Td {_lit('encrypted line ' + uid)} Tj "
        f"0 -14 Td [{tj}] TJ ET"
    ).encode("latin-1")
    c = b.add_stream("", content, compress=compress)
    root = _page_setup(b, c, font)
    info = b.add_hexstring_dict("Title", f"Classified {uid}".encode("latin-1"))
    return b.build_encrypted(root, info=info)


# Encrypted construct matrix for the spec-mode decryption family
# (parity mode yields error:Encrypted for every one of these; kept OUT
# of PDF_CONSTRUCTS so the t1/t2/bench corpora stay byte-stable)
ENC_CONSTRUCTS = {
    "enc-rc4-40": lambda uid: pdf_encrypted(uid, r=2, v=1, nbits=40),
    "enc-rc4-128": lambda uid: pdf_encrypted(uid, r=3, v=2, nbits=128),
    "enc-aesv2": lambda uid: pdf_encrypted(uid, r=4, v=4, nbits=128, cfm="AESV2"),
    "enc-cf-v2": lambda uid: pdf_encrypted(uid, r=4, v=4, nbits=128, cfm="V2"),
    "enc-nometa": lambda uid: pdf_encrypted(
        uid, r=4, v=4, nbits=128, cfm="AESV2", encrypt_metadata=False
    ),
    "enc-uncompressed": lambda uid: pdf_encrypted(uid, r=3, v=2, nbits=128, compress=False),
    # password-protected: empty user password fails the /U check ->
    # error:Encrypted row even in spec mode (never emit ciphertext)
    "enc-badpass": lambda uid: pdf_encrypted(uid, r=3, v=2, nbits=128, user_pw=b"hunter2"),
}


# --- seeded fuzz documents ----------------------------------------------
# Random-but-seeded documents for the differential suite against the
# reference binary and for the committed parity lock
# (tools/parity_lock.py): both build document `seed` with the same
# generator, so a digest names the same bytes the binary was checked on.


def _random_content(rng: random.Random) -> str:
    """A random-but-valid-ish content stream from the reference's
    operator vocabulary."""
    ops = ["BT", "/F1 10 Tf"]
    words = ["alpha", "be(t)a", "ga\\mma", "d e l t a", "x" * rng.randint(1, 30)]
    big = "34" + "0" * 37  # ~3.4e38: f32 overflow territory for products
    for _ in range(rng.randint(3, 25)):
        choice = rng.randrange(10)
        if choice < 3:
            if rng.random() < 0.08:
                ops.append(f"{big} {rng.randint(-500, 500)} Td")
            else:
                ops.append(f"{rng.randint(-500, 500)} {rng.randint(-500, 500)} Td")
        elif choice == 3:
            ops.append(f"{rng.randint(-50, 50)} {rng.randint(-50, 50)} TD")
        elif choice == 4:
            ops.append("T*")
        elif choice == 5:
            a = rng.choice([1, 2])
            ops.append(f"{a} 0 0 {a} {rng.randint(0, 500)} {rng.randint(0, 500)} Tm")
        elif choice == 6:
            ops.append(f"{_lit(rng.choice(words))} Tj")
        elif choice == 7:
            items = []
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.5:
                    items.append(_lit(rng.choice(words)))
                else:
                    items.append(str(rng.randint(-900, 900)))
            ops.append("[" + " ".join(items) + "] TJ")
        elif choice == 8:
            hexstr = "".join(rng.choice("0123456789ABCDEF") for _ in range(rng.randint(1, 9)))
            ops.append(f"[<{hexstr}> {rng.randint(-200, 200)}] TJ")
        else:
            ops.append(
                rng.choice(
                    [
                        "q",
                        "0.5 g",
                        "1 0 0 RG",
                        "5 5 50 50 re",
                        "f",
                        "BMC",
                        "EMC",
                        # stray ')' runs the literal-string loop (escape
                        # handling included) until parens balance
                        ") \\( (n)) (m) Tj",
                        ") x) (s) Tj",
                    ]
                )
            )
    # balance q/Q roughly: close nothing (Q on empty stack would error both sides)
    ops.append("ET")
    return "\n".join(ops)


def fuzz_pdf(seed: int) -> bytes:
    """Random content-stream document number `seed`: operator noise,
    literal/hex strings, escapes, kerned TJ arrays, skewed offsets."""
    rng = random.Random(seed * 7919 + 13)
    b = PdfBuilder()
    content = _random_content(rng).encode("latin-1")
    c = b.add_stream("", content, compress=rng.random() < 0.5)
    if rng.random() < 0.4:
        widths = " ".join(str(rng.randint(200, 900)) for _ in range(95))
        f = b.add(
            (
                "<< /Type /Font /Subtype /Type1 /BaseFont /FZ "
                f"/FirstChar 32 /LastChar 126 /Widths [ {widths} ] >>"
            ).encode()
        )
    else:
        f = _simple_font(b)
    root = _page_setup(b, c, f)
    return b.build(root, offset_skew=3 if rng.random() < 0.2 else 0)


def fuzz_cmap_pdf(seed: int) -> bytes:
    """Random CMap-coded document number `seed`: 1- or 2-byte ToUnicode,
    random alphabet/widths, hexstring TJ runs with kerning, occasional
    missing-code references (panic in the reference -> error row here),
    interleaved Tj literals (which bypass the CMap, content.rs:752-765).
    """
    rng = random.Random(seed * 104729 + 7)
    b = PdfBuilder()
    two_byte = rng.random() < 0.5
    letters = rng.sample("abcdefghijklmnopqrstuvwxyz .-", rng.randint(4, 12))
    base = 0x0100 if two_byte else 1
    code_of = {ch: base + i for i, ch in enumerate(letters)}
    cm = cmap_source({c: ch for ch, c in code_of.items()}, two_byte=two_byte)
    cm_obj = b.add_stream("", cm.encode("latin-1"), compress=rng.random() < 0.5)
    width_part = ""
    if not two_byte and rng.random() < 0.5:
        widths = " ".join(str(rng.randint(200, 900)) for _ in range(len(letters)))
        width_part = f" /FirstChar {base} /LastChar {base + len(letters) - 1} /Widths [ {widths} ]"
    font = b.add(
        (
            f"<< /Type /Font /Subtype /Type0 /BaseFont /FZZ{width_part} "
            f"/ToUnicode {cm_obj} 0 R >>"
        ).encode()
    )
    w = 4 if two_byte else 2
    ops = ["BT", "/F1 10 Tf"]
    for _ in range(rng.randint(2, 12)):
        choice = rng.randrange(6)
        if choice < 3:
            items = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.6:
                    run = "".join(rng.choice(letters) for _ in range(rng.randint(1, 8)))
                    hexes = "".join(f"{code_of[ch]:0{w}X}" for ch in run)
                    # rare invalid code: panics in the reference (content.rs:800-803)
                    if rng.random() < 0.06:
                        hexes += f"{0xEEEE if two_byte else 0xEE:0{w}X}"
                    items.append(f"<{hexes}>")
                else:
                    items.append(str(rng.randint(-900, 900)))
            ops.append("[" + " ".join(items) + "] TJ")
        elif choice == 3:
            ops.append(f"{_lit(''.join(rng.choice(letters) for _ in range(rng.randint(1, 6))))} Tj")
        elif choice == 4:
            ops.append(f"{rng.randint(-300, 300)} {rng.randint(-300, 300)} Td")
        else:
            ops.append("T*")
    ops.append("ET")
    c = b.add_stream("", "\n".join(ops).encode("latin-1"), compress=rng.random() < 0.5)
    root = _page_setup(b, c, font)
    return b.build(root)
