"""Ports of the reference content-stream unit tests (content.rs:954-1086)
plus regression tests for the §2.6 assembly quirks."""

import pytest

from pdfrust_ray.pdfref.body import Font, FontMap, Resources
from pdfrust_ray.pdfref.content import TextContent
from pdfrust_ray.pdfref.errors import ParseError
from pdfrust_ray.pdfref.numbers import Number


def _resources(fonts: dict) -> Resources:
    r = Resources(None, None)
    if fonts:
        fm = FontMap.__new__(FontMap)
        fm.fonts = fonts
        r.font = fm
    return r


def _font(subtype="Type1", base_font="F", first_char=None, widths=None, to_unicode=None):
    f = Font.__new__(Font)
    f.subtype = subtype
    f.name = None
    f.base_font = base_font
    f.first_char = Number.int(first_char) if first_char is not None else None
    f.last_char = None
    f.widths = [Number.int(w) for w in widths] if widths is not None else None
    f.to_unicode = to_unicode
    f.encoding = None
    return f


def instructions(raw: bytes):
    tc = TextContent(raw, _resources({}))
    out = []
    while True:
        i = tc.next_instruction()
        if i is None:
            return out
        out.append(i)


def test_instruction_stream():
    raw = b"BT\n70 50 TD\n/F1 12 Tf\n(Hello, world!) Tj\nET"
    assert [i[0] for i in instructions(raw)] == ["BT", "TD", "Tf", "Tj", "ET"]


def test_hexstring_tj_array():
    raw = b"[<18>14<0D>2<06>7<14>1<04>-4<03>21<02>1<06>-2<04>-4<02>1<0906>]TJ"
    (ins,) = instructions(raw)
    assert ins[0] == "TJ"
    texts = [v for k, v in ins[1] if k == "text"]
    poss = [v for k, v in ins[1] if k == "pos"]
    assert texts[0] == bytes([24])
    assert texts[-1] == bytes([9, 6])
    assert poss[0] == Number.int(14)
    assert poss[-1] == Number.int(1)


def test_inline_dict_skipped():
    raw = b" /P <</MCID 0>> BDC q\n0.00000887 0 595.25 842 re"
    out = instructions(raw)
    assert [i[0] for i in out] == ["BDC", "q", "re"]


def test_complex_tj():
    raw = b"BT\n/F33 8.9664 Tf 54 713.7733 Td[(v0)-525(:=)-525(ld)]TJ"
    out = instructions(raw)
    assert [i[0] for i in out] == ["BT", "Tf", "Td", "TJ"]
    items = out[-1][1]
    assert items[0] == ("text", b"v0")
    assert items[1] == ("pos", Number.int(-525))


def test_tj_no_font_error():
    tc = TextContent(b"BT (hi) Tj ET", _resources({}))
    with pytest.raises(ParseError):
        tc.get_text(False)


def test_tj_ignores_cmap():
    # Tj pushes raw bytes as chars with NO CMap lookup (content.rs:752-765)
    from pdfrust_ray.pdfref.cmap import ToUnicodeCMap

    cmap = ToUnicodeCMap(b"\x00", b"\xff", False, {ord("a"): "X"})
    res = _resources({"F1": _font(to_unicode=cmap)})
    tc = TextContent(b"BT /F1 10 Tf (abc) Tj ET", res)
    assert tc.get_text(False) == "abc"


def test_tj_uses_cmap_and_missing_code_errors():
    from pdfrust_ray.pdfref.cmap import ToUnicodeCMap

    cmap = ToUnicodeCMap(b"\x00", b"\xff", False, {1: "H", 2: "i"})
    res = _resources({"F1": _font(to_unicode=cmap)})
    tc = TextContent(b"BT /F1 10 Tf [<0102>] TJ ET", res)
    assert tc.get_text(False) == "Hi"
    tc = TextContent(b"BT /F1 10 Tf [<03>] TJ ET", res)
    with pytest.raises(ParseError) as e:
        tc.get_text(False)
    assert e.value.kind == "CMapMiss"


def test_two_byte_cmap():
    from pdfrust_ray.pdfref.cmap import ToUnicodeCMap

    cmap = ToUnicodeCMap(b"\x00\x00", b"\xff\xff", True, {0x0102: "A", 0x0304: "B"})
    res = _resources({"F1": _font(to_unicode=cmap)})
    tc = TextContent(b"BT /F1 10 Tf [<01020304>] TJ ET", res)
    assert tc.get_text(False) == "AB"


def test_newline_on_ty_change():
    res = _resources({"F1": _font()})
    raw = b"BT /F1 10 Tf 0 700 Td [(line1)] TJ 0 -20 Td [(line2)] TJ 10 0 Td [(same)] TJ ET"
    tc = TextContent(raw, res)
    # leading newline from the first Td is trimmed (content.rs:950)
    assert tc.get_text(False) == "line1\nline2same"


def test_kerning_inserts_no_space():
    res = _resources({"F1": _font()})
    raw = b"BT /F1 10 Tf [(Hello)-350(world)] TJ ET"
    tc = TextContent(raw, res)
    assert tc.get_text(False) == "Helloworld"


def test_td_wrong_arity_skipped():
    res = _resources({"F1": _font()})
    raw = b"BT /F1 10 Tf 1 2 3 Td (x) Tj ET"
    tc = TextContent(raw, res)
    assert tc.get_text(False) == "x"


def test_q_pop_empty_stack_error():
    with pytest.raises(ParseError):
        instructions(b"Q")


def test_unknown_operator_keeps_operands():
    # unknown op leaves operands buffered (content.rs:624-628)
    out = instructions(b"1 2 foo 3 4 5 6 re")
    # re consumes buf[0..3] = 1 2 3 4
    assert [i[0] for i in out] == ["re"]


def test_chars_mode_format():
    res = _resources({"F1": _font(subtype="TrueType", base_font="Arial")})
    tc = TextContent(b"BT /F1 12 Tf (Hi) Tj ET", res)
    out = tc.get_text(True)
    assert out == (
        "'H', \"TrueType\", \"Arial\", (1, 0, 0, 1, 0, 0)\n"
        "'i', \"TrueType\", \"Arial\", (1, 0, 0, 1, 0, 0)\n"
    )


def test_width_advance_math():
    # widths drive Tm translation: w0/1000 * tfs (content.rs:818-855)
    from pdfrust_ray.pdfref.cmap import ToUnicodeCMap

    cmap = ToUnicodeCMap(b"\x00", b"\xff", False, {65: "A"})
    res = _resources({"F1": _font(first_char=65, widths=[500], to_unicode=cmap)})
    tc = TextContent(b"BT /F1 10 Tf [<41>] TJ ET", res)
    tc.get_text(False)
    assert tc.tm.e == 5.0  # 500/1000 * 10


def test_empty_widths_missing_firstchar_errors():
    # /Widths [ ] present with FirstChar missing hits the reference's
    # unwrap panic (body.rs:195, rc 101) on the TJ advance path; widths
    # ABSENT is the silent Err->0.0 case (body.rs:201). Verified vs the
    # reference binary (round 2).
    res = _resources({"F1": _font(widths=[])})
    tc = TextContent(b"BT /F1 10 Tf [(hi)] TJ ET", res)
    with pytest.raises(ParseError):
        tc.get_text(False)
    # widths=None stays the silent zero-advance path
    res2 = _resources({"F1": _font(widths=None)})
    tc2 = TextContent(b"BT /F1 10 Tf [(hi)] TJ ET", res2)
    assert tc2.get_text(False) == "hi"


def test_width_error_wins_over_later_cmap_miss():
    # Per-glyph checks interleave in emission order (content.rs:800-820):
    # glyph 0 has a valid CMap code but the font's width config is broken
    # (Widths present, FirstChar missing -> body.rs:195 unwrap), glyph 1
    # has a MISSING CMap code. The reference raises the Font error at
    # glyph 0 before ever touching glyph 1 — both the vectorized (text)
    # and scalar (chars) paths must report the same first error.
    from pdfrust_ray.pdfref.cmap import ToUnicodeCMap

    cmap = ToUnicodeCMap(b"\x00", b"\xff", False, {1: "H"})
    res = _resources({"F1": _font(widths=[500], to_unicode=cmap)})
    for display_char in (False, True):
        tc = TextContent(b"BT /F1 10 Tf [<0102>] TJ ET", res)
        with pytest.raises(ParseError) as e:
            tc.get_text(display_char)
        assert e.value.kind == "Font", (display_char, e.value.kind)


def test_cmap_miss_on_pair_wins_over_odd_trailing_byte():
    # two-byte CMap, complete first pair missing from the map, then a
    # lone trailing byte: the in-order walk hits CMapMiss first
    from pdfrust_ray.pdfref.cmap import ToUnicodeCMap

    cmap = ToUnicodeCMap(b"\x00\x00", b"\xff\xff", True, {0x0102: "A"})
    res = _resources({"F1": _font(to_unicode=cmap)})
    tc = TextContent(b"BT /F1 10 Tf [<999903>] TJ ET", res)
    with pytest.raises(ParseError) as e:
        tc.get_text(False)
    assert e.value.kind == "CMapMiss"


def test_chars_mode_positions_follow_a_per_glyph_walk():
    # chars mode places glyph i at the f32 partial sum of the Tm deltas
    # before it; the reference is the per-glyph walk of content.rs:818-943
    from pdfrust_ray.pdfref.numbers import Matrix, f32

    widths = [250 + 37 * i for i in range(95)]
    res = _resources({"F1": _font(first_char=32, widths=widths)})
    raw = b"BT /F1 9.5 Tf 0.5 Tc 2 0.25 0 1 10 20 Tm [(a b) -120 (cd) 7.25 ( e)] TJ ET"
    lines = TextContent(raw, res).get_text(True).splitlines()

    a, b, e, f = 2.0, 0.25, 10.0, 20.0
    want = []
    for item in (b"a b", -120, b"cd", 7.25, b" e"):
        if isinstance(item, bytes):
            for c in item:
                want.append(Matrix(a, b, 0, 1, e, f).rust_display())
                tx = f32(f32(f32(widths[c - 32] / 1000.0) * 9.5) + 0.5)
                e, f = f32(f32(tx * a) + e), f32(f32(tx * b) + f)
        else:
            tx = f32(f32((-item) / 1000.0) * 9.5)
            e, f = f32(f32(tx * a) + e), f32(f32(tx * b) + f)
    assert len(lines) == 7
    assert [line.split(", ", 3)[3] for line in lines] == want
