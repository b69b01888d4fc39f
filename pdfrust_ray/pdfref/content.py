"""Content-stream interpreter and text assembly.

Pins /root/reference/src/content.rs:
  - operand tokens buffer until an operator keyword arrives; inline
    dictionaries are skipped to DictEnd (content.rs:234-241); unknown
    operators are logged-and-ignored WITHOUT clearing the operand
    buffer (content.rs:624-628) — quirk kept; non-operand tokens
    (comments, stray DictEnd, stream keywords) panic
    (content.rs:630).
  - graphics/text state per content.rs:637-717 (th defaults to
    Real(1.0), tc/tw/tl Integer(0)); q/Q push/pop (pop on empty
    panics); BT resets Tm/Tlm to identity (content.rs:171-173).
  - Td premultiplies a translation into Tlm then copies to Tm
    (content.rs:179-183); TD sets tl = -ty first (content.rs:185-188);
    T* = Td(0, tl) (content.rs:218-220); Td with arity != 2 is
    skipped (content.rs:506-509).
  - text assembly (content.rs:719-952):
      * "\\n" emitted iff Tm.ty (f32) changed since the previous show
        op (content.rs:747-750, 777-781);
      * Tj pushes raw bytes as chars with NO CMap lookup
        (content.rs:752-765); Tj requires buf[0] to be a literal
        string (content.rs:589-592);
      * TJ with a CMap assembles 1- or 2-byte codes, missing code
        panics (content.rs:800-803); without a CMap, bytes as chars;
      * advance math: tx = (w0*tfs + tc [+ tw if code byte == b' '])
        * th; Tm = translate(tx,0) * Tm (content.rs:818-855); width
        lookup uses the HIGH byte of a 2-byte code (content.rs:818);
      * kerning numbers translate by -tj/1000*tfs*th and insert NO
        space (the heuristic is commented out, content.rs:929-942);
      * fonts resolved per show op; missing font name or no Tf panics
        (content.rs:738-744);
      * final output trims leading '\\n' and ' ' only
        (content.rs:950).
  - chars mode emits "{char:?}, {subtype:?}, {basefont:?}, {tm}\\n"
    per glyph (content.rs:753-761, 805-813) with Rust Debug/Display
    formatting.
"""

from __future__ import annotations

import numpy as _np

from .errors import ParseError
from .numbers import Matrix, Number, f32, rust_char_debug, rust_str_debug
from .tokenizer import (
    ARR_BEGIN,
    ARR_END,
    DICT_BEGIN,
    DICT_END,
    HEX,
    LIT,
    NAME,
    NUM,
    STR,
    Tokenizer,
)

_SPACE = 0x20


class TextState:
    __slots__ = ("tc", "tw", "th", "tl", "tf", "tfs", "tmode")

    def __init__(self):
        self.tc = Number.int(0)
        self.tw = Number.int(0)
        self.th = Number.real(1.0)
        self.tl = Number.int(0)
        self.tf = None
        self.tfs = None
        self.tmode = Number.int(0)

    def copy(self):
        s = TextState.__new__(TextState)
        s.tc, s.tw, s.th, s.tl, s.tf, s.tfs, s.tmode = (
            self.tc,
            self.tw,
            self.th,
            self.tl,
            self.tf,
            self.tfs,
            self.tmode,
        )
        return s


class GraphicsState:
    __slots__ = ("ctm", "text_state", "line_width", "line_cap", "flatness")

    def __init__(self):
        self.ctm = Matrix()
        self.text_state = TextState()
        self.line_width = Number.real(1.0)
        self.line_cap = Number.int(0)
        self.flatness = Number.real(1.0)

    def copy(self):
        g = GraphicsState.__new__(GraphicsState)
        g.ctm = self.ctm
        g.text_state = self.text_state.copy()
        g.line_width = self.line_width
        g.line_cap = self.line_cap
        g.flatness = self.flatness
        return g


class _Advances:
    """Tm steps for one text state (font, tfs, tc, tw, th, Tm.a, Tm.b):
    the one statement of the glyph advance (content.rs:818-855). For a
    code byte c, tx = ((w(c)*tfs + tc [+ tw if c == b' ']) * th), each
    step f32-rounded, and Tm = translate(tx, 0) * Tm moves only e and
    f, by f32(tx*a) and f32(tx*b). A kerning number v gives
    tx = -v/1000*tfs*th and inserts NO space (content.rs:916-943).

    Tables are kept across instructions (`TextContent._advances`) and
    an entry is only added when its width succeeds, so a width error
    re-raises on every encounter."""

    __slots__ = ("width", "tfs", "tc", "tw", "th", "a", "b", "e", "f", "done", "kerns")

    def __init__(self, width, tfs, tc, tw, th, a, b):
        self.width = width
        self.tfs, self.tc, self.tw, self.th, self.a, self.b = tfs, tc, tw, th, a, b
        self.e = _np.empty(256, dtype=_np.float32)
        self.f = _np.empty(256, dtype=_np.float32)
        self.done = _np.zeros(256, dtype=bool)
        self.kerns: dict = {}

    def fill(self, codes) -> None:
        """Add the entries `codes` lacks; raises the Font width error
        (Widths without FirstChar, body.rs:195) of `Font.width_f32`."""
        for c in _np.unique(codes[~self.done[codes]]).tolist():
            tx = f32(self.width(c) * self.tfs)
            tx = f32(tx + self.tc)
            if c == _SPACE:
                tx = f32(tx + self.tw)
            tx = f32(tx * self.th)
            self.e[c] = f32(tx * self.a)
            self.f[c] = f32(tx * self.b)
            self.done[c] = True

    def kern(self, v: float):
        """(e delta, f delta) of kerning number v, as 1-element arrays."""
        d = self.kerns.get(v)
        if d is None:
            tx = f32(f32(f32((-v) / 1000.0) * self.tfs) * self.th)
            d = self.kerns[v] = (
                _np.array([f32(tx * self.a)], dtype=_np.float32),
                _np.array([f32(tx * self.b)], dtype=_np.float32),
            )
        return d


def _decode(val: bytes, cmap, adv: _Advances):
    """Code bytes and glyph characters of one TJ text item
    (content.rs:783-820), checked in the reference's per-glyph order:
    the CMap lookup (CMapMiss), then the width (the Font error); after
    the last whole pair, an odd trailing byte of a two-byte CMap. A
    two-byte code advances by the width of its HIGH byte
    (content.rs:818); without a CMap the bytes are the characters.

    Returns (codes, chars, err): `codes` (int array) are the code bytes
    whose advances `adv` holds, `chars` the glyphs a per-glyph walk
    emits before failing (one more than `codes` when the width failed),
    `err` the ParseError that ends the item, or None.

    The width error does not depend on the code (`Font.width_f32`
    raises for every code when Widths is present and FirstChar is
    not), so it is met on the first glyph, after that glyph's CMap
    lookup: filling the table once per item keeps the order."""
    if cmap is None:
        codes = _np.frombuffer(val, dtype=_np.uint8).astype(_np.intp)
        chars, err = val.decode("latin-1"), None
    else:
        if cmap.is_two_bytes:
            idxs = _np.frombuffer(val[: len(val) & ~1], dtype=">u2").astype(_np.intp)
            codes = idxs >> 8
        else:
            codes = idxs = _np.frombuffer(val, dtype=_np.uint8).astype(_np.intp)
        chars = list(map(cmap.cmap.get, idxs.tolist()))
        err = None
        if None in chars:
            k = chars.index(None)
            err = ParseError("CMapMiss", f"CMap does not contain a char with idx {int(idxs[k])}")
            chars, codes = chars[:k], codes[:k]
        elif len(val) % 2 and cmap.is_two_bytes:
            # the lone high byte fails next(it) (content.rs:792-799)
            err = ParseError("Content", "odd bytes for two-byte CMap")
    try:
        adv.fill(codes)
    except ParseError as width_err:
        return codes[:0], chars, width_err
    return codes, chars, err


def _fold(start: float, deltas: list):
    """float32 partial sums start, start+d1, ... over the concatenated
    `deltas`: np.add.accumulate rounds every partial sum to binary32,
    bit-identical to the per-glyph e = f32(d + e) (inf/NaN propagate as
    in IEEE)."""
    arr = _np.empty(1 + sum(len(d) for d in deltas), dtype=_np.float32)
    arr[0] = start
    if len(arr) > 1:
        arr[1:] = _np.concatenate(deltas)
    _np.add.accumulate(arr, out=arr)
    return arr


class TextContent:
    """Interpreter state + the get_text() reduction."""

    def __init__(self, content_bytes: bytes, resources, enable_xobjects: bool = False):
        self.resources = resources
        self.tok = Tokenizer(content_bytes, 0)
        self.gs = GraphicsState()
        self.gs_stack: list[GraphicsState] = []
        self.tm = Matrix()
        self.tlm = Matrix()
        # spec-mode Form XObject recursion (`Do`): the reference parses
        # and IGNORES Do (content.rs:615-620) — parity default keeps
        # that; with enable_xobjects=True the form's content stream is
        # expanded INLINE (tokenizer stack), sharing graphics/text state
        # with the invoking stream, with the form's own /Resources (if
        # any) active inside it.
        self.xobj_enabled = enable_xobjects
        self.tok_stack: list = []

    # --- state processors (content.rs:122-221) ---
    def _process_td(self, tx: Number, ty: Number):
        self.tlm = Matrix(1.0, 0.0, 0.0, 1.0, tx.as_f32(), ty.as_f32()) * self.tlm
        self.tm = self.tlm

    def _need_num(self, buf, i, op):
        if i >= len(buf):
            raise ParseError("Content", f"missing operand {i} for operator {op}")
        t = buf[i]
        if t[0] != NUM:
            raise ParseError("Content", f"Operand {t!r} is not allowed with operator {op}")
        return t[1]

    def _need_name(self, buf, i, op):
        if i >= len(buf):
            raise ParseError("Content", f"missing operand {i} for operator {op}")
        t = buf[i]
        if t[0] != NAME:
            raise ParseError("Content", f"Operand {t!r} is not allowed with operator {op}")
        return t[1]

    def next_instruction(self):
        """One GraphicsInstruction, or None at end (content.rs:223-635)."""
        buf = []
        while True:
            t = self.tok.next()
            if t is None:
                if self.tok_stack:
                    # end of a Form XObject stream: resume the invoker
                    self.tok, self.resources = self.tok_stack.pop()
                    continue
                return None
            kind = t[0]
            if kind in (LIT, NAME, ARR_BEGIN, ARR_END, HEX, NUM):
                buf.append(t)
                continue
            if kind == DICT_BEGIN:
                while True:
                    t2 = self.tok.next()
                    if t2 is None or t2[0] == DICT_END:
                        break
                continue
            if kind != STR:
                raise ParseError(
                    "Content", f"Pdf token {t!r} has no mapping implemented to ContentStream"
                )
            op = t[1]
            if op == b"q":
                self.gs_stack.append(self.gs.copy())
                return ("q",)
            if op == b"Q":
                if not self.gs_stack:
                    raise ParseError("Content", "Unable to restore graphic state from empty stack")
                self.gs = self.gs_stack.pop()
                return ("Q",)
            if op == b"cm":
                vals = [self._need_num(buf, i, "re") for i in range(6)]
                self.gs.ctm = Matrix(*(v.as_f32() for v in vals))
                return ("cm",)
            if op == b"w":
                self.gs.line_width = self._need_num(buf, 0, "J")
                return ("w",)
            if op == b"J":
                self.gs.line_cap = self._need_num(buf, 0, "J")
                return ("J",)
            if op == b"d":
                if not buf or buf[0][0] != ARR_BEGIN:
                    raise ParseError("Content", "First operand is not allowed for operator d")
                return ("d",)
            if op == b"i":
                self.gs.flatness = self._need_num(buf, 0, "re")
                return ("i",)
            if op == b"gs":
                self._need_name(buf, 0, "gs")
                return ("gs",)
            if op == b"m":
                self._need_num(buf, 0, "re")
                self._need_num(buf, 1, "re")
                return ("m",)
            if op == b"l":
                self._need_num(buf, 0, "re")
                self._need_num(buf, 1, "re")
                return ("l",)
            if op == b"c":
                for i in range(6):
                    self._need_num(buf, i, "Tm")
                return ("c",)
            if op == b"h":
                return ("h",)
            if op == b"re":
                for i in range(4):
                    self._need_num(buf, i, "re")
                return ("re",)
            if op in (b"W", b"W*", b"S", b"f", b"f*", b"n"):
                return (op.decode(),)
            if op == b"cs":
                self._need_name(buf, 0, "cs")
                return ("cs",)
            if op == b"sc":
                self._need_num(buf, 0, "cs")
                return ("sc",)
            if op in (b"G", b"g"):
                self._need_num(buf, 0, "G")
                return (op.decode(),)
            if op in (b"RG", b"rg"):
                for i in range(3):
                    self._need_num(buf, i, "rg")
                return (op.decode(),)
            if op == b"BT":
                self.tm = Matrix()
                self.tlm = Matrix()
                return ("BT",)
            if op == b"ET":
                return ("ET",)
            if op == b"TD":
                tx = self._need_num(buf, 0, "TD")
                ty = self._need_num(buf, 1, "TD")
                self.gs.text_state.tl = -ty
                self._process_td(tx, ty)
                return ("TD",)
            if op == b"Td":
                if len(buf) != 2:
                    return self.next_instruction()  # content.rs:506-509
                tx = self._need_num(buf, 0, "TD")
                ty = self._need_num(buf, 1, "TD")
                self._process_td(tx, ty)
                return ("Td",)
            if op == b"Tc":
                self.gs.text_state.tc = self._need_num(buf, 0, "TD")
                return ("Tc",)
            if op == b"Tf":
                font = self._need_name(buf, 0, "TD")
                size = self._need_num(buf, 1, "TD")
                self.gs.text_state.tf = font
                self.gs.text_state.tfs = size
                return ("Tf",)
            if op == b"Tr":
                self.gs.text_state.tmode = self._need_num(buf, 0, "Tr")
                return ("Tr",)
            if op == b"Tm":
                vals = [self._need_num(buf, i, "Tm") for i in range(6)]
                comps = tuple(v.as_f32() for v in vals)
                self.tm = Matrix(*comps)
                self.tlm = Matrix(*comps)
                return ("Tm",)
            if op == b"T*":
                self._process_td(Number.int(0), self.gs.text_state.tl)
                return ("T*",)
            if op == b"Tj":
                if not buf:
                    raise ParseError("Content", "missing operand for operator Tj")
                if buf[0][0] != LIT:
                    raise ParseError(
                        "Content", f"Operand {buf[0]!r} is not allowed with operator Tj"
                    )
                return ("Tj", buf[0][1])
            if op == b"TJ":
                items = []
                for tk in buf:
                    if tk[0] in (LIT, HEX):
                        items.append(("text", tk[1]))
                    elif tk[0] == NUM:
                        items.append(("pos", tk[1]))
                return ("TJ", items)
            if op == b"Do":
                name = self._need_name(buf, 0, "Do")
                if self.xobj_enabled:
                    resolver = getattr(self.resources, "resolve_form_xobject", None)
                    target = resolver(name) if resolver is not None else None
                    if target is not None:
                        if len(self.tok_stack) >= 16:
                            raise ParseError("Content", "Form XObject nesting too deep")
                        data, form_res = target
                        self.tok_stack.append((self.tok, self.resources))
                        self.tok = Tokenizer(data, 0)
                        if form_res is not None:
                            self.resources = form_res
                return ("Do", name)
            if op in (b"BDC", b"BMC", b"EMC"):
                return (op.decode(),)
            # unknown operator: logged and ignored, buf KEPT (content.rs:624-628)
            continue

    # --- text assembly (content.rs:732-951) ---
    def _font(self):
        ts = self.gs.text_state
        if ts.tf is None:
            raise ParseError("Content", "Text state should have a font set")
        fm = self.resources.font
        if fm is None:
            raise ParseError("Content", f"Fontmap does not contains the font name {ts.tf!r}")
        font = fm.fonts.get(ts.tf)
        if font is None:
            raise ParseError("Content", f"font {ts.tf!r} not in fontmap")
        return font

    def _tfs(self):
        tfs = self.gs.text_state.tfs
        if tfs is None:
            raise ParseError("Content", "Font size should be set before painting a glyph")
        return tfs

    def _char_line(self, ch: str, font) -> str:
        return (
            f"{rust_char_debug(ch)}, {rust_str_debug(font.subtype)}, "
            f"{rust_str_debug(font.base_font)}, {self.tm.rust_display()}\n"
        )

    def _show_tj(self, items, font, display_char: bool, out: list) -> None:
        """TJ (content.rs:783-943). Each text item is decoded once into
        its code bytes and glyph characters (`_decode`); text mode then
        appends the characters, chars mode one `_char_line` per glyph.
        Both step Tm by the same `_Advances` table: every delta of the
        instruction (glyphs and kerning numbers, in order) is folded
        once, and a chars-mode glyph sits at the partial sum of the
        deltas before it. On an error, the glyphs a per-glyph walk
        emits before failing are emitted and Tm is left at the last of
        them: spec mode keeps both when it abandons a Form XObject."""
        if not items:
            return
        ts = self.gs.text_state
        tm = self.tm
        tfs = self._tfs().as_f32()  # raises like content.rs:823-826
        key = (id(font), tfs, ts.tc.as_f32(), ts.tw.as_f32(), ts.th.as_f32(), tm.a, tm.b)
        adv = self._advances.get(key)
        if adv is None:
            adv = self._advances[key] = _Advances(font.width_f32, *key[1:])
        cmap = font.to_unicode
        # text mode skips f when b == 0 (f32(±0 + f) == f for every
        # comparison the engine makes)
        with_f = display_char or tm.b != 0.0
        des, dfs = [], []  # the instruction's Tm deltas, in order
        glyphs = []  # chars mode: (char, number of deltas before it)
        n = 0
        err = None
        for item_kind, val in items:
            if item_kind == "text":
                codes, chars, err = _decode(val, cmap, adv)
                if display_char:
                    glyphs += [(ch, n + i) for i, ch in enumerate(chars[: len(codes) + 1])]
                elif err is None or cmap is None:
                    out.append(chars if cmap is None else "".join(chars))
                des.append(adv.e[codes])
                if with_f:
                    dfs.append(adv.f[codes])
                n += len(codes)
                if err is not None:
                    break
            else:  # kerning number (content.rs:916-943)
                de, df = adv.kern(val.as_f32())
                des.append(de)
                if with_f:
                    dfs.append(df)
                n += 1
        es = _fold(tm.e, des)
        fs = _fold(tm.f, dfs) if with_f else None
        if glyphs:
            es_l, fs_l = es.tolist(), fs.tolist()
            for ch, k in glyphs:
                self.tm = Matrix(tm.a, tm.b, tm.c, tm.d, es_l[k], fs_l[k])
                out.append(self._char_line(ch, font))
        if err is not None:
            raise err
        new = tm.copy()
        new.e = float(es[-1])
        if with_f:
            new.f = float(fs[-1])
        self.tm = new

    def get_text(self, display_char: bool) -> str:
        self._advances: dict = {}
        out = []
        tm_prev_ty = self.tm.get_ty()
        while True:
            try:
                ins = self.next_instruction()
                if ins is None:
                    break
                kind = ins[0]
                if kind == "Tj":
                    font = self._font()
                    if self.tm.get_ty() != tm_prev_ty:
                        out.append("\n")
                    tm_prev_ty = self.tm.get_ty()
                    text = ins[1]
                    if display_char:
                        for c in text:
                            out.append(self._char_line(chr(c), font))
                    else:
                        out.append(text.decode("latin-1"))  # c as char, no CMap (content.rs:752-765)
                elif kind == "TJ":
                    font = self._font()
                    if self.tm.get_ty() != tm_prev_ty:
                        out.append("\n")
                    tm_prev_ty = self.tm.get_ty()
                    self._show_tj(ins[1], font, display_char, out)
                # all other instructions contribute no text (content.rs:947)
            except ParseError:
                # spec-mode Form XObject error containment: a form whose
                # content hits a parity panic-site (real-world forms are
                # often pure graphics exercising stricter operand quirks)
                # is ABANDONED — text collected so far is kept, all
                # nested form frames unwind, and the PAGE stream resumes
                # right after the invoking Do. Page-level errors still
                # raise (error rows), exactly as before.
                if self.tok_stack:
                    self.tok, self.resources = self.tok_stack[0]
                    self.tok_stack.clear()
                    continue
                raise
        s = "".join(out)
        return s.lstrip("\n ")
