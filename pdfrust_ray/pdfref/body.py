"""Document body: streams, fonts, resources, page tree, catalog.

Pins /root/reference/src/body.rs:
  - StreamDictionary: Length required (possibly via indirect ref with
    repair, body.rs:65-77); Filter only FlateDecode, any other name
    panics (body.rs:47-54); stream data decode applies the 10x-buffer
    flate quirk (body.rs:103-110 via filters.rs). In spec mode every
    stream decodes through the one filter chain of filters.py
    (spec_chain/spec_decode), as xref and object streams do.
  - Font: Type must be "Font"; Subtype/BaseFont required names;
    FirstChar/LastChar optional numerics; Widths inline array or
    indirect ref; ToUnicode must be an indirect ref to a stream whose
    data is lossy-UTF-8 decoded then CMap-parsed (body.rs:215-298).
  - Font::get_width (here `Font.width_f32`): range check against
    FirstChar only when FirstChar is an Integer; widths present but
    FirstChar absent panics (body.rs:186-203 unwrap); widths divided by
    1000. `estimate_space_width`/`average_width` (body.rs:163-183) are
    not ported: the space heuristic that would call them is commented
    out (content.rs:929-942).
  - FontMap: every value must be an indirect ref (body.rs:316-335).
  - Resources: Font via ref (unresolvable ref -> None, body.rs:355-362)
    or inline dict; other types panic (body.rs:351-369).
  - Page: Resources key REQUIRED (body.rs:547 `.unwrap()`), so the
    parent-walk inheritance (body.rs:493-504) is unreachable in
    practice — both behaviors kept; Contents optional ref, but
    extraction with no Contents panics (body.rs:529-535).
  - PageTreeNode: Kids required array of refs (body.rs:426-440);
    node-level Resources via ref only; extract joins kids with "\\n"
    (body.rs:413-419).
  - Catalog: Pages required ref (body.rs:609-614); empty pages panics
    at extract (body.rs:598-603).
  - extract_text round-trips decoded content bytes through lossy UTF-8
    (body.rs:522-527: String::from_utf8_lossy -> .as_bytes()).
"""

from __future__ import annotations

from .cmap import ToUnicodeCMap, parse_tounicode
from .errors import ParseError
from .filters import flate_decode, spec_chain, spec_decode
from .numbers import Number
from .objects import Name, Ref, StreamObj, object_at

class Rectangle:
    """4-number array -> rectangle (body.rs:21-40). Dead on the extract
    path in the reference (MediaBox/CropBox commented out) — provided
    for API completeness (P8)."""

    __slots__ = ("values",)

    def __init__(self, arr: list):
        if not isinstance(arr, list) or len(arr) != 4:
            n = len(arr) if isinstance(arr, list) else arr
            raise ParseError("Rectangle", f"PDF rectangle contains 4 values, found {n!r}")
        vals = []
        for o in arr:
            if not isinstance(o, Number):
                raise ParseError("Rectangle", f"PDF rectangle values are numbers, found {o!r}")
            vals.append(o)
        self.values = tuple(vals)


MODE_TEXT = "text"
MODE_CHARS = "chars"
MODE_FONT = "font"
MODE_RAW = "raw-content"


class Stream:
    """body.rs:56-116 StreamDictionary + content. `filter` is None or
    "FlateDecode" on the parity path, a filters.spec_chain in spec mode."""

    __slots__ = ("length", "filter", "data")

    def __init__(self, header: dict, data: bytes, ctx: "DocCtx"):
        length = header.get("Length")
        if length is None:
            raise ParseError("Stream", "stream dict has no Length")
        if isinstance(length, Number):
            self.length = length
        elif isinstance(length, Ref):
            obj = ctx.resolve(length.key())
            if obj is None:
                raise ParseError("Stream", "Length should be an indirect object")
            if not isinstance(obj, Number):
                raise ParseError("Stream", "Length should be a numeric")
            self.length = obj
        else:
            raise ParseError("Stream", "Length should be a numeric")
        # the parity path keeps the reference's FlateDecode-only filter
        # support (body.rs:65-77); spec mode takes any filter chain
        filt = header.get("Filter")
        if ctx.xref.spec_mode:
            self.filter = spec_chain(header)
        elif filt is None:
            self.filter = None
        elif not isinstance(filt, Name):
            raise ParseError("Stream", "Filter should be a name")
        elif filt != "FlateDecode":
            raise ParseError("Stream", f"Filter name {filt!r} is currently not supported")
        else:
            self.filter = "FlateDecode"
        self.data = data

    def get_data(self) -> bytes:
        if self.filter is None:
            return self.data
        if self.filter == "FlateDecode":
            # the reference's 10x-buffer pad/truncate quirk (filters.rs:4-14)
            return flate_decode(self.data)
        return spec_decode(self.data, self.filter)


class DocCtx:
    """Shared per-document context: file bytes + xref (+ caches).

    Replaces the reference's Rc<XRef> + &[u8] threading. `cmap_cache`
    lets a worker share parsed CMaps across payloads whose ToUnicode
    streams are byte-identical (engine-side addition; semantics
    unchanged).
    """

    __slots__ = ("data", "xref", "cmap_cache")

    def __init__(self, data: bytes, xref, cmap_cache=None):
        self.data = data
        self.xref = xref
        self.cmap_cache = cmap_cache

    def resolve(self, key: tuple[int, int]):
        """The object at xref key (num, gen), through the repair scan
        (`get_and_fix`); None when the key has no address."""
        addr = self.xref.get_and_fix(key, self.data)
        if addr is None:
            return None
        return object_at(self.data, addr, self.xref)


class Font:
    __slots__ = ("subtype", "name", "base_font", "first_char", "last_char", "widths", "to_unicode", "encoding", "_w1000")

    def __init__(self, d: dict, ctx: DocCtx):
        t = d.get("Type")
        if t is None:
            raise ParseError("Font", "Font dictionnary should have a 'Type' key")
        if not isinstance(t, Name):
            raise ParseError("Font", f"Font Type key should be a Name, found {t!r}")
        if t != "Font":
            raise ParseError("Font", f"Font dictionnary 'Type' key should be 'Font', found {t!r}")
        sub = d.get("Subtype")
        if not isinstance(sub, Name):
            raise ParseError("Font", "Subtype should be a name")
        self.subtype = sub
        name = d.get("Name")
        if name is None:
            self.name = None
        elif isinstance(name, Name):
            self.name = name
        else:
            raise ParseError("Font", f"Name should be a name, found {name!r}")
        bf = d.get("BaseFont")
        if not isinstance(bf, Name):
            raise ParseError("Font", "BaseFont should be a name")
        self.base_font = bf
        self.first_char = self._opt_num(d, "FirstChar")
        self.last_char = self._opt_num(d, "LastChar")
        widths = d.get("Widths")
        if widths is None:
            self.widths = None
        elif isinstance(widths, Ref):
            obj = ctx.resolve(widths.key())
            if obj is None:
                raise ParseError("Font", "Widths object not found in xref table")
            if not isinstance(obj, list):
                raise ParseError("Font", f"Widths should be an array, found {obj!r}")
            self.widths = self._num_array(obj)
        elif isinstance(widths, list):
            self.widths = self._num_array(widths)
        else:
            raise ParseError("Font", f"Widths should be an array of objects, found {widths!r}")
        tu = d.get("ToUnicode")
        if tu is None:
            self.to_unicode = None
        elif isinstance(tu, Ref):
            obj = ctx.resolve(tu.key())
            if obj is None:
                raise ParseError("Font", "ToUnicode stream object not found in xref table")
            if not isinstance(obj, StreamObj):
                raise ParseError("Font", f"ToUnicode should be a stream object, found {obj!r}")
            self.to_unicode = _cmap_from_stream(obj, ctx)
        else:
            raise ParseError("Font", "ToUnicode should be an indirect object")
        enc = d.get("Encoding")
        self.encoding = enc if isinstance(enc, Name) else None

    @staticmethod
    def _opt_num(d, key):
        v = d.get(key)
        if v is None:
            return None
        if isinstance(v, Number):
            return v
        raise ParseError("Font", f"{key} should be a numeric object, found {v!r}")

    @staticmethod
    def _num_array(arr):
        out = []
        for o in arr:
            if not isinstance(o, Number):
                raise ParseError("Font", f"Widths should contain only numbers, found {o!r}")
            out.append(o)
        return out

    def width_f32(self, c: int) -> float:
        """Font::get_width (body.rs:186-203) as an f32: w/1000
        f32-rounded; the Err cases give 0.0 (the caller substitutes
        Real(0.0), content.rs:818-821)."""
        cache = getattr(self, "_w1000", None)
        if cache is None:
            from .numbers import f32 as _f32

            if self.widths is None:
                cache = ()
            else:
                cache = tuple(_f32(w.as_f32() / 1000.0) for w in self.widths)
            self._w1000 = cache
        fc = self.first_char
        if fc is not None and fc.is_int and c < fc.val:
            return 0.0
        # the reference's order (body.rs:192-201): only widths==None is
        # the silent Err case; widths PRESENT (even empty) with FirstChar
        # missing hits the reference's unwrap panic (body.rs:195)
        if self.widths is None:
            return 0.0
        if fc is None:
            raise ParseError("Font", "widths present but FirstChar missing")
        c_offset = c - fc.as_usize()
        if 0 <= c_offset < len(cache):
            return cache[c_offset]
        return 0.0

    def rust_display(self) -> str:
        """Font Display (body.rs:206-213)."""
        from .numbers import rust_str_debug

        def opt(v, fmt):
            return f"Some({fmt(v)})" if v is not None else "None"

        def num_dbg(n):
            return n.rust_debug()

        widths = (
            "Some([" + ", ".join(w.rust_debug() for w in self.widths) + "])"
            if self.widths is not None
            else "None"
        )
        tu = _cmap_rust_debug(self.to_unicode) if self.to_unicode is not None else "None"
        return (
            f"Subtype: {rust_str_debug(self.subtype)}\n"
            f"Name: {opt(self.name, rust_str_debug)}\n"
            f"BaseFont: {rust_str_debug(self.base_font)}\n"
            f"FirstChar: {opt(self.first_char, num_dbg)}\n"
            f"LastChar: {opt(self.last_char, num_dbg)}\n"
            f"Widths: {widths}\n"
            f"ToUnicode: {tu}"
        )


def _cmap_rust_debug(cm: ToUnicodeCMap) -> str:
    """Debug-ish render of a CMap for --font mode.

    The reference prints Rust's HashMap Debug, whose entry order is
    RANDOM per process (body.rs:210) — the only nondeterministic output
    in pdfrust. We render entries sorted by key so the engine is
    deterministic; documented divergence.
    """
    from .numbers import rust_char_debug

    entries = ", ".join(f"{k}: {rust_char_debug(v)}" for k, v in sorted(cm.cmap.items()))
    return (
        "Some(ToUnicodeCMap { begin_code_space_range: "
        + str(list(cm.begin_code_space_range))
        + ", end_code_space_range: "
        + str(list(cm.end_code_space_range))
        + ", is_two_bytes: "
        + ("true" if cm.is_two_bytes else "false")
        + ", cmap: {"
        + entries
        + "} })"
    )


def _cmap_from_stream(obj: StreamObj, ctx: DocCtx) -> ToUnicodeCMap:
    stream = Stream(obj.header, obj.data, ctx)
    raw = stream.get_data()
    if ctx.cmap_cache is not None:
        cached = ctx.cmap_cache.get(raw)
        if cached is not None:
            return cached
    cm = parse_tounicode(raw.decode("utf-8", errors="replace"))
    if ctx.cmap_cache is not None:
        ctx.cmap_cache.put(raw, cm)
    return cm


class FontMap:
    __slots__ = ("fonts",)

    def __init__(self, d: dict, ctx: DocCtx):
        fonts = {}
        for key, value in d.items():
            if not isinstance(value, Ref):
                raise ParseError("Font", "Font should be an indirect object")
            obj = ctx.resolve(value.key())
            if obj is None:
                raise ParseError("Font", f"Font dictionnary object associated to {key!r} was not found")
            if not isinstance(obj, dict):
                raise ParseError("Font", f"Font object is not a dictionary, found {obj!r}")
            fonts[key] = Font(obj, ctx)
        self.fonts = fonts

    def rust_display(self) -> str:
        """FontMap Display (body.rs:304-314): values joined by "\\n",
        each followed by "\\n". Rust iterates HashMap values in random
        order; we sort by font key for determinism (documented)."""
        return "\n".join(
            f"{self.fonts[k].rust_display()}\n" for k in sorted(self.fonts)
        )


class Resources:
    __slots__ = ("font", "xobject", "_ctx")

    def __init__(self, d: dict | None, ctx: DocCtx | None):
        # the reference's Resources reads ONLY "Font" and ignores every
        # other key (body.rs:351-366) — the raw /XObject value is kept
        # here solely for the spec-mode Do recursion (resolved lazily,
        # zero cost on the parity path)
        self.xobject = d.get("XObject") if d is not None else None
        self._ctx = ctx
        if d is None:
            self.font = None
            return
        f = d.get("Font")
        if f is None:
            self.font = None
        elif isinstance(f, Ref):
            obj = ctx.resolve(f.key())
            if obj is None:
                self.font = None  # .map() on None (body.rs:356)
            elif not isinstance(obj, dict):
                raise ParseError("Resources", "Font should be a dictionary")
            else:
                self.font = FontMap(obj, ctx)
        elif isinstance(f, dict):
            self.font = FontMap(f, ctx)
        else:
            raise ParseError("Resources", f"Font should be an indirect object or a dictionary; found {f!r}")

    def resolve_form_xobject(self, name: str):
        """Spec-mode `Do` target: (decoded content bytes, Resources|None)
        for a /Subtype /Form XObject, else None (image/unknown XObjects
        stay ignored, like the reference ignores ALL of them,
        content.rs:615-620). The decoded stream round-trips through
        lossy UTF-8 exactly like page content (body.rs:522-527) so both
        paths tokenize identically."""
        xo, ctx = self.xobject, self._ctx
        if xo is None or ctx is None:
            return None
        if isinstance(xo, Ref):
            xo = ctx.resolve(xo.key())
        if not isinstance(xo, dict):
            return None
        entry = xo.get(name)
        if isinstance(entry, Ref):
            entry = ctx.resolve(entry.key())
        if not isinstance(entry, StreamObj):
            return None
        sub = entry.header.get("Subtype")
        if not (isinstance(sub, Name) and sub == "Form"):
            return None
        data = Stream(entry.header, entry.data, ctx).get_data()
        res_obj = entry.header.get("Resources")
        if isinstance(res_obj, Ref):
            res_obj = ctx.resolve(res_obj.key())
        res = Resources(res_obj, ctx) if isinstance(res_obj, dict) else None
        return data.decode("utf-8", errors="replace").encode("utf-8"), res


class Page:
    __slots__ = ("parent", "resources", "contents")

    def __init__(self, d: dict, ctx: DocCtx, parent=None):
        self.parent = parent
        res = d.get("Resources")
        if res is None:
            # reference .unwrap() panic (body.rs:547)
            raise ParseError("Page", "Page dictionary has no Resources key")
        if isinstance(res, dict):
            self.resources = Resources(res, ctx)
        elif isinstance(res, Ref):
            obj = ctx.resolve(res.key())
            if obj is None:
                raise ParseError("Page", "Resource dictionnary address not found in xref keys")
            if not isinstance(obj, dict):
                raise ParseError("Page", "Resources should be a dictionary")
            self.resources = Resources(obj, ctx)
        else:
            raise ParseError("Page", f"Resources should be an dictionary object {res!r}")
        contents = d.get("Contents")
        if contents is None:
            self.contents = None
        elif isinstance(contents, Ref):
            obj = ctx.resolve(contents.key())
            if obj is None:
                raise ParseError("Page", "Contents address not found in xref keys")
            if not isinstance(obj, StreamObj):
                raise ParseError("Page", "Contents should be a stream")
            self.contents = Stream(obj.header, obj.data, ctx)
        else:
            raise ParseError("Page", "Contents should be an indirect object")

    def get_resources(self) -> Resources:
        """body.rs:493-504 (parent walk kept though unreachable)."""
        if self.resources is not None:
            return self.resources
        node = self.parent
        while node is not None:
            if node.resources is not None:
                return node.resources
            node = node.parent
        raise ParseError("Page", "Resources not found for current Page and in parent tree")

    def extract(self, mode: str) -> str:
        if mode == MODE_TEXT:
            return self._extract_text(False)
        if mode == MODE_CHARS:
            return self._extract_text(True)
        if mode == MODE_RAW:
            return self._extract_stream()
        if mode == MODE_FONT:
            return self._extract_font()
        raise ParseError("Mode", f"unknown extract mode {mode!r}")

    def _extract_font(self) -> str:
        fm = self.get_resources().font
        if fm is None:
            raise ParseError("Page", "Missing font in current page resources")
        return fm.rust_display()

    def _extract_text(self, display_char: bool) -> str:
        from .content import TextContent

        content_str = self._extract_stream()
        # lossy round-trip (body.rs:522-527)
        res = self.get_resources()
        # spec mode additionally recurses into Form XObjects on `Do`
        # (the reference parses-and-ignores Do, content.rs:615-620)
        spec = res._ctx is not None and res._ctx.xref.spec_mode
        tc = TextContent(content_str.encode("utf-8"), res, enable_xobjects=spec)
        return tc.get_text(display_char)

    def _extract_stream(self) -> str:
        if self.contents is None:
            raise ParseError("Page", "Contents should not be empty")
        return self.contents.get_data().decode("utf-8", errors="replace")


class PageTreeNode:
    __slots__ = ("parent", "kids", "resources")

    def __init__(self, d: dict, ctx: DocCtx, parent=None, ancestors: frozenset = frozenset()):
        """`ancestors`: the offsets of the Pages nodes above this one."""
        self.parent = parent
        res = d.get("Resources")
        if res is None:
            self.resources = None
        elif isinstance(res, Ref):
            obj = ctx.resolve(res.key())
            if obj is None:
                raise ParseError("PageTree", "Kid not found in xref table")
            if not isinstance(obj, dict):
                raise ParseError("PageTree", "Resources should be a dictionary")
            self.resources = Resources(obj, ctx)
        else:
            raise ParseError("PageTree", "Resources should be an indirect object")
        kids = d.get("Kids")
        if kids is None:
            raise ParseError("PageTree", "Pages node has no Kids")
        if not isinstance(kids, list):
            raise ParseError("PageTree", "Kids should be an array")
        self.kids = []
        for kid in kids:
            if not isinstance(kid, Ref):
                raise ParseError("PageTree", "Kid should be an indirect object")
            addr = ctx.xref.get_and_fix(kid.key(), ctx.data)
            if addr is None:
                raise ParseError("PageTree", "Kid not found in xref table")
            obj = object_at(ctx.data, addr, ctx.xref)
            if not isinstance(obj, dict):
                raise ParseError("PageTree", "PageTreeKids should be a dictionary")
            t = obj.get("Type")
            if t is None:
                raise ParseError("PageTree", f"Type was not found in dictionnary")
            if not isinstance(t, Name):
                raise ParseError("PageTree", f"Type should be a name, found {t!r}")
            if t == "Pages":
                # only the nodes on the current path: a node reached twice
                # through a DAG is extracted twice, as by the reference
                if addr in ancestors:
                    raise ParseError("PageTree", "Pages node is its own ancestor")
                self.kids.append(PageTreeNode(obj, ctx, parent=self, ancestors=ancestors | {addr}))
            elif t == "Page":
                self.kids.append(Page(obj, ctx, parent=self))
            else:
                raise ParseError("PageTree", "Unexpected dictionnary type")

    def extract(self, mode: str) -> str:
        return "\n".join(kid.extract(mode) for kid in self.kids)


class Catalog:
    __slots__ = ("pages",)

    def __init__(self, d: dict, ctx: DocCtx):
        pages = d.get("Pages")
        if pages is None:
            raise ParseError("Catalog", "Catalog has no Pages key")
        if not isinstance(pages, Ref):
            raise ParseError("Catalog", "Pages should be an indirect object")
        obj = ctx.resolve(pages.key())
        if obj is None:
            self.pages = None
        elif not isinstance(obj, dict):
            raise ParseError("Catalog", "Pages root should be a dictionary")
        else:
            self.pages = PageTreeNode(obj, ctx)

    def extract(self, mode: str) -> str:
        if self.pages is None:
            raise ParseError("Catalog", "Pages should not be empty")
        return self.pages.extract(mode)

    def n_pages(self) -> int:
        def count(node) -> int:
            if isinstance(node, Page):
                return 1
            return sum(count(k) for k in node.kids)

        return count(self.pages) if self.pages is not None else 0
