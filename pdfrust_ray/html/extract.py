"""DOM-heuristic HTML main-content extraction (boilerplate stripping).

The reference engine (pdfrust) has no HTML path; this extractor is the
engine's own deterministic oracle for the HTML payload kind, per the
north star: "DOM-heuristic HTML boilerplate stripping (tag/text-density
scoring)". The behavior spec, frozen by golden fixtures:

  1. Parse with the stdlib html.parser (tolerant of malformed markup:
     unclosed tags are implicitly closed, stray end tags ignored).
  2. Drop <script>/<style>/<noscript>/<template> subtrees, comments,
     and the pure-boilerplate landmarks <nav>/<header>/<footer>/<aside>.
  3. Score candidate containers (article, main, section, div, body,
     td, li, table) by text density: own text length minus 1.5x the
     text length inside <a> tags, plus a +50 bonus per direct <p>
     child. Highest score wins; ties break to the earliest node in
     document order; nested winners resolve to the outermost of equal
     score via strict '>' comparison on a pre-order walk.
  4. Emit the winner's text: inline elements concatenate, block
     elements separated by single newlines, whitespace runs collapsed,
     entities decoded (html.parser convert_charrefs).

Deterministic: no randomness, no ML, pure function of the input bytes.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser

_DROP = frozenset({"script", "style", "noscript", "template", "nav", "header", "footer", "aside"})
_VOID = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source", "track", "wbr"}
)
_BLOCK = frozenset(
    {
        "address", "article", "blockquote", "body", "caption", "div", "dd", "dl", "dt",
        "fieldset", "figcaption", "figure", "form", "h1", "h2", "h3", "h4", "h5", "h6",
        "html", "li", "main", "ol", "p", "pre", "section", "table", "tbody", "td",
        "tfoot", "th", "thead", "tr", "ul",
    }
)
_CANDIDATE = frozenset({"article", "main", "section", "div", "body", "td", "li", "table"})

_WS_RE = re.compile(r"\s+")


class _Node:
    __slots__ = ("tag", "children", "parent")

    def __init__(self, tag: str, parent=None):
        self.tag = tag
        self.children: list = []  # _Node | str
        self.parent = parent


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = _Node("#root")
        self.cur = self.root
        self._drop_depth = 0

    def handle_starttag(self, tag, attrs):
        if self._drop_depth:
            if tag in _DROP:
                self._drop_depth += 1
            return
        if tag in _DROP:
            self._drop_depth = 1
            return
        if tag in _VOID:
            self.cur.children.append(_Node(tag, self.cur))
            return
        node = _Node(tag, self.cur)
        self.cur.children.append(node)
        self.cur = node

    def handle_startendtag(self, tag, attrs):
        if self._drop_depth:
            return
        if tag not in _DROP:
            self.cur.children.append(_Node(tag, self.cur))

    def handle_endtag(self, tag):
        if self._drop_depth:
            if tag in _DROP:
                self._drop_depth -= 1
            return
        if tag in _VOID:
            return
        # malformed recovery: close up to the nearest matching open tag,
        # ignore stray end tags entirely
        node = self.cur
        while node is not self.root and node.tag != tag:
            node = node.parent
        if node is not self.root:
            self.cur = node.parent

    def handle_data(self, data):
        if self._drop_depth:
            return
        if data:
            self.cur.children.append(data)


def _text_stats(node: _Node, in_link: bool = False) -> tuple[int, int]:
    """(total_text_len, link_text_len) of collapsed text under node."""
    total = 0
    link = 0
    for ch in node.children:
        if isinstance(ch, str):
            t = len(_WS_RE.sub(" ", ch).strip())
            total += t
            if in_link:
                link += t
        else:
            t2, l2 = _text_stats(ch, in_link or ch.tag == "a")
            total += t2
            link += l2
    return total, link


def _render(node: _Node, out: list[str]):
    for ch in node.children:
        if isinstance(ch, str):
            out.append(_WS_RE.sub(" ", ch))
        elif ch.tag == "br":
            out.append("\n")
        else:
            if ch.tag in _BLOCK:
                out.append("\n")
            _render(ch, out)
            if ch.tag in _BLOCK:
                out.append("\n")


def _node_text(node: _Node) -> str:
    parts: list[str] = []
    _render(node, parts)
    # collapse: strip each line, drop empty lines, single newline separator
    text = "".join(parts)
    lines = [_WS_RE.sub(" ", ln).strip() for ln in text.split("\n")]
    return "\n".join(ln for ln in lines if ln)


def _walk_preorder(node: _Node):
    yield node
    for ch in node.children:
        if not isinstance(ch, str):
            yield from _walk_preorder(ch)


def _main_text(html_text: str, score) -> str:
    """Parse, score each candidate container with
    score(text_len, link_text_len, direct <p> children) and render the
    best one: strict '>' keeps the earliest/outermost winner, and a
    document with no candidate container renders whole."""
    tb = _TreeBuilder()
    tb.feed(html_text)
    tb.close()
    best = tb.root
    best_score = float("-inf")
    for node in _walk_preorder(tb.root):
        if node.tag not in _CANDIDATE:
            continue
        total, link = _text_stats(node)
        n_p = sum(1 for ch in node.children if not isinstance(ch, str) and ch.tag == "p")
        s = score(total, link, n_p)
        if s > best_score:
            best_score = s
            best = node
    return _node_text(best)


def _absolute_score(total: int, link: int, n_p: int) -> float:
    return total - 1.5 * link + 50 * n_p


def _link_density_score(total: int, link: int, n_p: int) -> float:
    density = (link / total) if total else 1.0
    return total * (1.0 - density) + 30 * n_p


def extract_main_text(html_text: str) -> str:
    """Return the main-content plain text of an HTML document:
    candidates score text_len - 1.5 * link_text_len + 50 per direct
    <p> child."""
    return _main_text(html_text, _absolute_score)


def extract_main_text_ld(html_text: str) -> str:
    """Readability-style link-density variant of the main-content
    extractor: candidates score text_len * (1 - link_density) + 30 per
    direct <p> child, where link_density = link_text / text (0 when the
    candidate has no text). Compared to extract_main_text's absolute
    `total - 1.5*link` rule, the RATIO penalty punishes link farms with
    lots of surrounding text less and short nav strips more — the
    Readability/Arc90 heuristic. Same parse, drop set, render, and
    strict '>' earliest-winner tie rule. Deterministic: the score is a
    pure float expression of exact integer counts."""
    return _main_text(html_text, _link_density_score)
