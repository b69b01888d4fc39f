"""Text analysis primitives for the documents table.

Vectorized-per-batch implementations (compiled regexes, no Python loop
over *characters*) of: token counting, language-ID (stopword n-gram
heuristic), quality scoring, and document fingerprinting. Stateless
pure functions operating on lists of strings; actor stages hold the
compiled state.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

# matches DuckDB length(string_split_regex(text, '\s+')) semantics,
# including empty leading/trailing fields; RE2's \s is ASCII
# [\t\n\f\r ] (no \v, no Unicode spaces), unlike Python's
_WS_SPLIT = re.compile(r"[\t\n\f\r ]+")
_WORD = re.compile(r"[A-Za-zÀ-ɏ']+")
_PUNCT = re.compile(r"[^\w\s]", re.UNICODE)

STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for", "on", "with", "as", "was", "at"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "mit", "ein", "eine", "zu", "den", "von", "für", "auf"},
    "es": {"el", "la", "los", "las", "y", "de", "que", "en", "un", "una", "es", "por", "con", "para"},
    "fr": {"le", "la", "les", "et", "de", "que", "en", "un", "une", "est", "pour", "dans", "qui", "sur"},
}


def token_count(text: str) -> int:
    """Whitespace-regex token count (DuckDB string_split_regex parity)."""
    return len(_WS_SPLIT.split(text))


def greedy_pack(n_tokens, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """First-fit packing in input order: (pack_id, pack_pos) per item. A
    new pack starts when the item would take a non-empty pack past
    `budget`; an item larger than `budget` gets a pack of its own. The
    SQL twins replay the same rule as a recursive CTE."""
    pack_id, acc, pos = 0, 0, 0
    pids, poss = [], []
    for n in n_tokens:
        n = int(n)
        if acc > 0 and acc + n > budget:
            pack_id, acc, pos = pack_id + 1, 0, 0
        acc += n
        pids.append(pack_id)
        poss.append(pos)
        pos += 1
    return np.array(pids, dtype=np.int64), np.array(poss, dtype=np.int64)


# BPE-ish lexer classes: letter runs | digit runs | symbol runs. The
# alternatives have disjoint first-character classes, so Python re and
# DuckDB's RE2 agree regardless of alternation-order semantics
# (verified on the testdata + unicode samples).
BPE_PATTERN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+"
_BPE_RE = re.compile(BPE_PATTERN)


def bpe_token_count(text: str) -> int:
    """Sub-word-style token count: runs of letters / digits / symbols
    (whitespace dropped), the shape a BPE pre-tokenizer produces."""
    return len(_BPE_RE.findall(text))


def lang_id(text: str) -> str:
    """Deterministic n-gram/stopword language guess.

    CJK codepoint density decides "zh"; otherwise the stopword table
    with the most hits wins (ties break alphabetically); no hits -> "en".
    """
    if not text:
        return "und"
    sample = text[:2000]
    cjk = sum(1 for ch in sample if "一" <= ch <= "鿿")
    if cjk * 20 > len(sample):
        return "zh"
    words = _WORD.findall(sample.lower())
    if not words:
        return "und"
    best_lang, best_hits = "en", 0
    for lang in sorted(STOPWORDS):
        hits = sum(1 for w in words if w in STOPWORDS[lang])
        if hits > best_hits:
            best_lang, best_hits = lang, hits
    return best_lang


def quality_score(text: str) -> float:
    """Deterministic [0,1] quality heuristic: length band, punctuation
    ratio, stopword ratio, mean word length band."""
    n = len(text)
    if n == 0:
        return 0.0
    length_score = min(n, 2000) / 2000.0
    punct = len(_PUNCT.findall(text))
    punct_ratio = punct / n
    punct_score = 1.0 - min(punct_ratio * 4.0, 1.0)
    words = _WORD.findall(text.lower())
    if words:
        sw = sum(1 for w in words if w in STOPWORDS["en"])
        stop_score = min(4.0 * sw / len(words), 1.0)
        mean_len = sum(map(len, words)) / len(words)
        word_score = 1.0 if 3.0 <= mean_len <= 10.0 else 0.5
    else:
        stop_score = 0.0
        word_score = 0.0
    return round(0.35 * length_score + 0.25 * punct_score + 0.25 * stop_score + 0.15 * word_score, 6)


def md5_fingerprint(text: str) -> str:
    """Content fingerprint = md5 hex (DuckDB md5() parity)."""
    return hashlib.md5(text.encode("utf-8")).hexdigest()


_B = 1_000_000_007
_M = (1 << 61) - 1


def rolling_fingerprint(text: str, window: int = 16) -> int:
    """Winnowing-style document fingerprint: min of rolling polynomial
    hashes over `window`-char windows (deterministic, no SQL equivalent).

    Vectorized: instead of an O(bytes) Python loop, the hash of every
    window H_i = sum_k data[i+k] * B^(window-1-k) mod M is accumulated
    in `window` numpy passes. M = 2^61-1 is Mersenne, so the oversized
    product byte * B^j is computed as byte*(q*2^32 + r) with the *2^32
    done as a 61-bit rotation (2^61 === 1 mod M), keeping every
    intermediate inside uint64."""
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    n = len(data)
    if n == 0:
        return 0
    if n <= window:
        h = 0
        for b in data:
            h = (h * _B + int(b)) % _M
        return h
    assert window <= (1 << 20), "window too large for deferred-mod limbs"
    u = np.uint64
    M = u(_M)
    m = n - window + 1
    d64 = data.astype(np.uint64)  # one cast; per-k slices are views
    # Split pw = q*2^32 + r and accumulate byte*q (< 2^37 per term) and
    # byte*r (< 2^40 per term) WITHOUT intermediate reduction — for
    # window <= 2^20 the sums stay below 2^61 — then reduce once:
    # acc_hi*2^32 mod M is a 61-bit rotation (2^61 === 1 mod M).
    acc_hi = np.zeros(m, dtype=np.uint64)
    acc_lo = np.zeros(m, dtype=np.uint64)
    t = np.empty(m, dtype=np.uint64)
    for k in range(window):
        pw = pow(_B, window - 1 - k, _M)
        q, r = u(pw >> 32), u(pw & 0xFFFFFFFF)
        x = d64[k : k + m]
        np.multiply(x, q, out=t)
        acc_hi += t
        np.multiply(x, r, out=t)
        acc_lo += t
    rot = ((acc_hi & u((1 << 29) - 1)) << u(32)) + (acc_hi >> u(29))
    rot = (rot & M) + (rot >> u(61))  # < M + 2
    acc = rot + acc_lo  # < 2^62
    acc = (acc & M) + (acc >> u(61))
    while (acc >= M).any():
        acc = np.where(acc >= M, acc - M, acc)
    return int(acc.min())
