"""MinHash / SimHash / shingle primitives (numpy-vectorized per doc).

Used by the dedup stages: shingle -> minhash signature -> LSH bands,
and 64-bit simhash. All hashing is seeded/deterministic (blake2b with
fixed per-permutation keys) — no Python `hash()` (salted per process).
"""

from __future__ import annotations

import hashlib

import numpy as np

_MERSENNE = (1 << 61) - 1


def char_shingles(text: str, k: int = 5) -> set[bytes]:
    data = text.lower().encode("utf-8")
    if len(data) <= k:
        return {data} if data else set()
    return {data[i : i + k] for i in range(len(data) - k + 1)}


def _shingle_hashes(shingles: set[bytes]) -> np.ndarray:
    """Stable 64-bit hashes of the shingle set."""
    out = np.empty(len(shingles), dtype=np.uint64)
    for i, s in enumerate(sorted(shingles)):
        out[i] = int.from_bytes(hashlib.blake2b(s, digest_size=8).digest(), "little")
    return out


def char_shingles_u64(text: str, k: int = 5) -> np.ndarray:
    """Distinct k-char shingles as uint64 values — BIJECTIVE with the
    byte-string shingles for k <= 7 ((byte_length << 56) | big-endian
    value), so set sizes and Jaccard ratios are identical to
    char_shingles(), with zero per-shingle Python: the window scan is
    one sliding_window_view + one matmul, dedup is np.unique.
    """
    if k > 7:
        raise ValueError("u64 shingle encoding requires k <= 7")
    data = text.lower().encode("utf-8")
    if not data:
        return np.empty(0, dtype=np.uint64)
    buf = np.frombuffer(data, dtype=np.uint8)
    if len(data) <= k:
        val = int.from_bytes(data, "big") | (len(data) << 56)
        return np.asarray([val], dtype=np.uint64)
    win = np.lib.stride_tricks.sliding_window_view(buf, k).astype(np.uint64)
    weights = (np.uint64(1) << (np.arange(k - 1, -1, -1, dtype=np.uint64) * np.uint64(8)))
    vals = win @ weights | np.uint64(k << 56)
    return np.unique(vals)


def jaccard_u64(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard over distinct-uint64 shingle arrays (same values
    as jaccard() on the byte-string sets — the encoding is bijective)."""
    if not len(a) and not len(b):
        return 1.0
    if not len(a) or not len(b):
        return 0.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    return inter / (len(a) + len(b) - inter)


class MinHasher:
    """n_perm universal-hash permutations h_i(x) = (a_i x + b_i) mod p."""

    def __init__(self, n_perm: int = 64, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, _MERSENNE, size=n_perm, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=n_perm, dtype=np.uint64)
        self.n_perm = n_perm

    def signature(self, shingles: set[bytes]) -> np.ndarray:
        if not shingles:
            return np.zeros(self.n_perm, dtype=np.uint64)
        return self.signature_u64(_shingle_hashes(shingles))

    def signature_u64(self, x: np.ndarray) -> np.ndarray:
        """Signature straight from uint64 shingle values. (a*x + b)
        mod p is a pairwise-uniform universal family, so raw shingle
        encodings need no pre-hash."""
        if not len(x):
            return np.zeros(self.n_perm, dtype=np.uint64)
        # (a*x + b) mod p, batched: [n_perm, n_shingles]
        ax = (self.a[:, None] * x[None, :] + self.b[:, None]) % np.uint64(_MERSENNE)
        return ax.min(axis=1)

    def bands(self, sig: np.ndarray, n_bands: int) -> list[bytes]:
        rows = self.n_perm // n_bands
        return [sig[i * rows : (i + 1) * rows].tobytes() for i in range(n_bands)]


def jaccard(a: set[bytes], b: set[bytes]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def simhash64(text: str) -> int:
    """64-bit SimHash over word features (weight = term frequency).

    The word hash is the first 8 bytes of md5, little-endian — chosen
    (over blake2b) so the signature is reproducible in ANSI SQL
    (DuckDB md5() + substr + hex cast), which makes the engine's
    hamming-<=k pair set exactly oracle-checkable
    (stages/dedup.py::simhash_dedup_sql). Bit i of the output is the
    sign of the tf-weighted vote over feature bit i of each word's
    hash (h >> i) & 1."""
    words = text.lower().split()
    if not words:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    from collections import Counter

    for w, cnt in Counter(words).items():
        h = int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "little")
        bits = (np.uint64(h) >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        acc += np.where(bits > 0, cnt, -cnt)
    out = 0
    for i, v in enumerate(acc):
        if v > 0:
            out |= 1 << i
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")
