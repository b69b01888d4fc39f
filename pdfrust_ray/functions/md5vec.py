"""Vectorized single-block MD5 over numpy uint32 lanes.

Used for deterministic hash-bucket sampling (`orders_sample`), whose SQL
oracle is DuckDB's `md5(CAST(key AS VARCHAR))` — so the hash function is
fixed by contract and the only freedom is HOW it's computed. Keys are
mostly short strings: every message under 56 bytes fits one 64-byte MD5
block, so those are hashed in 64 vectorized rounds across the batch
instead of a per-row `hashlib` loop. Longer messages take `hashlib`.

RFC 1321 reference implementation semantics; verified against
`hashlib.md5` in tests/test_ops.py.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Per-round constants K[i] = floor(abs(sin(i+1)) * 2^32) and shifts.
_K = np.array(
    [int(abs(math.sin(i + 1)) * (1 << 32)) & 0xFFFFFFFF for i in range(64)],
    dtype=np.uint64,
)
_S = np.array(
    [7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4 + [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4,
    dtype=np.uint32,
)
# Message-word index per round.
_G = np.array(
    [i for i in range(16)]
    + [(5 * i + 1) % 16 for i in range(16)]
    + [(3 * i + 5) % 16 for i in range(16)]
    + [(7 * i) % 16 for i in range(16)],
    dtype=np.intp,
)


def _rotl(x: np.ndarray, s: int) -> np.ndarray:
    return (x << np.uint32(s)) | (x >> np.uint32(32 - s))


def _single_block_ab(messages: list[bytes], lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MD5 state words a, b (after the final add) for messages that fit
    one padded block (< 56 bytes), vectorized across the batch."""
    n = len(messages)
    block = np.zeros((n, 64), dtype=np.uint8)
    # Scatter message bytes row-wise; messages are tiny so one pass per
    # distinct length is cheap and stays vectorized across rows.
    for ln in np.unique(lens):
        idx = np.nonzero(lens == ln)[0]
        if ln:
            buf = np.frombuffer(b"".join(messages[i] for i in idx), dtype=np.uint8)
            block[idx, :ln] = buf.reshape(len(idx), ln)
        block[idx, ln] = 0x80
    # Bit length, little-endian u64 at offset 56.
    bitlen = lens.astype(np.uint64) << np.uint64(3)
    for b in range(8):
        block[:, 56 + b] = ((bitlen >> np.uint64(8 * b)) & np.uint64(0xFF)).astype(np.uint8)

    m = block.view("<u4").astype(np.uint32)  # [n, 16] message words

    a = np.full(n, 0x67452301, dtype=np.uint32)
    b = np.full(n, 0xEFCDAB89, dtype=np.uint32)
    c = np.full(n, 0x98BADCFE, dtype=np.uint32)
    d = np.full(n, 0x10325476, dtype=np.uint32)
    a0, b0 = a.copy(), b.copy()

    for i in range(64):
        if i < 16:
            f = (b & c) | (~b & d)
        elif i < 32:
            f = (d & b) | (~d & c)
        elif i < 48:
            f = b ^ c ^ d
        else:
            f = c ^ (b | ~d)
        # f + a + K[i] + M[g] can exceed 32 bits; numpy uint32 wraps, which
        # is exactly mod-2^32 MD5 arithmetic.
        tmp = (f + a + np.uint32(_K[i]) + m[:, _G[i]]).astype(np.uint32)
        a, d, c = d, c, b
        b = (b + _rotl(tmp, int(_S[i]))).astype(np.uint32)

    return (a + a0).astype(np.uint32), (b + b0).astype(np.uint32)


def _md5_prefix(messages: list[bytes], nbytes: int) -> np.ndarray:
    """First `nbytes` (4 or 8) digest bytes of md5(m) per message as a
    big-endian uint64. The digest is pack('<4I', a, b, c, d), so its
    bytes 0..7 big-endian are (bswap(a) << 32) | bswap(b). Messages of
    56 bytes or more take hashlib, one by one."""
    n = len(messages)
    out = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return out
    lens = np.fromiter((len(m) for m in messages), dtype=np.int64, count=n)
    short = lens < 56
    idx = np.nonzero(short)[0]
    if len(idx):
        msgs = messages if len(idx) == n else [messages[i] for i in idx]
        a, b = _single_block_ab(msgs, lens[idx])
        v = a.byteswap().astype(np.uint64)
        if nbytes == 8:
            v = (v << np.uint64(32)) | b.byteswap().astype(np.uint64)
        out[idx] = v
    for i in np.nonzero(~short)[0]:
        out[i] = int.from_bytes(hashlib.md5(messages[i]).digest()[:nbytes], "big")
    return out


def md5_prefix_u32(messages: list[bytes]) -> np.ndarray:
    """First 4 digest bytes of md5(m) for each message, interpreted as a
    big-endian uint32 — i.e. ``int(md5(m).hexdigest()[:8], 16)`` — as a
    uint64 array."""
    return _md5_prefix(messages, 4)


def md5_prefix_u64(messages: list[bytes]) -> np.ndarray:
    """First 8 digest bytes of md5(m) as a big-endian uint64 — i.e.
    ``int.from_bytes(md5(m).digest()[:8], 'big')``."""
    return _md5_prefix(messages, 8)
