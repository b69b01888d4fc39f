"""Pure-Python/numpy FLAC codec (decode: full subset; encode: the
subset the media fixtures need).

Implements the published FLAC format (xiph.org/flac/format.html; now
RFC 9639): STREAMINFO metadata, frame headers with UTF-8-coded frame
numbers and CRC-8, subframes CONSTANT / VERBATIM / FIXED(0-4) /
LPC(1-32), partitioned Rice residuals (4- and 5-bit parameters with
raw-bits escape), wasted-bits, stereo decorrelation (left/side,
right/side, mid/side), frame CRC-16.

Decode is the integration target for the multimodal decode stage
(`stages/multimodal.py`): FLAC payloads are sniffed by the b"fLaC"
magic next to the RIFF/WAV family. Fixed-predictor reconstruction is
vectorized as repeated prefix sums (order-k inverse differencing);
LPC is the one inherently sequential loop (IIR recurrence).

The encoder (mono, 16-bit, fixed predictors 0-2, single Rice
partition) exists so fixtures are generated by our own code — decoder
correctness is pinned INDEPENDENTLY by hand-built bit-level vectors
in tests/test_flac.py (unary/Rice maths, fixed-order recurrences,
CRC vectors), not just round-trips.
"""

from __future__ import annotations

import numpy as np

_CRC8_TABLE = None
_CRC16_TABLE = None


def _crc8_table():
    global _CRC8_TABLE
    if _CRC8_TABLE is None:
        t = []
        for b in range(256):
            c = b
            for _ in range(8):
                c = ((c << 1) ^ 0x07) & 0xFF if c & 0x80 else (c << 1) & 0xFF
            t.append(c)
        _CRC8_TABLE = t
    return _CRC8_TABLE


def _crc16_table():
    global _CRC16_TABLE
    if _CRC16_TABLE is None:
        t = []
        for b in range(256):
            c = b << 8
            for _ in range(8):
                c = ((c << 1) ^ 0x8005) & 0xFFFF if c & 0x8000 else (c << 1) & 0xFFFF
            t.append(c)
        _CRC16_TABLE = t
    return _CRC16_TABLE


def crc8(data: bytes) -> int:
    t = _crc8_table()
    c = 0
    for b in data:
        c = t[c ^ b]
    return c


def crc16(data: bytes) -> int:
    t = _crc16_table()
    c = 0
    for b in data:
        c = (t[((c >> 8) ^ b) & 0xFF] ^ (c << 8)) & 0xFFFF
    return c


class FlacError(ValueError):
    pass


class _BitReader:
    """MSB-first bit reader with byte-position tracking for CRCs."""

    def __init__(self, data: bytes, byte_pos: int = 0):
        self.data = data
        self.pos = byte_pos * 8

    @property
    def byte_pos(self) -> int:
        return self.pos // 8

    def align(self) -> None:
        self.pos = (self.pos + 7) & ~7

    def read(self, n: int) -> int:
        p, d = self.pos, self.data
        end = p + n
        if end > len(d) * 8:
            raise FlacError("truncated stream")
        first, last = p // 8, (end + 7) // 8
        chunk = int.from_bytes(d[first:last], "big")
        chunk >>= (last * 8) - end
        self.pos = end
        return chunk & ((1 << n) - 1)

    def read_signed(self, n: int) -> int:
        v = self.read(n)
        return v - (1 << n) if v & (1 << (n - 1)) else v

    def read_unary(self) -> int:
        """Count of 0-bits before the next 1-bit (FLAC unary)."""
        n = 0
        while True:
            if self.read(1):
                return n
            n += 1

    def read_utf8_number(self) -> int:
        """FLAC's UTF-8-style extended number (up to 7 bytes / 36 bits)."""
        b0 = self.read(8)
        if b0 < 0x80:
            return b0
        n_extra = 0
        mask = 0x40
        while b0 & mask:
            n_extra += 1
            mask >>= 1
        if n_extra < 1 or n_extra > 6:
            raise FlacError("bad UTF-8 frame number")
        v = b0 & (mask - 1)
        for _ in range(n_extra):
            b = self.read(8)
            if (b & 0xC0) != 0x80:
                raise FlacError("bad UTF-8 continuation")
            v = (v << 6) | (b & 0x3F)
        return v


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, n: int) -> None:
        self.acc = (self.acc << n) | (value & ((1 << n) - 1))
        self.nbits += n
        while self.nbits >= 8:
            self.nbits -= 8
            self.buf.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def write_unary(self, n: int) -> None:
        while n >= 32:
            self.write(0, 32)
            n -= 32
        self.write(1, n + 1)

    def align(self) -> None:
        if self.nbits:
            self.write(0, 8 - self.nbits)

    def bytes(self) -> bytes:
        assert self.nbits == 0
        return bytes(self.buf)


# block size code 0b0111 = explicit 16-bit (blocksize - 1)
_BLOCKSIZE_FIXED = {1: 192, **{n: 576 << (n - 2) for n in range(2, 6)},
                    **{n: 256 << (n - 8) for n in range(8, 16)}}
_SAMPLE_RATES = {1: 88200, 2: 176400, 3: 192000, 4: 8000, 5: 16000, 6: 22050,
                 7: 24000, 8: 32000, 9: 44100, 10: 48000, 11: 96000}
_SAMPLE_SIZES = {1: 8, 2: 12, 4: 16, 5: 20, 6: 24}

# fixed-predictor coefficients (order 1-4) for the encoder's residual
_FIXED_COEFS = {
    0: [],
    1: [1],
    2: [2, -1],
    3: [3, -3, 1],
    4: [4, -6, 4, -1],
}


def _zigzag_decode(v: int) -> int:
    return (v >> 1) ^ -(v & 1)


def _zigzag_encode(v: int) -> int:
    return (v << 1) ^ (v >> 63) if v < 0 else (v << 1)


def _read_rice_partitioned(br: _BitReader, blocksize: int, order: int) -> list[int]:
    """RESIDUAL: 2-bit method, 4-bit partition order, 2^po partitions of
    Rice-coded zigzag residuals (escape = raw n-bit signed)."""
    method = br.read(2)
    if method not in (0, 1):
        raise FlacError(f"reserved residual method {method}")
    plen = 4 if method == 0 else 5
    escape = (1 << plen) - 1
    po = br.read(4)
    n_part = 1 << po
    if blocksize % n_part:
        raise FlacError("blocksize not divisible by partitions")
    out: list[int] = []
    for p in range(n_part):
        n = blocksize // n_part - (order if p == 0 else 0)
        if n < 0:
            raise FlacError("predictor order exceeds first partition")
        param = br.read(plen)
        if param == escape:
            nbits = br.read(5)
            out.extend(br.read_signed(nbits) if nbits else 0 for _ in range(n))
        else:
            for _ in range(n):
                q = br.read_unary()
                r = br.read(param) if param else 0
                out.append(_zigzag_decode((q << param) | r))
    return out


def _fixed_restore(warm: list[int], resid: list[int], order: int) -> np.ndarray:
    """Invert order-k differencing with k vectorized prefix sums."""
    seqs = [np.asarray(warm, dtype=np.int64)]
    for _ in range(order):
        seqs.append(np.diff(seqs[-1]))
    cur = np.asarray(resid, dtype=np.int64)
    for j in range(order, 0, -1):
        init = int(seqs[j - 1][-1]) if len(seqs[j - 1]) else 0
        cur = init + np.cumsum(cur)
    return np.concatenate([seqs[0], cur]) if order else cur


def _lpc_restore(warm: list[int], resid: list[int], coefs: list[int], shift: int) -> np.ndarray:
    out = list(warm)
    order = len(coefs)
    for r in resid:
        pred = 0
        for j, c in enumerate(coefs):
            pred += c * out[-1 - j]
        out.append(r + (pred >> shift))
    return np.asarray(out, dtype=np.int64)


def _read_subframe(br: _BitReader, blocksize: int, bps: int) -> np.ndarray:
    if br.read(1):
        raise FlacError("subframe padding bit set")
    sf_type = br.read(6)
    wasted = 0
    if br.read(1):
        wasted = br.read_unary() + 1
    eff = bps - wasted
    if sf_type == 0:  # CONSTANT
        v = br.read_signed(eff)
        samples = np.full(blocksize, v, dtype=np.int64)
    elif sf_type == 1:  # VERBATIM
        samples = np.asarray([br.read_signed(eff) for _ in range(blocksize)], np.int64)
    elif 8 <= sf_type <= 12:  # FIXED order 0-4
        order = sf_type - 8
        warm = [br.read_signed(eff) for _ in range(order)]
        resid = _read_rice_partitioned(br, blocksize, order)
        samples = _fixed_restore(warm, resid, order)
    elif sf_type >= 32:  # LPC order 1-32
        order = sf_type - 31
        warm = [br.read_signed(eff) for _ in range(order)]
        prec = br.read(4) + 1
        if prec == 16:
            raise FlacError("invalid LPC precision")
        shift = br.read_signed(5)
        if shift < 0:
            raise FlacError("negative LPC shift")
        coefs = [br.read_signed(prec) for _ in range(order)]
        resid = _read_rice_partitioned(br, blocksize, order)
        samples = _lpc_restore(warm, resid, coefs, shift)
    else:
        raise FlacError(f"reserved subframe type {sf_type}")
    return samples << wasted if wasted else samples


def decode_flac(data: bytes) -> tuple[np.ndarray, int]:
    """FLAC bytes -> (int samples [n] mono or [n, channels], rate).
    Verifies frame header CRC-8 and frame CRC-16."""
    if data[:4] != b"fLaC":
        raise FlacError("missing fLaC marker")
    pos = 4
    info = None
    while True:
        hdr = data[pos]
        btype, last = hdr & 0x7F, hdr & 0x80
        length = int.from_bytes(data[pos + 1 : pos + 4], "big")
        body = data[pos + 4 : pos + 4 + length]
        if btype == 0:  # STREAMINFO
            br = _BitReader(body)
            br.read(16)  # min blocksize
            br.read(16)  # max blocksize
            br.read(24), br.read(24)  # min/max frame size
            rate = br.read(20)
            channels = br.read(3) + 1
            bps = br.read(5) + 1
            total = br.read(36)
            info = (rate, channels, bps, total)
        pos += 4 + length
        if last:
            break
    if info is None:
        raise FlacError("missing STREAMINFO")
    rate, channels, bps, total = info

    chans: list[list[np.ndarray]] = [[] for _ in range(channels)]
    n_read = 0
    while pos < len(data) and (total == 0 or n_read < total):
        frame_start = pos
        br = _BitReader(data, pos)
        sync = br.read(14)
        if sync != 0x3FFE:
            raise FlacError("bad frame sync")
        br.read(1)  # reserved
        br.read(1)  # blocking strategy
        bs_code = br.read(4)
        sr_code = br.read(4)
        ch_code = br.read(4)
        ss_code = br.read(3)
        br.read(1)  # reserved
        br.read_utf8_number()
        if bs_code == 6:
            blocksize = br.read(8) + 1
        elif bs_code == 7:
            blocksize = br.read(16) + 1
        elif bs_code in _BLOCKSIZE_FIXED:
            blocksize = _BLOCKSIZE_FIXED[bs_code]
        else:
            raise FlacError(f"reserved blocksize code {bs_code}")
        if sr_code == 12:
            br.read(8)
        elif sr_code in (13, 14):
            br.read(16)
        elif sr_code == 15:
            raise FlacError("invalid sample rate code")
        fbps = _SAMPLE_SIZES.get(ss_code, bps) if ss_code else bps
        hdr_crc = br.read(8)
        if crc8(data[frame_start : br.byte_pos - 1]) != hdr_crc:
            raise FlacError("frame header CRC-8 mismatch")

        if ch_code < 8:
            n_ch = ch_code + 1
            if n_ch != channels:
                raise FlacError("channel count mismatch")
            sub = [_read_subframe(br, blocksize, fbps) for _ in range(n_ch)]
        elif ch_code == 8:  # left/side
            left = _read_subframe(br, blocksize, fbps)
            side = _read_subframe(br, blocksize, fbps + 1)
            sub = [left, left - side]
        elif ch_code == 9:  # right/side
            side = _read_subframe(br, blocksize, fbps + 1)
            right = _read_subframe(br, blocksize, fbps)
            sub = [right + side, right]
        elif ch_code == 10:  # mid/side
            mid = _read_subframe(br, blocksize, fbps)
            side = _read_subframe(br, blocksize, fbps + 1)
            m2 = (mid << 1) | (side & 1)
            sub = [(m2 + side) >> 1, (m2 - side) >> 1]
        else:
            raise FlacError(f"reserved channel assignment {ch_code}")
        br.align()
        fcrc = br.read(16)
        if crc16(data[frame_start : br.byte_pos - 2]) != fcrc:
            raise FlacError("frame CRC-16 mismatch")
        pos = br.byte_pos
        for c in range(channels):
            chans[c].append(sub[c])
        n_read += blocksize

    full = [np.concatenate(c) if c else np.zeros(0, np.int64) for c in chans]
    if total:
        full = [c[:total] for c in full]
    out = full[0] if channels == 1 else np.stack(full, axis=1)
    return out, rate


def encode_flac(samples: np.ndarray, rate: int = 16000, blocksize: int = 4096) -> bytes:
    """Subset encoder: mono int16, fixed predictors (best of order 0-2),
    one Rice partition per subframe, explicit 16-bit blocksize code."""
    s = np.asarray(samples, dtype=np.int64)
    assert s.ndim == 1
    bps = 16

    out = bytearray(b"fLaC")
    si = _BitWriter()
    si.write(blocksize, 16)
    si.write(blocksize, 16)
    si.write(0, 24)
    si.write(0, 24)
    si.write(rate, 20)
    si.write(0, 3)  # channels - 1
    si.write(bps - 1, 5)
    si.write(len(s), 36)
    body = si.bytes() + b"\x00" * 16  # md5 unknown
    out.append(0x80)  # last block, STREAMINFO
    out += len(body).to_bytes(3, "big")
    out += body

    for fi, start in enumerate(range(0, len(s), blocksize)):
        block = s[start : start + blocksize]
        n = len(block)
        bw = _BitWriter()
        bw.write(0x3FFE, 14)
        bw.write(0, 1)
        bw.write(0, 1)  # fixed blocksize strategy
        bw.write(7, 4)  # 16-bit blocksize-1 follows
        bw.write(0, 4)  # rate from STREAMINFO
        bw.write(0, 4)  # 1 channel
        bw.write(0b100, 3)  # 16 bps
        bw.write(0, 1)
        # UTF-8 frame number (fixture frame counts stay below 2^31)
        if fi < 0x80:
            bw.write(fi, 8)
        elif fi < 0x800:
            bw.write(0xC0 | (fi >> 6), 8)
            bw.write(0x80 | (fi & 0x3F), 8)
        else:
            bw.write(0xE0 | (fi >> 12), 8)
            bw.write(0x80 | ((fi >> 6) & 0x3F), 8)
            bw.write(0x80 | (fi & 0x3F), 8)
        bw.write(n - 1, 16)
        hdr = bytes(bw.buf)
        assert bw.nbits == 0
        bw.write(crc8(hdr), 8)

        # choose the fixed order with the smallest residual magnitude
        best_order, best_resid, best_cost = 0, block, None
        for order in range(0, 3):
            if n <= order:
                continue
            resid = block.copy()
            for _ in range(order):
                resid = np.diff(resid)
            cost = int(np.abs(resid).sum())
            if best_cost is None or cost < best_cost:
                best_order, best_cost = order, cost
                best_resid = resid
        order = best_order
        warm, resid = block[:order], best_resid

        bw.write(0, 1)
        bw.write(8 + order, 6)
        bw.write(0, 1)  # no wasted bits
        for w in warm:
            bw.write(int(w) & 0xFFFF, 16)
        # single-partition Rice: parameter from the mean magnitude
        zz = np.asarray([_zigzag_encode(int(r)) for r in resid], dtype=np.uint64)
        mean = float(zz.mean()) if len(zz) else 0.0
        param = 0
        while param < 14 and (1 << (param + 1)) < mean + 1:
            param += 1
        bw.write(0, 2)  # 4-bit Rice parameters
        bw.write(0, 4)  # partition order 0
        bw.write(param, 4)
        for v in zz.tolist():
            bw.write_unary(v >> param)
            if param:
                bw.write(v & ((1 << param) - 1), param)
        bw.align()
        frame = bw.bytes()
        out += frame
        out += crc16(frame).to_bytes(2, "big")
    return bytes(out)
