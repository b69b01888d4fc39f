"""Compressed-audio WAV codecs in pure numpy (no soundfile/ffmpeg).

RIFF/WAVE parsing plus two real compressed formats alongside PCM16:

  - G.711 mu-law (wFormatTag 7): logarithmic companding, 8 bits per
    sample, the ITU-T segmented approximation (bias 0x84, 8 segments).
  - IMA/DVI ADPCM (wFormatTag 0x11): 4-bit differential coding with
    the standard step-size table and per-block (predictor, index)
    headers.

Encoders for both exist so encode -> decode round-trips pin the full
path; mu-law is exactly invertible on its 255 code levels and ADPCM is
pinned by SNR bounds plus an exact nibble-stream vector.
"""

from __future__ import annotations

import struct

import numpy as np

_MULAW_BIAS = 0x84
_MULAW_CLIP = 32635

_IMA_INDEX_TABLE = np.array([-1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int64)
_IMA_STEP_TABLE = np.array(
    [
        7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31,
        34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130,
        143, 157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408,
        449, 494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282,
        1411, 1552, 1707, 1878, 2066, 2272, 2499, 2749, 3024, 3327,
        3660, 4026, 4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630,
        9493, 10442, 11487, 12635, 13899, 15289, 16818, 18500, 20350,
        22385, 24623, 27086, 29794, 32767,
    ],
    dtype=np.int64,
)


# --- G.711 mu-law ---------------------------------------------------------


def mulaw_encode(samples: np.ndarray) -> np.ndarray:
    """int16 -> uint8 mu-law codes (ITU-T G.711 segmented encoder)."""
    x = samples.astype(np.int64)
    sign = (x < 0).astype(np.uint8) << 7
    mag = np.clip(np.abs(x), 0, _MULAW_CLIP) + _MULAW_BIAS
    # exponent = position of the highest set bit above bit 7
    exp = (np.floor(np.log2(mag)) - 7).astype(np.int64)
    exp = np.clip(exp, 0, 7)
    mant = (mag >> (exp + 3)) & 0x0F
    return (~(sign | (exp.astype(np.uint8) << 4) | mant.astype(np.uint8))).astype(
        np.uint8
    )


def mulaw_decode(codes: np.ndarray) -> np.ndarray:
    """uint8 mu-law codes -> int16 samples."""
    c = (~codes.astype(np.uint8)).astype(np.int64)
    sign = c & 0x80
    exp = (c >> 4) & 0x07
    mant = c & 0x0F
    mag = ((mant << 3) + _MULAW_BIAS) << exp
    mag -= _MULAW_BIAS
    out = np.where(sign != 0, -mag, mag)
    return out.astype(np.int16)


# --- IMA ADPCM ------------------------------------------------------------


def ima_adpcm_encode_block(samples: np.ndarray, predictor: int, index: int):
    """Encode one mono block of int16 samples (first sample becomes the
    block header's predictor); returns (nibbles, predictor, index)."""
    nibbles = []
    pred = int(samples[0])
    for s in samples[1:]:
        step = int(_IMA_STEP_TABLE[index])
        diff = int(s) - pred
        code = 0
        if diff < 0:
            code = 8
            diff = -diff
        if diff >= step:
            code |= 4
            diff -= step
        if diff >= step >> 1:
            code |= 2
            diff -= step >> 1
        if diff >= step >> 2:
            code |= 1
        # reconstruct like the decoder so predictor tracks exactly
        delta = step >> 3
        if code & 4:
            delta += step
        if code & 2:
            delta += step >> 1
        if code & 1:
            delta += step >> 2
        pred = pred - delta if code & 8 else pred + delta
        pred = max(-32768, min(32767, pred))
        index = max(0, min(88, index + int(_IMA_INDEX_TABLE[code & 7])))
        nibbles.append(code)
    return nibbles, pred, index


def ima_adpcm_decode(nibbles, predictor: int, index: int) -> np.ndarray:
    out = np.empty(len(nibbles), dtype=np.int16)
    pred = predictor
    for i, code in enumerate(nibbles):
        step = int(_IMA_STEP_TABLE[index])
        delta = step >> 3
        if code & 4:
            delta += step
        if code & 2:
            delta += step >> 1
        if code & 1:
            delta += step >> 2
        pred = pred - delta if code & 8 else pred + delta
        pred = max(-32768, min(32767, pred))
        out[i] = pred
        index = max(0, min(88, index + int(_IMA_INDEX_TABLE[code & 7])))
    return out


# --- RIFF/WAVE container --------------------------------------------------


def _riff_chunks(data: bytes):
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos = 12
    while pos + 8 <= len(data):
        tag = data[pos : pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4 : pos + 8])
        body = data[pos + 8 : pos + 8 + size]
        if len(body) != size:
            raise ValueError("WAV chunk truncated")
        yield tag, body
        pos += 8 + size + (size & 1)


def encode_wav_mulaw(samples: np.ndarray, rate: int = 8000) -> bytes:
    codes = mulaw_encode(samples.astype(np.int16)).tobytes()
    fmt = struct.pack("<HHIIHH", 7, 1, rate, rate, 1, 8)
    return (
        b"RIFF"
        + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(codes))
        + b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(codes)) + codes
    )


def encode_wav_ima_adpcm(
    samples: np.ndarray, rate: int = 8000, block_samples: int = 505
) -> bytes:
    """Mono int16 -> IMA ADPCM WAV. Each block stores (predictor,
    index, reserved) + (block_samples - 1) nibbles, two per byte
    low-nibble-first."""
    samples = samples.astype(np.int16)
    if len(samples) == 0:
        raise ValueError("empty audio")
    if block_samples % 2 == 0:
        raise ValueError("block_samples must be odd (whole nibble bytes)")
    index = 0
    blocks = []
    n_samples = 0
    for off in range(0, len(samples), block_samples):
        chunk = samples[off : off + block_samples]
        if len(chunk) < block_samples:
            chunk = np.concatenate(
                [chunk, np.full(block_samples - len(chunk), int(chunk[-1]), np.int16)]
            )
        start_index = index
        nibbles, _pred, index = ima_adpcm_encode_block(chunk, int(chunk[0]), index)
        body = struct.pack("<hBB", int(chunk[0]), start_index, 0)
        packed = bytearray()
        for i in range(0, len(nibbles), 2):
            packed.append(nibbles[i] | (nibbles[i + 1] << 4))
        blocks.append(body + bytes(packed))
        n_samples += block_samples
    data = b"".join(blocks)
    block_align = 4 + (block_samples - 1) // 2
    fmt = struct.pack(
        "<HHIIHH", 0x11, 1, rate, rate * block_align // block_samples, block_align, 4
    ) + struct.pack("<HH", 2, block_samples)  # cbSize=2, samples/block
    fact = struct.pack("<I", n_samples)
    return (
        b"RIFF"
        + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(fact) + 8 + len(data))
        + b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"fact" + struct.pack("<I", len(fact)) + fact
        + b"data" + struct.pack("<I", len(data)) + data
    )


def decode_wav_any(data: bytes) -> tuple[np.ndarray, int]:
    """WAV bytes (PCM16 / mu-law / IMA ADPCM, mono or interleaved PCM)
    -> (int16 samples [n, channels], rate)."""
    fmt = None
    body = None
    for tag, chunk in _riff_chunks(data):
        if tag == b"fmt ":
            fmt = chunk
        elif tag == b"data":
            body = chunk
    if fmt is None or body is None:
        raise ValueError("WAV missing fmt/data chunk")
    tag, nch, rate, _br, block_align, bits = struct.unpack("<HHIIHH", fmt[:16])
    if tag == 1:  # PCM
        if bits != 16:
            raise ValueError("only 16-bit PCM supported")
        arr = np.frombuffer(body, dtype="<i2")
        return arr.reshape(-1, nch), rate
    if tag == 7:  # mu-law
        if bits != 8:
            raise ValueError("mu-law must be 8-bit")
        codes = np.frombuffer(body, dtype=np.uint8)
        return mulaw_decode(codes).reshape(-1, nch), rate
    if tag == 0x11:  # IMA ADPCM
        if nch != 1:
            raise ValueError("only mono IMA ADPCM supported")
        if len(fmt) >= 20:
            (spb,) = struct.unpack("<H", fmt[18:20])
        else:
            spb = (block_align - 4) * 2 + 1
        out = []
        pos = 0
        while pos + block_align <= len(body):
            pred, index, _res = struct.unpack("<hBB", body[pos : pos + 4])
            packed = np.frombuffer(
                body[pos + 4 : pos + block_align], dtype=np.uint8
            )
            nibbles = np.empty(len(packed) * 2, dtype=np.uint8)
            nibbles[0::2] = packed & 0x0F
            nibbles[1::2] = packed >> 4
            nibbles = nibbles[: spb - 1]
            out.append(np.asarray([pred], dtype=np.int16))
            out.append(ima_adpcm_decode(nibbles.tolist(), pred, int(index)))
            pos += block_align
        if not out:
            raise ValueError("IMA ADPCM data shorter than one block")
        return np.concatenate(out).reshape(-1, 1), rate
    raise ValueError(f"unsupported WAV format tag {tag}")
