"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Image/audio/video payloads are carried as Arrow `binary` columns with a
metadata struct; decode / feature-extract / resize / frame-sample run
as map_batches task stages with SMALL batch sizes (payload bytes
dominate block size).

Codec reality in this container: no PIL/ffmpeg/soundfile. Instead of
stubbing everything, the engine ships REAL pure-numpy/stdlib codecs for
self-describing formats —

  - image: binary PPM (P6) — AND real PNG (stdlib zlib + per-spec
    numpy unfiltering, all five filters, 1-16 bit, palette;
    functions/png.py), real GIF (variable-width LZW, interlace,
    disposal compositing; functions/gif.py), real baseline JPEG
    (SOF0 huffman + DCT, 4:4:4/4:2:2/4:2:0, restart intervals;
    functions/jpeg.py) — payloads sniffed by magic; nearest-neighbor
    resize as a numpy index op.
  - audio: RIFF WAV — PCM16, G.711 mu-law and IMA ADPCM
    (functions/audio.py).
  - video: concatenated PPM frames, MJPEG (concatenated JPEG) or
    animated GIF, frame-sampled every k-th frame.

`PixelDecoder` extracts real features from those (dimensions, per
channel mean/std, luma histogram, RMS / zero-crossing rate for audio).
The remaining time-domain formats (MP3/H.264) still need a real codec;
`RealImageDecoder` stays the documented integration point and
`FakeImageDecoder` remains for pure-plumbing tests.
"""

from __future__ import annotations

import hashlib
import io
import struct
import wave
import zlib

import numpy as np
import pyarrow as pa

import ray.data as rd

from ..functions.audio import decode_wav_any, encode_wav_ima_adpcm, encode_wav_mulaw
from ..functions.flac import decode_flac, encode_flac
from ..functions.gif import decode_gif, encode_gif
from ..functions.jpeg import decode_jpeg, encode_jpeg
from ..functions.png import decode_png, encode_png, to_rgb

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),  # "image" | "audio" | "video"
        ("payload", pa.binary()),
        ("width", pa.int32()),  # typed metadata (0 when unknown)
        ("height", pa.int32()),
        ("duration_ms", pa.int32()),
    ]
)

FEATURE_DIM = 16


# --- pure-numpy/stdlib codecs -------------------------------------------


def encode_ppm(arr: np.ndarray) -> bytes:
    """[H, W, 3] uint8 -> binary PPM (P6)."""
    h, w, c = arr.shape
    assert c == 3
    return f"P6\n{w} {h}\n255\n".encode() + arr.astype(np.uint8).tobytes()


def decode_ppm(data: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse one P6 frame at `offset`; returns (pixels, next_offset)."""
    if data[offset : offset + 2] != b"P6":
        raise ValueError("not a P6 PPM payload")
    pos = offset + 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":  # comment line
            end = data.find(b"\n", pos)
            pos = end + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError("only 8-bit PPM supported")
    n = w * h * 3
    pix = np.frombuffer(data, dtype=np.uint8, count=n, offset=pos).reshape(h, w, 3)
    return pix, pos + n


def encode_wav(samples: np.ndarray, rate: int = 16000) -> bytes:
    """int16 mono samples -> RIFF WAV bytes (stdlib wave)."""
    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(samples.astype("<i2").tobytes())
    return buf.getvalue()


def decode_wav(data: bytes) -> tuple[np.ndarray, int]:
    """WAV bytes -> (int16 samples [n, channels], rate)."""
    with wave.open(io.BytesIO(data), "rb") as f:
        if f.getsampwidth() != 2:
            raise ValueError("only PCM16 WAV supported")
        rate = f.getframerate()
        raw = f.readframes(f.getnframes())
        arr = np.frombuffer(raw, dtype="<i2").reshape(-1, f.getnchannels())
    return arr, rate


def sniff_decode_image(payload: bytes) -> np.ndarray:
    """Single source of truth for still-image container sniffing:
    PNG / GIF / JPEG by magic bytes, PPM as the fallback. Every image
    consumer (PixelDecoder, image_phash_dedup, tests) goes through
    this so a codec or magic-detection change lands everywhere."""
    if payload[:8] == b"\x89PNG\r\n\x1a\n":
        return to_rgb(decode_png(payload))
    if payload[:4] == b"GIF8":
        return decode_gif(payload)[0]
    if payload[:2] == b"\xff\xd8":
        return to_rgb(decode_jpeg(payload))
    return decode_ppm(payload)[0]


def resize_nearest(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize as a pure numpy index op (no codec lib)."""
    h, w = arr.shape[:2]
    rows = (np.arange(out_h) * h // out_h).clip(0, h - 1)
    cols = (np.arange(out_w) * w // out_w).clip(0, w - 1)
    return arr[rows[:, None], cols[None, :]]


def iter_ppm_frames(data: bytes):
    """Frames of a concatenated-PPM video stream."""
    pos = 0
    while pos < len(data):
        frame, pos = decode_ppm(data, pos)
        yield frame


def iter_mjpeg_frames(data: bytes):
    """Frames of an MJPEG-style concatenated-JPEG stream. In baseline
    entropy data every 0xFF is stuffed (FF00) or a marker, so the EOI
    (FFD9) scan is an exact frame boundary."""
    pos = 0
    while pos < len(data):
        end = data.find(b"\xff\xd9", pos)
        if end < 0:
            raise ValueError("truncated MJPEG stream")
        yield to_rgb(decode_jpeg(data[pos : end + 2]))
        pos = end + 2


# --- deterministic synthetic media corpus --------------------------------


def synthesize_media_table(n: int = 64, seed: int = 42) -> pa.Table:
    """Deterministic media corpus with REAL decodable payloads:
    PPM images, PCM16 WAV audio, concatenated-PPM video."""
    rng = np.random.RandomState(seed)
    rows = {
        "media_id": [],
        "kind": [],
        "payload": [],
        "width": [],
        "height": [],
        "duration_ms": [],
    }
    kinds = ["image", "audio", "video"]
    for i in range(n):
        kind = kinds[i % 3]
        if kind == "image":
            h, w = int(rng.randint(16, 96)), int(rng.randint(16, 96))
            pix = rng.randint(0, 256, size=(h, w, 3)).astype(np.uint8)
            # cycle PPM / PNG (through all five filters) / GIF so the
            # corpus exercises every real codec
            container = (i // 3) % 4
            if container == 0:
                payload = encode_png(pix, filter_type=(i // 12) % 5)
            elif container == 1:
                # GIF needs <=256 distinct colors: paletted random image
                palette = rng.randint(0, 256, size=(8, 3)).astype(np.uint8)
                pix = palette[rng.randint(0, 8, size=(h, w))]
                payload = encode_gif(pix)
            elif container == 2:
                payload = encode_jpeg(pix, quality=90)
            else:
                payload = encode_ppm(pix)
            width, height, dur = w, h, 0
        elif kind == "audio":
            rate = 16000
            dur = int(rng.randint(100, 2000))
            t = np.arange(int(rate * dur / 1000))
            freq = float(rng.uniform(80, 2000))
            sig = (8000 * np.sin(2 * np.pi * freq * t / rate)).astype(np.int16)
            codec = (i // 3) % 4
            if codec == 0:
                payload = encode_wav(sig, rate)  # PCM16
            elif codec == 1:
                payload = encode_wav_mulaw(sig, rate)
            elif codec == 2:
                payload = encode_wav_ima_adpcm(sig, rate)
                # ADPCM pads the tail block; duration reflects decoded len
                spb = 505
                n_blocks = (len(sig) + spb - 1) // spb
                dur = int(n_blocks * spb * 1000 / rate)
            else:
                payload = encode_flac(sig, rate, blocksize=1024)  # lossless
            width = height = 0
        else:
            h, w = int(rng.randint(12, 40)), int(rng.randint(12, 40))
            n_frames = int(rng.randint(2, 9))
            container = (i // 3) % 3
            if container == 0:  # animated GIF stream
                palette = rng.randint(0, 256, size=(8, 3)).astype(np.uint8)
                frames = [
                    palette[rng.randint(0, 8, size=(h, w))] for _ in range(n_frames)
                ]
                payload = encode_gif(frames)
            elif container == 1:  # MJPEG stream
                frames = [
                    rng.randint(0, 256, size=(h, w, 3)).astype(np.uint8)
                    for _ in range(n_frames)
                ]
                payload = b"".join(encode_jpeg(f, quality=90) for f in frames)
            else:  # concatenated-PPM stream
                frames = [
                    rng.randint(0, 256, size=(h, w, 3)).astype(np.uint8)
                    for _ in range(n_frames)
                ]
                payload = b"".join(encode_ppm(f) for f in frames)
            width, height = w, h
            dur = len(frames) * 40  # 25 fps
        rows["media_id"].append(i)
        rows["kind"].append(kind)
        rows["payload"].append(payload)
        rows["width"].append(width)
        rows["height"].append(height)
        rows["duration_ms"].append(dur)
    return pa.Table.from_pydict(rows, schema=MEDIA_SCHEMA)


# --- decode / feature stages ---------------------------------------------


class RealImageDecoder:
    """Integration point for the two remaining compressed formats
    (MP3 / H.264). Everything else decodes for real in pure
    numpy/stdlib (PPM, PNG, GIF, baseline JPEG, PCM/mu-law/ADPCM WAV,
    FLAC); MP3 and H.264 are different in kind: bit-exact decoders
    REQUIRE large standardized constant tables (ISO 11172-3 Annex B
    huffman/window/scalefactor tables; H.264 CABAC context and
    deblocking tables) that cannot be reliably reproduced without the
    published spec text, which is not in this container. Wire ffmpeg
    (or ship the tables) here when deploying."""

    def __init__(self):
        raise NotImplementedError(
            "MP3/H.264 need standardized coefficient tables not available "
            "in this environment; PixelDecoder handles "
            "PPM/PNG/GIF/JPEG/WAV(mu-law,ADPCM)/FLAC/PPM-stream payloads"
        )


def _image_features(pix: np.ndarray) -> np.ndarray:
    """FEATURE_DIM floats: per-channel mean/std (6) + 10-bin luma hist."""
    f = np.empty(FEATURE_DIM, dtype=np.float32)
    flat = pix.reshape(-1, 3).astype(np.float32)
    f[0:3] = flat.mean(axis=0) / 255.0
    f[3:6] = flat.std(axis=0) / 255.0
    luma = flat @ np.array([0.299, 0.587, 0.114], dtype=np.float32)
    hist, _ = np.histogram(luma, bins=10, range=(0.0, 255.0))
    f[6:16] = hist / max(1, luma.size)
    return f


def _audio_features(samples: np.ndarray, rate: int) -> np.ndarray:
    """FEATURE_DIM floats: rms, zero-crossing rate, 14-bin level hist."""
    f = np.zeros(FEATURE_DIM, dtype=np.float32)
    x = samples[:, 0].astype(np.float32) / 32768.0
    if x.size:
        f[0] = float(np.sqrt(np.mean(x * x)))
        f[1] = float(np.mean(np.abs(np.diff(np.signbit(x).astype(np.int8)))))
        hist, _ = np.histogram(np.abs(x), bins=14, range=(0.0, 1.0))
        f[2:16] = hist / x.size
    return f


class PixelDecoder:
    """Decode + feature task stage over REAL payloads.

    Per kind: image -> decode PPM, optional thumbnail resize, pixel
    features; audio -> decode WAV, signal features; video -> sample
    every `frame_step`-th PPM frame and average frame features.
    Undecodable payloads become error rows (status column), never
    worker crashes."""

    def __init__(self, thumb: int = 0, frame_step: int = 2):
        self.thumb = thumb
        self.frame_step = frame_step

    def _decode_one(self, kind: str, payload: bytes):
        if kind == "image":
            pix = sniff_decode_image(payload)
            h, w = pix.shape[:2]
            if self.thumb:
                pix = resize_nearest(pix, self.thumb, self.thumb)
            return _image_features(pix), w, h, 0
        if kind == "audio":
            # FLAC sniffs by magic; decode_wav_any handles PCM16 +
            # compressed (mu-law, IMA ADPCM) WAV; the stdlib-wave PCM16
            # path stays as the fallback for esoteric-but-PCM containers
            if payload[:4] == b"fLaC":
                s64, rate = decode_flac(payload)
                if s64.ndim == 1:  # mono -> the (n, channels) layout
                    s64 = s64[:, None]
                samples = s64.astype(np.int16)
            else:
                try:
                    samples, rate = decode_wav_any(payload)
                except ValueError:
                    samples, rate = decode_wav(payload)
            dur = int(len(samples) * 1000 / rate)
            return _audio_features(samples, rate), 0, 0, dur
        if payload[:4] == b"GIF8":  # animated GIF video
            frames = decode_gif(payload)
        elif payload[:2] == b"\xff\xd8":  # MJPEG stream
            frames = list(iter_mjpeg_frames(payload))
        else:
            frames = list(iter_ppm_frames(payload))
        sampled = frames[:: self.frame_step] or frames
        feats = np.mean([_image_features(f) for f in sampled], axis=0).astype(np.float32)
        h, w = frames[0].shape[:2]
        return feats, w, h, len(frames) * 40

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        feats, widths, heights, durs, status, nbytes = [], [], [], [], [], []
        for kind, payload in zip(kinds, payloads):
            nbytes.append(len(payload))
            try:
                f, w, h, d = self._decode_one(kind, payload)
                feats.append(f.tolist())
                widths.append(w)
                heights.append(h)
                durs.append(d)
                status.append("ok")
            except (ValueError, wave.Error, EOFError, struct.error, zlib.error) as exc:
                # struct/zlib errors escape the codecs on truncated
                # containers and corrupt deflate streams — error rows,
                # never worker crashes
                feats.append([0.0] * FEATURE_DIM)
                widths.append(0)
                heights.append(0)
                durs.append(0)
                status.append(f"error:{type(exc).__name__}")
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "kind": pa.array(kinds, pa.string()),
                "n_bytes": pa.array(nbytes, pa.int64()),
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
                "duration_ms": pa.array(durs, pa.int32()),
                "decode_status": pa.array(status, pa.string()),
                "features": pa.array(feats, pa.list_(pa.float32(), FEATURE_DIM)),
            }
        )


class FakeImageDecoder:
    """Deterministic stand-in decoder for pure-plumbing tests: bytes ->
    FEATURE_DIM float32 keyed-digest vector (no decode)."""

    def __init__(self, feature_dim: int = FEATURE_DIM):
        self.feature_dim = feature_dim

    def _features(self, payload: bytes) -> np.ndarray:
        out = np.empty(self.feature_dim, dtype=np.float32)
        for i in range(self.feature_dim):
            h = hashlib.blake2b(payload, digest_size=8, key=i.to_bytes(2, "little")).digest()
            out[i] = int.from_bytes(h[:4], "little") / 2**32
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = [self._features(p) for p in batch["payload"].to_pylist()]
        return pa.table(
            {
                "media_id": batch["media_id"],
                "kind": batch["kind"],
                "n_bytes": pa.array([len(p) for p in batch["payload"].to_pylist()], pa.int64()),
                "features": pa.array(
                    [f.tolist() for f in feats], pa.list_(pa.float32(), self.feature_dim)
                ),
            }
        )


def media_features(media_path_or_table, batch_size: int = 8, thumb: int = 0) -> "rd.Dataset":
    """Decode/feature-extract pipeline over a media table (PixelDecoder,
    real codecs for PPM/WAV/PPM-stream payloads).

    batch_size is deliberately tiny: payload bytes x batch must fit
    each task's heap (binary columns dominate)."""
    if isinstance(media_path_or_table, pa.Table):
        ds = rd.from_arrow(media_path_or_table)
    else:
        ds = rd.read_parquet(media_path_or_table)
    return ds.map_batches(PixelDecoder(thumb=thumb), batch_format="pyarrow", batch_size=batch_size)


# --- perceptual-hash image near-dup ---------------------------------------


def ahash64(pix: np.ndarray) -> int:
    """64-bit average hash: grayscale -> exact 8x8 block means (integral
    image, so every pixel contributes — nearest-neighbor sampling would
    make the hash noise-sensitive) -> bit = block mean > global mean.
    Deterministic float64 arithmetic; containers that decode to the
    same pixels (PNG vs PPM) hash identically by construction."""
    if pix.shape[0] < 8 or pix.shape[1] < 8:
        raise ValueError("ahash64 needs images >= 8x8")
    g = pix.astype(np.float64).mean(axis=2)
    h, w = g.shape
    integ = np.zeros((h + 1, w + 1), dtype=np.float64)
    integ[1:, 1:] = g.cumsum(0).cumsum(1)
    rb = np.round(np.linspace(0, h, 9)).astype(int)
    cb = np.round(np.linspace(0, w, 9)).astype(int)
    sums = (
        integ[rb[1:, None], cb[None, 1:]]
        - integ[rb[:-1, None], cb[None, 1:]]
        - integ[rb[1:, None], cb[None, :-1]]
        + integ[rb[:-1, None], cb[None, :-1]]
    )
    areas = (rb[1:, None] - rb[:-1, None]) * (cb[None, 1:] - cb[None, :-1])
    cells = sums / areas
    bits = (cells > cells.mean()).astype(np.uint8).ravel()
    return int.from_bytes(np.packbits(bits).tobytes(), "big")


def synthesize_image_dedup_table(n_base: int = 18, seed: int = 9) -> pa.Table:
    """Deterministic image corpus with PLANTED near-duplicates: every
    3rd base image also appears re-encoded as PPM (identical pixels ->
    hamming 0), with sparse ±2 pixel noise, and as JPEG quality 95
    (lossy but hash-stable). Base images are low-frequency (a coarse
    random grid upsampled) so block means sit far from the global mean
    and the hash bits are decisive under noise/JPEG; a few pure-noise
    distractors round out the corpus. media_id encodes lineage:
    base k -> 10k, variants 10k+1/2/3."""
    rng = np.random.RandomState(seed)
    ids, payloads = [], []
    for k in range(n_base):
        h, w = int(rng.randint(24, 64)), int(rng.randint(24, 64))
        if k % 5 == 4:
            pix = rng.randint(0, 256, size=(h, w, 3)).astype(np.uint8)  # distractor
        else:
            coarse = rng.randint(0, 256, size=(4, 4, 3)).astype(np.uint8)
            pix = resize_nearest(coarse, h, w)
        ids.append(10 * k)
        payloads.append(encode_png(pix))
        if k % 3 == 0:
            ids.append(10 * k + 1)
            payloads.append(encode_ppm(pix))  # container re-encode
            noisy = pix.astype(np.int16)
            mask = rng.rand(h, w) < 0.01
            noisy[mask] += rng.randint(-2, 3, size=(int(mask.sum()), 3))
            ids.append(10 * k + 2)
            payloads.append(encode_png(np.clip(noisy, 0, 255).astype(np.uint8)))
            ids.append(10 * k + 3)
            payloads.append(encode_jpeg(pix, quality=95))
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "kind": pa.array(["image"] * len(ids)),
            "payload": pa.array(payloads, pa.binary()),
        }
    )


def image_phash_dedup(
    media_table: pa.Table | None = None,
    max_hamming: int = 3,
    batch_size: int = 8,
    n_shards: int = 16,
) -> pd.DataFrame:
    """Near-duplicate IMAGE pairs by perceptual hash: task-stage decode
    (PNG/GIF/JPEG/PPM, the real codecs) -> ahash64 -> 4 x 16-bit
    pigeonhole bands (complete for hamming <= max_hamming=3, same lemma
    as simhash_dedup) -> shard-grouped exact-Hamming verify. The
    exchange carries (band, hash) rows — 4 small rows per image, never
    pixels; undecodable or sub-8x8 payloads drop out as they would
    become error rows in media_features. Returns the exact pair set
    (media_a, media_b, hamming <= 3), sorted."""
    import pandas as pd

    from ..functions.minhash import hamming64

    if media_table is None:
        media_table = synthesize_image_dedup_table()

    def hash_bands(t: pa.Table) -> pa.Table:
        """Decode once per payload, emit the 4 band rows."""
        ids_out, chunk_id, chunk_value, shard, hashes = [], [], [], [], []
        for mid, payload in zip(t["media_id"].to_pylist(), t["payload"].to_pylist()):
            try:
                hv = ahash64(sniff_decode_image(payload))
            except (ValueError, struct.error, zlib.error):
                continue  # error row semantics: undecodable drops out
            for c in range(4):
                cv = (hv >> (16 * c)) & 0xFFFF
                ids_out.append(mid)
                chunk_id.append(c)
                chunk_value.append(cv)
                shard.append((c * 65536 + cv) % n_shards)
                hashes.append(f"{hv:016x}")
        return pa.table(
            {
                "media_id": pa.array(ids_out, pa.int64()),
                "chunk_id": pa.array(chunk_id, pa.int32()),
                "chunk_value": pa.array(chunk_value, pa.int32()),
                "shard": pa.array(shard, pa.int32()),
                "ahash": pa.array(hashes, pa.string()),
            }
        )

    def pairs_of_shard(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for (_c, _v), grp in g.groupby(["chunk_id", "chunk_value"], sort=False):
            members = sorted(
                zip(grp["media_id"].to_numpy(), grp["ahash"].to_numpy())
            )
            for i in range(len(members)):
                a, ha = members[i]
                for j in range(i + 1, len(members)):
                    b, hb = members[j]
                    d = hamming64(int(ha, 16), int(hb, 16))
                    if d <= max_hamming:
                        rows.append((int(a), int(b), d))
        return pd.DataFrame(rows, columns=["media_a", "media_b", "hamming"]).astype(
            "int64"
        )

    ds = rd.from_arrow(media_table)
    out = (
        ds.map_batches(hash_bands, batch_format="pyarrow", batch_size=batch_size)
        .groupby("shard")
        .map_groups(pairs_of_shard, batch_format="pandas")
        .to_pandas()
    )
    out = out.drop_duplicates(["media_a", "media_b"])  # pairs found in >1 band
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values(["media_a", "media_b"]).reset_index(drop=True)


def synthesize_speech_table(n: int = 48, seed: int = 7) -> pa.Table:
    """Deterministic 'speech-like' audio corpus: each clip is 1-5 sine
    bursts separated by silence gaps, cycled through the real WAV codecs
    (PCM16 / mu-law / IMA ADPCM) — ground truth burst counts ride along
    so segmentation quality is testable, mirroring how a VAD corpus
    carries reference annotations."""
    from ..functions.audio import encode_wav_ima_adpcm, encode_wav_mulaw

    rng = np.random.RandomState(seed)
    rate = 16000
    rows = {"media_id": [], "payload": [], "n_bursts": [], "n_samples": []}
    for i in range(n):
        n_bursts = int(rng.randint(1, 6))
        pieces = [np.zeros(int(rng.randint(800, 2400)), np.int16)]  # lead-in
        for _ in range(n_bursts):
            dur = int(rng.randint(1600, 6400))
            t = np.arange(dur)
            freq = float(rng.uniform(120, 1800))
            burst = (9000 * np.sin(2 * np.pi * freq * t / rate)).astype(np.int16)
            pieces.append(burst)
            pieces.append(np.zeros(int(rng.randint(1600, 4800)), np.int16))  # gap
        sig = np.concatenate(pieces)
        codec = i % 3
        if codec == 0:
            payload = encode_wav(sig, rate)
        elif codec == 1:
            payload = encode_wav_mulaw(sig, rate)
        else:
            payload = encode_wav_ima_adpcm(sig, rate)
        rows["media_id"].append(i)
        rows["payload"].append(payload)
        rows["n_bursts"].append(n_bursts)
        rows["n_samples"].append(len(sig))
    return pa.table(
        {
            "media_id": pa.array(rows["media_id"], pa.int64()),
            "payload": pa.array(rows["payload"], pa.binary()),
            "n_bursts": pa.array(rows["n_bursts"], pa.int64()),
            "n_samples": pa.array(rows["n_samples"], pa.int64()),
        }
    )


class AudioEnergySegmenter:
    """VAD-style energy segmentation task stage: decode WAV -> 20 ms
    frame RMS -> threshold -> merge adjacent active frames into
    segments (closing gaps up to `gap_frames`). Per-clip output is the
    segment count and active/total duration — the stats a speech
    pipeline filters on before transcription.

    No state beyond the three settings; __call__ is vectorized framing
    per clip. Batches stay tiny — payload bytes dominate worker heap."""

    def __init__(self, frame_ms: int = 20, threshold: float = 500.0, gap_frames: int = 2):
        self.frame_ms = frame_ms
        self.threshold = threshold
        self.gap_frames = gap_frames

    def _segments(self, samples: np.ndarray, rate: int) -> tuple[int, int, int]:
        mono = samples[:, 0].astype(np.float64) if samples.ndim == 2 else samples.astype(np.float64)
        flen = max(1, rate * self.frame_ms // 1000)
        n_frames = len(mono) // flen
        if n_frames == 0:
            return 0, 0, 0
        frames = mono[: n_frames * flen].reshape(n_frames, flen)
        rms = np.sqrt((frames * frames).mean(axis=1))
        active = rms > self.threshold
        # close short gaps: a run of <= gap_frames inactive frames
        # between active frames counts as active (standard VAD hangover)
        if self.gap_frames > 0 and active.any():
            idx = np.flatnonzero(active)
            gaps = np.diff(idx)
            for pos, g in zip(idx[:-1], gaps):
                if 1 < g <= self.gap_frames + 1:
                    active[pos : pos + g] = True
        changes = np.diff(active.astype(np.int8))
        n_seg = int(active[0]) + int((changes == 1).sum())
        return n_seg, int(active.sum()), n_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.audio import decode_wav_any

        out = {
            "media_id": [], "n_segments": [], "active_ms": [], "total_ms": [],
            "decode_status": [],
        }
        for mid, payload in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            try:
                samples, rate = decode_wav_any(payload)
                n_seg, n_act, n_frames = self._segments(samples, rate)
                out["media_id"].append(mid)
                out["n_segments"].append(n_seg)
                out["active_ms"].append(n_act * self.frame_ms)
                out["total_ms"].append(n_frames * self.frame_ms)
                out["decode_status"].append("ok")
            except Exception as e:  # error rows, never poison the batch
                out["media_id"].append(mid)
                out["n_segments"].append(0)
                out["active_ms"].append(0)
                out["total_ms"].append(0)
                out["decode_status"].append(f"error:{type(e).__name__}")
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], pa.int64()),
                "n_segments": pa.array(out["n_segments"], pa.int64()),
                "active_ms": pa.array(out["active_ms"], pa.int64()),
                "total_ms": pa.array(out["total_ms"], pa.int64()),
                "decode_status": pa.array(out["decode_status"], pa.string()),
            }
        )


def audio_energy_segments(media_table: "pa.Table | None" = None) -> pd.DataFrame:
    """Energy-based audio segmentation over the speech corpus (task
    stage, tiny batches — binary payloads dominate memory)."""
    t = media_table if media_table is not None else synthesize_speech_table()
    out = (
        rd.from_arrow(t.select(["media_id", "payload"]))
        .map_batches(AudioEnergySegmenter(), batch_size=8, batch_format="pyarrow")
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    return out


# --- scene-cut detection ----------------------------------------------------


def synthesize_scene_video_table(n: int = 24, seed: int = 7) -> pa.Table:
    """Deterministic scene-structured videos: each video is 2-4 scenes
    of small-drift frames (pixel walk within ±3/frame) separated by
    hard cuts (fresh random base). Ground-truth cut frame indices ride
    along in `true_cuts` (comma-joined) so tests can assert exact
    recovery — the detector never reads that column."""
    rng = np.random.RandomState(seed)
    rows = {"media_id": [], "container": [], "payload": [], "true_cuts": []}
    for i in range(n):
        h, w = int(rng.randint(16, 32)), int(rng.randint(16, 32))
        n_scenes = int(rng.randint(2, 5))
        frames: list[np.ndarray] = []
        cuts: list[int] = []
        for s in range(n_scenes):
            if frames:
                cuts.append(len(frames))
            base = rng.randint(0, 256, size=(h, w, 3)).astype(np.int16)
            for _ in range(int(rng.randint(2, 6))):
                frames.append(np.clip(base, 0, 255).astype(np.uint8))
                base = base + rng.randint(-3, 4, size=base.shape)
        container = i % 2
        if container == 0:
            payload = b"".join(encode_ppm(f) for f in frames)
        else:
            # GIF is paletted: quantize to a 2-bit grid (4^3 = 64 colors
            # <= the 256-color limit); in-scene drift collapses to the
            # same palette cell while cuts still rebase every pixel
            quant = [(f >> 6 << 6) for f in frames]
            payload = encode_gif(quant)
        rows["media_id"].append(i)
        rows["container"].append("ppm" if container == 0 else "gif")
        rows["payload"].append(payload)
        rows["true_cuts"].append(",".join(map(str, cuts)))
    return pa.Table.from_pydict(
        rows,
        schema=pa.schema(
            [
                ("media_id", pa.int64()),
                ("container", pa.string()),
                ("payload", pa.binary()),
                ("true_cuts", pa.string()),
            ]
        ),
    )


class SceneCutDetector:
    """Task stage: decode each video's frames (real PPM / GIF
    codecs), score consecutive-frame change as the INTEGER sum of
    absolute pixel deltas, and flag a cut where the per-pixel mean
    change exceeds `threshold` (exact comparison
    sum_abs * 1 > threshold * n_px — no float). Scene drift moves a
    pixel <= 3/channel per frame; a cut rebases the whole frame, so
    the margins are wide and the detection deterministic."""

    def __init__(self, threshold: int = 32):
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, nf, nc, cuts_csv = [], [], [], []
        for mid, payload in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            if payload[:4] == b"GIF8":
                frames = decode_gif(payload)
            else:
                frames = list(iter_ppm_frames(payload))
            cuts = []
            for j in range(1, len(frames)):
                a = frames[j - 1].astype(np.int64)
                b = frames[j].astype(np.int64)
                if int(np.abs(a - b).sum()) > self.threshold * a.size:
                    cuts.append(j)
            ids.append(mid)
            nf.append(len(frames))
            nc.append(len(cuts))
            cuts_csv.append(",".join(map(str, cuts)))
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "n_frames": pa.array(nf, pa.int64()),
                "n_cuts": pa.array(nc, pa.int64()),
                "cut_frames": pa.array(cuts_csv, pa.string()),
            }
        )


def video_scene_cuts(media_table: pa.Table | None = None, threshold: int = 32) -> pd.DataFrame:
    """Scene segmentation over a video corpus: per video, the exact cut
    frame indices — the shot-boundary primitive video-curation
    pipelines sample keyframes from. Task-stage decode (per batch = a
    few MB of frames) exactly like media_features; binary payloads
    never shuffle — each batch reduces to 4 scalar columns in place."""
    import ray.data as rd

    tbl = media_table if media_table is not None else synthesize_scene_video_table()
    ds = rd.from_arrow(tbl.select(["media_id", "payload"]))
    out = (
        ds.map_batches(SceneCutDetector(threshold), batch_size=8, batch_format="pyarrow")
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    return out


# --- pitch estimation --------------------------------------------------------


def synthesize_tone_table(n: int = 36, seed: int = 11) -> pa.Table:
    """Deterministic pitched-tone corpus: integer-period sawtooth waves
    (period P in 24..200 samples at 8 kHz) cycled through the real WAV
    codecs.  Quantizing codecs (mu-law, ADPCM's block restart) are
    memoryless per sample, so the DECODED signal is still exactly
    P-periodic and the integer autocorrelation peak recovers P exactly
    — the ground-truth `true_period` column rides along for tests."""
    from ..functions.audio import encode_wav_mulaw

    rng = np.random.RandomState(seed)
    rate = 8000
    rows = {"media_id": [], "payload": [], "true_period": [], "rate": []}
    for i in range(n):
        period = int(rng.randint(24, 201))
        n_samples = 2048 + period  # at least ~10 periods for every P
        ramp = (np.arange(n_samples) % period).astype(np.float64)
        sig = ((ramp / (period - 1)) * 16000 - 8000).astype(np.int16)
        payload = encode_wav(sig, rate) if i % 2 == 0 else encode_wav_mulaw(sig, rate)
        rows["media_id"].append(i)
        rows["payload"].append(payload)
        rows["true_period"].append(period)
        rows["rate"].append(rate)
    return pa.table(
        {
            "media_id": pa.array(rows["media_id"], pa.int64()),
            "payload": pa.array(rows["payload"], pa.binary()),
            "true_period": pa.array(rows["true_period"], pa.int64()),
            "rate": pa.array(rows["rate"], pa.int64()),
        }
    )


class PitchEstimator:
    """Fundamental-period estimator task stage: decode WAV -> exact
    int64 autocorrelation r(L) = sum x[i] * x[i+L] over a fixed window
    (so different lags compare the same number of terms) for L in
    [min_lag, max_lag] -> smallest argmax lag (ties to the shortest
    period, which picks the fundamental over its multiples).  Integer
    arithmetic end to end: deterministic on every worker."""

    def __init__(self, min_lag: int = 20, max_lag: int = 256):
        self.min_lag = min_lag
        self.max_lag = max_lag

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..functions.audio import decode_wav_any

        out = {"media_id": [], "est_period": [], "f0_centihz": []}
        for mid, payload in zip(
            t["media_id"].to_pylist(), t["payload"].to_pylist()
        ):
            samples, rate = decode_wav_any(payload)
            x = (samples[:, 0] if samples.ndim == 2 else samples).astype(np.int64)
            w = len(x) - self.max_lag
            best_lag, best_r = 0, None
            head = x[:w]
            for lag in range(self.min_lag, self.max_lag + 1):
                r = int(np.dot(head, x[lag : lag + w]))
                if best_r is None or r > best_r:
                    best_lag, best_r = lag, r
            out["media_id"].append(mid)
            out["est_period"].append(best_lag)
            out["f0_centihz"].append(rate * 100 // best_lag if best_lag else 0)
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], pa.int64()),
                "est_period": pa.array(out["est_period"], pa.int64()),
                "f0_centihz": pa.array(out["f0_centihz"], pa.int64()),
            }
        )


def audio_pitch_estimate(media_table: "pa.Table | None" = None) -> pd.DataFrame:
    """Pitch estimation over the tone corpus (task stage, tiny batches
    — binary payloads dominate memory; rows-only query: WAV decode has
    no SQL equivalent, exact planted-period recovery is pinned in
    pytest)."""
    t = media_table if media_table is not None else synthesize_tone_table()
    return (
        rd.from_arrow(t.select(["media_id", "payload"]))
        .map_batches(PitchEstimator(), batch_size=8, batch_format="pyarrow")
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )


_MEDIA_AUDIT_DIR = "/tmp/pdfrust_ray_fixtures/media_audit"


def ensure_media_parquet(n: int = 64, seed: int = 42) -> str:
    """Persist the deterministic media corpus so SQL oracles can read
    its metadata columns while the engine decodes the payload bytes."""
    import json
    import os

    import pyarrow.parquet as pq

    path = os.path.join(_MEDIA_AUDIT_DIR, "media.parquet")
    marker = os.path.join(_MEDIA_AUDIT_DIR, "_COMPLETE.json")
    if os.path.exists(marker) and os.path.exists(path):
        return path
    os.makedirs(_MEDIA_AUDIT_DIR, exist_ok=True)
    pq.write_table(synthesize_media_table(n=n, seed=seed), path)
    with open(marker, "w") as f:
        json.dump({"n": n, "seed": seed}, f)
    return path


def media_header_audit(sf_dir: str | None = None) -> pd.DataFrame:
    """Decode-vs-metadata dimension audit: every image payload is
    ACTUALLY decoded (PNG/GIF/JPEG/PPM through the real pure-numpy
    codecs) and each video's first frame sampled; the decoded (width,
    height) is compared against the table's metadata columns. Output
    per kind: payload count, dimension matches, mismatches, and decode
    errors — the container-corruption gate a media-training pipeline
    runs before spending GPU-decode time downstream.

    Distributed plan: decoding runs in the PixelDecoder task-stage
    pattern (tiny batches, binary payloads dominate memory); the
    3-kind census folds from per-batch partials. The SQL twin reads
    the same engine-written parquet's metadata, so the MATCH counts
    are exactly the rows where decode agrees — pinned by the oracle
    asserting every image/video matches on the uncorrupted corpus."""
    import pandas as pd  # noqa: F401 - used via to_pandas result ops

    path = ensure_media_parquet()
    ds = rd.read_parquet(path, columns=["media_id", "kind", "payload", "width", "height"])

    def audit(t: pa.Table) -> pa.Table:
        kinds = t["kind"].to_pylist()
        payloads = t["payload"].to_pylist()
        widths = t["width"].to_pylist()
        heights = t["height"].to_pylist()
        rows = {}
        for kind, payload, w, h in zip(kinds, payloads, widths, heights):
            key = kind
            cell = rows.setdefault(key, {"n": 0, "match": 0, "mismatch": 0, "err": 0})
            cell["n"] += 1
            if kind == "audio":
                continue  # dimension audit applies to visual kinds
            try:
                if kind == "image":
                    pix = sniff_decode_image(bytes(payload))
                else:  # video: first frame
                    frame = next(iter_media_frames(bytes(payload)))
                    pix = frame
                got_h, got_w = pix.shape[0], pix.shape[1]
                if got_w == w and got_h == h:
                    cell["match"] += 1
                else:
                    cell["mismatch"] += 1
            except Exception:
                cell["err"] += 1
        return pa.table(
            {
                "kind": pa.array(list(rows)),
                "n": pa.array([rows[k]["n"] for k in rows], pa.int64()),
                "n_dim_match": pa.array([rows[k]["match"] for k in rows], pa.int64()),
                "n_dim_mismatch": pa.array(
                    [rows[k]["mismatch"] for k in rows], pa.int64()
                ),
                "n_decode_err": pa.array([rows[k]["err"] for k in rows], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(audit, batch_format="pyarrow", batch_size=8)
        .groupby("kind")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("n_dim_match", alias_name="n_dim_match"),
            Sum("n_dim_mismatch", alias_name="n_dim_mismatch"),
            Sum("n_decode_err", alias_name="n_decode_err"),
        )
        .to_pandas()
        .sort_values("kind")
        .reset_index(drop=True)
    )
    for c in out.columns:
        if c != "kind":
            out[c] = out[c].astype("int64")
    return out


def media_header_audit_sql() -> str:
    path = ensure_media_parquet()
    return f"""
        SELECT kind,
               CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(CASE WHEN kind <> 'audio' THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_dim_match,
               CAST(0 AS BIGINT) AS n_dim_mismatch,
               CAST(0 AS BIGINT) AS n_decode_err
        FROM read_parquet('{path}')
        GROUP BY kind ORDER BY kind
    """


def iter_media_frames(payload: bytes):
    """First-frame iterator across the video containers the corpus
    uses (concatenated PPM, MJPEG, animated GIF)."""
    if payload[:2] == b"P6":
        for f in iter_ppm_frames(payload):
            yield f
        return
    if payload[:6] in (b"GIF87a", b"GIF89a"):
        for f in decode_gif(payload):
            yield f
        return
    for f in iter_mjpeg_frames(payload):
        yield f


def audio_duration_audit(sf_dir: str | None = None) -> pd.DataFrame:
    """Audio sibling of media_header_audit: every audio payload is
    ACTUALLY decoded (PCM16 / G.711 mu-law / IMA ADPCM WAV via
    decode_wav_any, FLAC via decode_flac) and the decoded duration
    (samples * 1000 // rate, exact integer ms) compared to the table's
    duration_ms metadata. Census per detected codec: payloads,
    duration matches, mismatches, decode errors.

    Distributed plan: same tiny-batch task-stage decode shape as
    the visual audit; 4-codec census folds from per-batch partials."""
    import pandas as pd

    path = ensure_media_parquet()
    ds = rd.read_parquet(path, columns=["kind", "payload", "duration_ms"])

    def audit(t: pa.Table) -> pa.Table:
        rows = {}
        for kind, payload, dur in zip(
            t["kind"].to_pylist(), t["payload"].to_pylist(), t["duration_ms"].to_pylist()
        ):
            if kind != "audio":
                continue
            b = bytes(payload)
            codec = "flac" if b[:4] == b"fLaC" else "wav"
            try:
                if codec == "flac":
                    samples, rate = decode_flac(b)
                else:
                    samples, rate = decode_wav_any(b)
                    # codec refinement from the fmt tag
                    import struct as _st

                    tag = _st.unpack("<H", b[20:22])[0]
                    codec = {1: "pcm16", 7: "mulaw", 17: "adpcm"}.get(tag, "wav")
                got_ms = len(samples) * 1000 // rate
                cell = rows.setdefault(codec, {"n": 0, "match": 0, "mismatch": 0, "err": 0})
                cell["n"] += 1
                if got_ms == dur:
                    cell["match"] += 1
                else:
                    cell["mismatch"] += 1
            except Exception:
                cell = rows.setdefault(codec, {"n": 0, "match": 0, "mismatch": 0, "err": 0})
                cell["n"] += 1
                cell["err"] += 1
        return pa.table(
            {
                "codec": pa.array(list(rows)),
                "n": pa.array([rows[k]["n"] for k in rows], pa.int64()),
                "n_dur_match": pa.array([rows[k]["match"] for k in rows], pa.int64()),
                "n_dur_mismatch": pa.array(
                    [rows[k]["mismatch"] for k in rows], pa.int64()
                ),
                "n_decode_err": pa.array([rows[k]["err"] for k in rows], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(audit, batch_format="pyarrow", batch_size=8)
        .groupby("codec")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("n_dur_match", alias_name="n_dur_match"),
            Sum("n_dur_mismatch", alias_name="n_dur_mismatch"),
            Sum("n_decode_err", alias_name="n_decode_err"),
        )
        .to_pandas()
        .sort_values("codec")
        .reset_index(drop=True)
    )
    for c in out.columns:
        if c != "codec":
            out[c] = out[c].astype("int64")
    return out
