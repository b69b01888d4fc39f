"""Compressed-audio WAV codec tests: G.711 mu-law and IMA ADPCM.

Pins: mu-law code-level idempotence (255 of 256 codes — 0x7F is the
negative-zero code, which decodes to 0 and re-encodes as the positive
zero 0xFF, per the two-zero-codes property of G.711), textbook SNR
bounds on a sine (G.711 ~38 dB, IMA ADPCM ~25-30 dB), an exact
hand-computed ADPCM nibble vector, container parsing (fact/odd-sized
chunks), and the decode path through PixelDecoder."""

import numpy as np
import pyarrow as pa
import pytest

from pdfrust_ray.functions.audio import (
    decode_wav_any,
    encode_wav_ima_adpcm,
    encode_wav_mulaw,
    ima_adpcm_decode,
    ima_adpcm_encode_block,
    mulaw_decode,
    mulaw_encode,
)


def _snr(ref: np.ndarray, out: np.ndarray) -> float:
    err = out.astype(float) - ref.astype(float)
    return 10 * np.log10(np.mean(ref.astype(float) ** 2) / np.mean(err**2))


def test_mulaw_code_idempotence():
    codes = np.arange(256, dtype=np.uint8)
    rt = mulaw_encode(mulaw_decode(codes))
    mismatch = np.nonzero(rt != codes)[0]
    assert mismatch.tolist() == [127]  # negative zero -> positive zero
    assert rt[127] == 255


def test_mulaw_sine_snr():
    rate = 8000
    t = np.arange(rate)
    sig = (12000 * np.sin(2 * np.pi * 440 * t / rate)).astype(np.int16)
    dec, r = decode_wav_any(encode_wav_mulaw(sig, rate))
    assert r == rate
    assert dec.shape == (rate, 1)
    assert _snr(sig, dec[:, 0]) > 35.0  # G.711 delivers ~38 dB


def test_adpcm_sine_snr_and_block_padding():
    rate = 8000
    t = np.arange(rate + 137)  # non-multiple of the block size
    sig = (9000 * np.sin(2 * np.pi * 300 * t / rate)).astype(np.int16)
    dec, r = decode_wav_any(encode_wav_ima_adpcm(sig, rate))
    assert r == rate
    n = len(sig)
    assert len(dec) >= n  # tail block pads with the last sample
    assert _snr(sig, dec[:n, 0]) > 20.0


def test_adpcm_exact_nibble_vector():
    # hand-computed: predictor 0, index 0 (step 7):
    #   nibble 2 (+step>>1=3, delta=0+3+0(step>>3=0)) -> wait: delta
    #   base = step>>3 = 0; code 2 adds step>>1 = 3 -> sample 3, index
    #   goes 0 + (-1) -> 0 (clipped)
    #   nibble 4 (+step=7, base 0) -> 3+7 = 10, index 0+2=2 (step 9)
    #   nibble 8+4 (-(9 + 9>>3=1)) -> 10-10 = 0, index 2+2=4
    out = ima_adpcm_decode([2, 4, 12], 0, 0)
    assert out.tolist() == [3, 10, 0]
    # the index clamps at 88 too: from 84 the three +8 nibbles (7, 7, 15)
    # pin it at 88, then 0, 8, 3, 11 step it down to 87, 86, 85, 84
    out = ima_adpcm_decode([7, 7, 15, 0, 8, 3, 11], 0, 84)
    assert out.tolist() == [32767, 32767, -28669, -24574, -28298, -4599, -26142]
    loud = np.array([0, 30000, -30000, 30000, -30000, 0, 0, 0], np.int16)
    assert ima_adpcm_encode_block(loud, 0, 80) == ([7, 15, 7, 15, 4, 8, 0], 3723, 86)


def test_rejects_malformed():
    with pytest.raises(ValueError, match="not a RIFF"):
        decode_wav_any(b"OggS" + bytes(40))
    with pytest.raises(ValueError, match="block_samples"):
        encode_wav_ima_adpcm(np.zeros(100, np.int16), block_samples=10)
    with pytest.raises(ValueError, match="empty"):
        encode_wav_ima_adpcm(np.zeros(0, np.int16))


def test_corrupt_payloads_become_error_rows(ray_session):
    # struct/zlib errors from truncated containers and corrupt deflate
    # streams must surface as error rows, never actor crashes
    import zlib as _zlib  # noqa: F401

    from pdfrust_ray.functions.png import encode_png
    from pdfrust_ray.stages.multimodal import MEDIA_SCHEMA, PixelDecoder

    png = bytearray(encode_png(np.zeros((4, 4, 3), np.uint8)))
    png[40] ^= 0xFF  # corrupt the IDAT zlib stream
    wav = encode_wav_mulaw(np.zeros(100, np.int16))[:20]  # truncated fmt
    rows = {
        "media_id": [0, 1, 2],
        "kind": ["image", "audio", "image"],
        "payload": [bytes(png), wav, b"\xff\xd8\xff\xc0\x00\x03"],
        "width": [4, 0, 0],
        "height": [4, 0, 0],
        "duration_ms": [0, 0, 0],
    }
    out = PixelDecoder()(pa.Table.from_pydict(rows, schema=MEDIA_SCHEMA)).to_pydict()
    assert all(s.startswith("error:") for s in out["decode_status"])


def test_pixel_decoder_compressed_audio(ray_session):
    from pdfrust_ray.stages.multimodal import (
        MEDIA_SCHEMA,
        PixelDecoder,
        media_features,
        synthesize_media_table,
    )

    rate = 16000
    t = np.arange(rate // 2)
    sig = (8000 * np.sin(2 * np.pi * 500 * t / rate)).astype(np.int16)
    rows = {
        "media_id": [0, 1],
        "kind": ["audio", "audio"],
        "payload": [encode_wav_mulaw(sig, rate), encode_wav_ima_adpcm(sig, rate)],
        "width": [0, 0],
        "height": [0, 0],
        "duration_ms": [500, 500],
    }
    out = PixelDecoder()(pa.Table.from_pydict(rows, schema=MEDIA_SCHEMA)).to_pydict()
    assert out["decode_status"] == ["ok", "ok"]
    assert out["duration_ms"][0] == 500
    # near-identical signals -> near-identical features across codecs
    f0 = np.asarray(out["features"][0])
    f1 = np.asarray(out["features"][1])
    assert np.abs(f0 - f1).max() < 0.05

    t2 = synthesize_media_table(n=36)
    feats = media_features(t2).to_pandas()
    assert (feats["decode_status"] == "ok").all()
    fmt_tags = {
        bytes(r.payload)[20:22]
        for r in t2.to_pandas().itertuples()
        if r.kind == "audio"
    }
    # corpus exercises PCM (1), mu-law (7) and IMA ADPCM (0x11)
    assert {b"\x01\x00", b"\x07\x00", b"\x11\x00"} <= fmt_tags
