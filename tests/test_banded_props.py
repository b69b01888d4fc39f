"""Property-based checks for the round-5 banded family and the
bytes-bounded result cache."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings, strategies as st

from pdfrust_ray.pdfref.extract import LruCache

_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def _write_docs(tmpdir: str, texts: list[str]) -> str:
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(tmpdir, "documents.parquet"))
    return tmpdir


@pytest.mark.parametrize("n_bands", [4, 8, 16])
def test_banded_pigeonhole_random_corpora(ray_session, tmp_path, n_bands):
    """On a random near-dup-heavy corpus: bins < n_bands identical to
    the exact landscape, every bin a lower bound."""
    from pdfrust_ray.stages.dedup import (
        simhash_hamming_histogram,
        simhash_hamming_histogram_banded,
    )

    rng = np.random.RandomState(n_bands)
    texts = []
    for i in range(60):
        base = rng.choice(_WORDS, size=12)
        texts.append(" ".join(base))
        if i % 3 == 0:  # planted near-dup: one-word mutation
            mut = base.copy()
            mut[rng.randint(len(mut))] = rng.choice(_WORDS)
            texts.append(" ".join(mut))
    d = _write_docs(str(tmp_path), texts)

    exact = simhash_hamming_histogram(d).set_index("hamming")["n_pairs"]
    b = (
        simhash_hamming_histogram_banded(d, n_bands=n_bands)
        .set_index("hamming")["n_pairs"]
    )
    for h in range(n_bands):
        assert int(b.get(h, 0)) == int(exact.get(h, 0)), (n_bands, h)
    assert all(int(b[h]) <= int(exact.get(h, 0)) for h in b.index)


def test_band_census_mass_identity(ray_session, tmp_path):
    """sum over bins of n_buckets at each size must reconstruct the
    per-band doc mass: sum(sizes) == n_docs for every band — checked
    via n_pairs + n_buckets consistency against brute-force python."""
    from pdfrust_ray.functions.minhash import simhash64
    from pdfrust_ray.stages.dedup import simhash_band_skew_census

    rng = np.random.RandomState(7)
    texts = [" ".join(rng.choice(_WORDS, size=6)) for _ in range(80)]
    d = _write_docs(str(tmp_path), texts)
    out = simhash_band_skew_census(d, n_bands=4)

    sigs = np.array([simhash64(x) for x in texts], dtype=np.uint64)
    for band in range(4):
        keys = (sigs >> np.uint64(band * 16)) & np.uint64(0xFFFF)
        _, counts = np.unique(keys, return_counts=True)
        want_pairs = int((counts.astype(np.int64) * (counts - 1) // 2).sum())
        g = out[out["band"] == band]
        assert int(g["n_pairs"].sum()) == want_pairs
        # bucket counts by log2 bin
        lg = np.array([int(c).bit_length() - 1 for c in counts])
        for bin_, cnt in zip(*np.unique(lg, return_counts=True)):
            assert (
                int(g.loc[g["log2_size"] == bin_, "n_buckets"].sum()) == cnt
            )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("abcdefgh"), st.integers(1, 50)),
        min_size=0,
        max_size=40,
    ),
    st.integers(10, 120),
)
def test_bytes_lru_invariants(ops, cap):
    """size always equals the sum of live costs and never exceeds the
    cap; a get() returns the last value put for the key (if alive)."""
    c = LruCache(cap)
    last = {}
    for i, (k, cost) in enumerate(ops):
        c.put(k, i, cost)
        if cost <= cap:
            last[k] = i
        assert c.size == sum(e[0] for e in c.d.values())
        assert c.size <= cap
    for k in last:
        v = c.get(k)
        assert v is None or v == last[k]
