"""Whole-result LRU in ExtractTurns: repeated payloads cost one hash,
results stay byte-identical, and the bytes bound actually evicts."""

import pyarrow as pa

from pdfrust_ray.fixtures.pdfgen import pdf_hello
from pdfrust_ray.functions.payload import extract_row
from pdfrust_ray.stages.extractors import BytesLruCache, ExtractTurns


def _batch(texts):
    return pa.table(
        {
            "conv_id": pa.array([f"c{i}" for i in range(len(texts))]),
            "turn_idx": pa.array(list(range(len(texts))), pa.int32()),
            "text": pa.array(texts),
        }
    )


def test_repeat_payloads_hit_cache_and_match():
    pdf = pdf_hello("rc").decode("latin-1")
    texts = [pdf, "plain words here", pdf, pdf, "<html><body>x</body></html>", pdf]
    ex = ExtractTurns(mode="text")
    got = ex(_batch(texts))
    # uncached reference: extract_row on every row
    for i, t in enumerate(texts):
        r = extract_row(t, "text")
        for col in ("payload_kind", "extracted_text", "parse_status", "n_pages", "bytes_decoded", "error"):
            assert got[col][i].as_py() == r[col], (i, col)
    # 4 copies of the pdf -> 3 hits; repeated plain/html strings too
    assert ex.result_cache_hits == 3
    assert ex.result_cache_misses == 3
    # second batch: every payload already cached
    assert ex(_batch(texts)).equals(got)
    assert ex.result_cache_hits == 9


def test_cache_is_per_mode_instance():
    pdf = pdf_hello("rc").decode("latin-1")
    a = ExtractTurns(mode="text")(_batch([pdf]))
    b = ExtractTurns(mode="chars")(_batch([pdf]))
    assert a["extracted_text"][0].as_py() != b["extracted_text"][0].as_py()


def test_bytes_lru_evicts_by_cost():
    c = BytesLruCache(100)
    c.put("a", 40, 1)
    c.put("b", 40, 2)
    assert c.get("a") == 1  # refresh a
    c.put("d", 40, 4)  # evicts b (LRU), not a
    assert c.get("b") is None and c.get("a") == 1 and c.get("d") == 4
    assert c.size == 80
    c.put("huge", 1000, 9)  # over cap: not cached, nothing evicted
    assert c.get("huge") is None and c.size == 80
    c.put("a", 40, 11)  # re-put replaces cost+value
    assert c.get("a") == 11 and c.size == 80
