"""Ray Data stages for the transcript extraction pipeline.

Design (SURVEY.md §3.4):
  - `ExtractTurns`: the stateful actor-pool stage. One instance per
    actor; holds the cross-payload CMap LRU cache (state the reference
    keeps per-process, SURVEY §2.4/ST5). `__call__` receives a
    pyarrow batch and emits the extracted-output batch. Parsing is
    row-logical inside (a content stream is sub-row data — there is no
    per-operator Ray stage, SURVEY §2.5).

All extraction errors become rows, never worker crashes, so Ray task
retries only ever handle infra faults.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.payload import extract_row
from ..pdfref.extract import LruCache

OUTPUT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("payload_kind", pa.string()),
        ("extracted_text", pa.large_string()),
        ("parse_status", pa.string()),
        ("n_pages", pa.int32()),
        ("bytes_decoded", pa.int64()),
        ("error", pa.string()),
    ]
)


def add_payload_len(batch: pa.Table) -> pa.Table:
    """Stateless size probe: payload_len in bytes (UTF-8). Not a stage
    of the extraction plan; kept because perfbench's serial pass times it."""
    if "payload_len" in batch.column_names:
        return batch
    return batch.append_column(
        "payload_len", pc.cast(pc.binary_length(pc.cast(batch["text"], pa.binary())), pa.int64())
    )


class BytesLruCache:
    """LRU bounded by total cached BYTES, not entry count — the right
    bound for whole-result caching where one tracemonkey-sized payload
    is worth thousands of small ones. An item costlier than the cap is
    simply not cached."""

    __slots__ = ("cap", "size", "d")

    def __init__(self, cap_bytes: int):
        self.cap = cap_bytes
        self.size = 0
        self.d: dict = {}

    def get(self, key):
        e = self.d.pop(key, None)
        if e is None:
            return None
        self.d[key] = e
        return e[1]

    def put(self, key, cost: int, value) -> None:
        if cost > self.cap:
            return
        old = self.d.pop(key, None)
        if old is not None:
            self.size -= old[0]
        while self.size + cost > self.cap and self.d:
            k0 = next(iter(self.d))
            self.size -= self.d.pop(k0)[0]
        self.d[key] = (cost, value)
        self.size += cost


# per-actor cache bounds: CMap entries, and whole-result bytes
CMAP_CACHE_SIZE = 512
RESULT_CACHE_BYTES = 64 << 20


class ExtractTurns:
    """Actor-pool extraction stage (map_batches callable class).

    Stateful setup happens once per actor: the CMap cache (keyed by the
    decoded CMap stream bytes, shared across payloads within the actor)
    — mirroring the reference's per-process font/CMap state without any
    cross-actor coordination.

    On top of the sub-document CMap memo sits a whole-result LRU keyed
    by md5(payload): extraction is a pure function of
    (payload bytes, mode, spec_mode), and real transcript corpora
    repeat payloads across turns (quoted documents, re-sent
    attachments), so a repeated payload costs one hash instead of a
    full parse. Bounded in BYTES (payload + extracted text) per actor;
    parity is unaffected by construction — the cache stores the exact
    result the parse produced. Hit/miss counters stay on the actor for
    observability."""

    def __init__(self, mode: str = "text", spec_mode: bool = False):
        self.mode = mode
        self.spec_mode = spec_mode
        self.cmap_cache = LruCache(CMAP_CACHE_SIZE)
        self.result_cache = BytesLruCache(RESULT_CACHE_BYTES)
        self.result_cache_hits = 0
        self.result_cache_misses = 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib

        convs = batch["conv_id"].to_pylist()
        turns = batch["turn_idx"].to_pylist()
        texts = batch["text"].to_pylist()
        n = len(texts)
        kinds = [""] * n
        outs = [""] * n
        statuses = [""] * n
        pages = [0] * n
        bdec = [0] * n
        errs = [""] * n
        mode = self.mode
        cache = self.cmap_cache
        spec = self.spec_mode
        rcache = self.result_cache
        for i in range(n):
            k = hashlib.md5(texts[i].encode("utf-8", "surrogatepass")).digest()
            r = rcache.get(k)
            if r is None:
                self.result_cache_misses += 1
                r = extract_row(texts[i], mode, cmap_cache=cache, spec_mode=spec)
                rcache.put(k, len(texts[i]) + len(r["extracted_text"]) + 96, r)
            else:
                self.result_cache_hits += 1
            kinds[i] = r["payload_kind"]
            outs[i] = r["extracted_text"]
            statuses[i] = r["parse_status"]
            pages[i] = r["n_pages"]
            bdec[i] = r["bytes_decoded"]
            errs[i] = r["error"]
        return pa.table(
            {
                "conv_id": pa.array(convs, pa.string()),
                "turn_idx": pa.array(turns, pa.int32()),
                "payload_kind": pa.array(kinds, pa.string()),
                "extracted_text": pa.array(outs, pa.large_string()),
                "parse_status": pa.array(statuses, pa.string()),
                "n_pages": pa.array(pages, pa.int32()),
                "bytes_decoded": pa.array(bdec, pa.int64()),
                "error": pa.array(errs, pa.string()),
            }
        )


INFO_FIELDS = ("title", "author", "creator", "producer", "creation_date", "mod_date")


class InfoTurns:
    """Actor-pool metadata extraction (P7, info.rs:23-75): per PDF turn,
    read the trailer Info dict. Non-PDF payloads yield parse_status
    "skipped:<kind>"; PDFs without an Info entry yield "error:Info"."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.payload import detect_kind, payload_bytes
        from ..pdfref.errors import ParseError
        from ..pdfref.extract import extract_info

        convs = batch["conv_id"].to_pylist()
        turns = batch["turn_idx"].to_pylist()
        texts = batch["text"].to_pylist()
        cols = {f: [] for f in INFO_FIELDS}
        statuses = []
        for t in texts:
            kind = detect_kind(t)
            if kind != "pdf":
                for f in INFO_FIELDS:
                    cols[f].append(None)
                statuses.append(f"skipped:{kind}")
                continue
            try:
                info = extract_info(payload_bytes(t))
                for f in INFO_FIELDS:
                    cols[f].append(info[f])
                statuses.append("ok")
            except (ParseError, ValueError) as exc:
                for f in INFO_FIELDS:
                    cols[f].append(None)
                kind_name = exc.kind if isinstance(exc, ParseError) else "B85"
                statuses.append(f"error:{kind_name}")
        out = {
            "conv_id": pa.array(convs, pa.string()),
            "turn_idx": pa.array(turns, pa.int32()),
        }
        for f in INFO_FIELDS:
            out[f] = pa.array(cols[f], pa.string())
        out["parse_status"] = pa.array(statuses, pa.string())
        return pa.table(out)
