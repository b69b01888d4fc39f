"""Ray Data stages for the transcript extraction pipeline.

Design (SURVEY.md §3.4):
  - `ExtractTurns`: the extraction stage, mounted as a Ray Data *task*
    stage that runs in the session's pooled workers. Its only state is
    a memo: the cross-payload CMap LRU (state the reference keeps
    per-process, SURVEY §2.4/ST5) and the whole-result LRU. Each worker
    process holds at most one instance, owned by the execution whose
    token built it (see `stage_instance`). `__call__` receives a
    pyarrow batch and emits the extracted-output batch. Parsing is
    row-logical inside (a content stream is sub-row data — there is no
    per-operator Ray stage, SURVEY §2.5).
  - `InfoTurns`: the stateless metadata stage, also a task stage.

All extraction errors become rows, never worker crashes, so Ray task
retries only ever handle infra faults.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.payload import INFO_FIELDS, INFO_SCHEMA, OUTPUT_SCHEMA, RESULT_FIELDS, extract_row
from ..pdfref.extract import LruCache


def add_payload_len(batch: pa.Table) -> pa.Table:
    """Stateless size probe: payload_len in bytes (UTF-8). Not a stage
    of the extraction plan; kept because perfbench's serial pass times it."""
    if "payload_len" in batch.column_names:
        return batch
    return batch.append_column(
        "payload_len", pc.cast(pc.binary_length(pc.cast(batch["text"], pa.binary())), pa.int64())
    )


# per-instance cache bounds: CMap entries (cost 1 each), whole-result bytes
CMAP_CACHE_SIZE = 512
RESULT_CACHE_BYTES = 64 << 20


class ExtractTurns:
    """The extraction stage (a map_batches callable).

    The CMap cache is keyed by the decoded CMap stream bytes and shared
    across the payloads one instance sees, mirroring the reference's
    per-process font/CMap state without any cross-worker coordination.

    On top of the sub-document CMap memo sits a whole-result LRU keyed
    by md5(payload): extraction is a pure function of
    (payload bytes, mode, spec_mode), and real transcript corpora
    repeat payloads across turns (quoted documents, re-sent
    attachments), so a repeated payload costs one hash instead of a
    full parse. Bounded in BYTES (payload + extracted text) per
    instance; parity is unaffected by construction — the cache stores
    the exact result the parse produced. Hit/miss counters stay on the
    instance.

    Built with a `token`, an instance is the handle of a task stage: it
    pickles as (token, mode, spec_mode) only, and unpickles to the
    receiving process's own instance for that token (`stage_instance`),
    so every task of one execution on one worker shares one memo."""

    def __init__(self, mode: str = "text", spec_mode: bool = False, token: str | None = None):
        self.mode = mode
        self.spec_mode = spec_mode
        self.token = token
        self.cmap_cache = LruCache(CMAP_CACHE_SIZE)
        self.result_cache = LruCache(RESULT_CACHE_BYTES)
        self.result_cache_hits = 0
        self.result_cache_misses = 0

    def __reduce__(self):
        return (stage_instance, (self.token, self.mode, self.spec_mode))

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib

        convs = batch["conv_id"].to_pylist()
        turns = batch["turn_idx"].to_pylist()
        texts = batch["text"].to_pylist()
        results = [None] * len(texts)
        mode = self.mode
        cache = self.cmap_cache
        spec = self.spec_mode
        rcache = self.result_cache
        for i, text in enumerate(texts):
            k = hashlib.md5(text.encode("utf-8", "surrogatepass")).digest()
            r = rcache.get(k)
            if r is None:
                self.result_cache_misses += 1
                r = extract_row(text, mode, cmap_cache=cache, spec_mode=spec)
                rcache.put(k, r, len(text) + len(r["extracted_text"]) + 96)
            else:
                self.result_cache_hits += 1
            results[i] = r
        cols = [[r[f] for r in results] for f in RESULT_FIELDS]
        return pa.Table.from_arrays([convs, turns, *cols], schema=OUTPUT_SCHEMA)


# this process's task-stage memo: (token, instance) of the last
# execution that ran an ExtractTurns task here
_stage: tuple[str, ExtractTurns] | None = None


def stage_instance(token: str, mode: str, spec_mode: bool) -> ExtractTurns:
    """This process's ExtractTurns for `token`. A new token replaces the
    instance, so no cache entry crosses executions. A Ray worker runs
    one task at a time, so the check and the swap need no lock."""
    global _stage
    if _stage is None or _stage[0] != token:
        _stage = (token, ExtractTurns(mode=mode, spec_mode=spec_mode, token=token))
    return _stage[1]


class InfoTurns:
    """Stateless metadata extraction (P7, info.rs:23-75): per PDF turn,
    read the trailer Info dict. Non-PDF payloads yield parse_status
    "skipped:<kind>"; PDFs without an Info entry yield "error:Info".
    Mounted as a task stage by passing an instance:
    `map_batches(InfoTurns(), ...)`."""

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
        return pa.Table.from_arrays(
            [convs, turns, *(cols[f] for f in INFO_FIELDS), statuses], schema=INFO_SCHEMA
        )
