"""The end-to-end corpus build: extraction -> clean -> dedup -> pack.

Everything upstream exists as an individually-oracled operator; this
module chains them into the ONE pipeline a pretraining-data owner
actually runs over a transcript dump, with a single chained SQL twin:

  flagship extraction (mode=text, full Ray pipeline, one task
  stage)                              [oracle: the frozen golden]
  -> parse_status == 'ok', non-empty text
  -> quality_score(extracted_text) >= cut        [quality twin expr]
  -> exact dedup on md5(extracted_text), keep the (conv_id, turn_idx)
     minimum                                   [ROW_NUMBER twin]
  -> greedy sequence packing into token-budget packs, hash-bucketed
     (coordination-free)              [pack_sequences recursion twin]

The oracle substitutes the extraction stage with the frozen golden
parquet (the same anchoring every extract_* query uses — the golden
itself is pinned by byte parity against the reference binary), then
replays filter, dedup and packing in SQL, so the WHOLE chain is
value-exact end-to-end.

Scale shape: extraction is the flagship (streaming, warm task
workers); the clean/score stage is a zero-shuffle scan (texts never
leave their task after the digest + token count are computed); dedup shuffles
16-byte digests + keys on a coarse shard key (64 python dispatches,
not one per digest); packing shuffles the same skinny rows once more
on the pack bucket, every missing bucket in one execution. The full
text crosses the wire zero times after extraction.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

_DEDUP_SHARDS = 64


def _make_prep(cut: float, n_buckets: int):
    """Stage-B kernel: filter (ok, non-empty, quality >= cut), digest,
    token-count and key each surviving turn. Texts are dropped HERE —
    nothing downstream ever ships them."""
    from ..functions.md5vec import md5_prefix_u32
    from ..functions.textstats import quality_score, token_count

    def prep(t: pa.Table) -> pa.Table:
        convs = t["conv_id"].to_pylist()
        idxs = t["turn_idx"].to_pylist()
        texts = t["extracted_text"].to_pylist()
        stats = t["parse_status"].to_pylist()
        oc, oi, dig, dsh, ntok, bkt = [], [], [], [], [], []
        for c, i, x, s in zip(convs, idxs, texts, stats):
            if s != "ok" or x == "" or quality_score(x) < cut:
                continue
            d = hashlib.md5(x.encode("utf-8")).hexdigest()
            oc.append(c)
            oi.append(int(i))
            dig.append(d)
            dsh.append(int(d[:8], 16) % _DEDUP_SHARDS)
            ntok.append(token_count(x))
        if oc:
            bkt = (
                md5_prefix_u32([f"{c}:{i}".encode() for c, i in zip(oc, oi)])
                % n_buckets
            ).astype(np.int64)
        return pa.table(
            {
                "conv_id": pa.array(oc, pa.string()),
                "turn_idx": pa.array(oi, pa.int64()),
                "digest": pa.array(dig, pa.string()),
                "dshard": pa.array(dsh, pa.int64()),
                "n_tokens": pa.array(ntok, pa.int64()),
                "bucket": pa.array(
                    bkt if len(oc) else [], pa.int64()
                ),
            }
        )

    return prep


def _dedup_shard(g: pd.DataFrame) -> pd.DataFrame:
    g = g.sort_values(
        ["digest", "conv_id", "turn_idx"], kind="mergesort"
    ).drop_duplicates("digest", keep="first")
    return g[["conv_id", "turn_idx", "n_tokens", "bucket"]]


def _deduped(ext, quality_cut_centi: int, n_buckets: int):
    """filter -> digest -> dedup over extracted rows: one row per
    distinct kept text, (conv_id, turn_idx, n_tokens, bucket)."""
    return (
        ext.map_batches(
            _make_prep(quality_cut_centi / 100.0, n_buckets),
            batch_format="pyarrow",
        )
        .groupby("dshard")
        .map_groups(_dedup_shard, batch_format="pandas")
    )


def _make_pack(budget: int):
    from ..functions.textstats import greedy_pack

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(
            drop=True
        )
        g["pack_id"], g["pack_pos"] = greedy_pack(g["n_tokens"], budget)
        return g[["conv_id", "turn_idx", "n_tokens", "bucket", "pack_id", "pack_pos"]]

    return pack


def corpus_build_from_extracted(
    ext,
    quality_cut_centi: int = 30,
    budget: int = 256,
    n_buckets: int = 16,
) -> pd.DataFrame:
    """The post-extraction chain (filter -> dedup -> pack) over an
    already-extracted Dataset — shared by the full pipeline and by
    callers that hold the extraction output already (e.g. the driver
    contract, which memoizes ONE t2 extraction across all extract-*
    queries)."""
    out = (
        _deduped(ext, quality_cut_centi, n_buckets)
        .groupby("bucket")
        .map_groups(_make_pack(budget), batch_format="pandas")
        .to_pandas()
    )
    for c in out.columns:
        if c != "conv_id":
            out[c] = out[c].astype("int64")
    return out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def corpus_build_from_extracted_sql(
    golden_glob: str,
    quality_cut_centi: int = 30,
    budget: int = 256,
    n_buckets: int = 16,
) -> str:
    """Chained exact twin over the frozen golden: quality expression
    (the quality_scores twin transplanted onto extracted_text), md5
    ROW_NUMBER dedup, and the pack_sequences greedy recursion. `o` is
    MATERIALIZED: the recursion joins it at every step, and inlined it
    re-ran the whole quality/dedup chain each time (t2: 292 s -> ~4 s)."""
    from ..functions.textstats import STOPWORDS

    sw = ", ".join(f"'{w}'" for w in sorted(STOPWORDS["en"]))
    cut = quality_cut_centi
    return rf"""
WITH RECURSIVE ext AS MATERIALIZED (
    SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx, extracted_text
    FROM read_parquet('{golden_glob}')
    WHERE parse_status = 'ok' AND extracted_text <> ''
), qb AS (
    SELECT conv_id, turn_idx,
           CAST(length(extracted_text) AS DOUBLE) AS n,
           CAST(length(regexp_extract_all(extracted_text, '[^\w\s]'))
                AS DOUBLE) AS punct,
           regexp_extract_all(lower(extracted_text), '[A-Za-zÀ-ɏ'']+')
               AS words
    FROM ext
), qc AS (
    SELECT conv_id, turn_idx, n, punct,
           CAST(len(words) AS DOUBLE) AS nw,
           CAST(len(list_filter(words, w -> list_contains([{sw}], w)))
                AS DOUBLE) AS nsw,
           CASE WHEN len(words) > 0
                THEN CAST(list_sum(list_transform(words, w -> length(w)))
                          AS DOUBLE) / CAST(len(words) AS DOUBLE)
                ELSE 0.0 END AS mean_len
    FROM qb
), q AS (
    SELECT conv_id, turn_idx,
           CASE WHEN n = 0 THEN 0.0 ELSE round(
             0.35 * (least(n, 2000.0) / 2000.0)
           + 0.25 * (1.0 - least((punct / n) * 4.0, 1.0))
           + 0.25 * (CASE WHEN nw > 0 THEN least((4.0 * nsw) / nw, 1.0)
                          ELSE 0.0 END)
           + 0.15 * (CASE WHEN nw > 0 THEN
                       (CASE WHEN mean_len >= 3.0 AND mean_len <= 10.0
                             THEN 1.0 ELSE 0.5 END)
                     ELSE 0.0 END)
           , 6) END AS quality
    FROM qc
), kept AS (
    SELECT e.conv_id, e.turn_idx, e.extracted_text,
           CAST(length(string_split_regex(e.extracted_text, '\s+'))
                AS BIGINT) AS n_tokens
    FROM ext e JOIN q USING (conv_id, turn_idx)
    WHERE q.quality >= {cut} / 100.0
), dd AS (
    SELECT conv_id, turn_idx, n_tokens,
           row_number() OVER (PARTITION BY md5(extracted_text)
                              ORDER BY conv_id, turn_idx) AS rn
    FROM kept
), u AS (
    SELECT conv_id, turn_idx, n_tokens,
           CAST(CAST(('0x' || substr(md5(conv_id || ':'
                    || CAST(turn_idx AS VARCHAR)), 1, 8)) AS UBIGINT)
                % {n_buckets} AS BIGINT) AS bucket
    FROM dd WHERE rn = 1
), o AS MATERIALIZED (
    SELECT conv_id, turn_idx, n_tokens, bucket,
           row_number() OVER (PARTITION BY bucket
                              ORDER BY conv_id, turn_idx) AS rn
    FROM u
), s AS (
    SELECT conv_id, turn_idx, n_tokens, bucket, rn,
           CAST(0 AS BIGINT) AS pack_id,
           CAST(0 AS BIGINT) AS pack_pos,
           n_tokens AS acc
    FROM o WHERE rn = 1
    UNION ALL
    SELECT o.conv_id, o.turn_idx, o.n_tokens, o.bucket, o.rn,
           CASE WHEN s.acc + o.n_tokens > {budget}
                THEN s.pack_id + 1 ELSE s.pack_id END,
           CASE WHEN s.acc + o.n_tokens > {budget}
                THEN 0 ELSE s.pack_pos + 1 END,
           CASE WHEN s.acc + o.n_tokens > {budget}
                THEN o.n_tokens ELSE s.acc + o.n_tokens END
    FROM s JOIN o ON o.bucket = s.bucket AND o.rn = s.rn + 1
)
SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx, n_tokens, bucket,
       pack_id, pack_pos
FROM s ORDER BY conv_id, turn_idx
    """


def _make_pack_writer(budget: int, tmps: dict):
    """map_groups UDF: pack one bucket, write it to its tmp dir
    tmps[bucket] on the worker, and return only its counters (bucket,
    rows, n_packs)."""
    pack = _make_pack(budget)

    def write(g: pd.DataFrame) -> pd.DataFrame:
        p = pack(g)
        b = int(p["bucket"].iloc[0])
        pq.write_table(
            pa.Table.from_pandas(p, preserve_index=False),
            os.path.join(tmps[b], "part-0.parquet"),
        )
        return pd.DataFrame(
            {"bucket": [b], "rows": [len(p)], "n_packs": [int(p["pack_id"].max()) + 1]}
        )

    return write


def run_corpus_build(
    corpus_dir: str,
    out_dir: str,
    quality_cut_centi: int = 30,
    budget: int = 256,
    n_buckets: int = 16,
    concurrency=None,
    resume: bool = True,
    group_size: int = 16,
) -> dict:
    """The deployable, checkpoint-resumable form of the build: three
    manifest-gated stages under `out_dir`, each auditable back to its
    inputs and each skippable on re-run.

      stage_extract/  group=NNNN per input-shard group — the flagship
                      run_extraction (its own lineage manifests,
                      group-level resume; the expensive stage).
      stage_dedup/    group=0000 — the filter+digest+dedup reduce,
                      materialized as skinny (conv_id, turn_idx,
                      n_tokens, bucket) parquet. One manifest: the
                      whole reduce is a single shuffle, cheap next to
                      extraction, so the checkpoint granularity is the
                      stage (at 100 TB you would shard this stage's
                      manifest by dshard the same way).
      stage_pack/     group=NNNN per pack bucket — bucket-level
                      resume: a re-run packs ONLY the missing buckets,
                      in one execution (parquet filter pushdown,
                      groupby bucket) whose workers write the files
                      and return counters; each bucket commits alone.

    Crash semantics are manifest-last everywhere (state/manifest.py):
    data renamed into place, then the manifest; a crash between the
    two redoes that group idempotently. Manifests do not hash upstream
    content — re-running after changing the INPUT corpus requires
    resume=False (documented limitation, same as the flagship); a
    resume with other quality_cut_centi, n_buckets or budget than the
    committed manifests raises ValueError.

    Returns a summary dict (rows per stage, packs, what was resumed).
    """
    import glob as _glob
    import shutil

    import pyarrow.dataset as pds
    import ray.data as _rd

    from ..state import manifest
    from .extract_pipeline import ENGINE_VERSION, run_extraction

    ext_dir = os.path.join(out_dir, "stage_extract")
    ded_dir = os.path.join(out_dir, "stage_dedup")
    pack_dir = os.path.join(out_dir, "stage_pack")
    asked = dict(quality_cut_centi=quality_cut_centi, n_buckets=n_buckets, budget=budget)
    for m in manifest.read_all(ded_dir) + manifest.read_all(pack_dir) if resume else []:
        for k in asked.keys() & m.keys():
            if m[k] != asked[k]:
                raise ValueError(
                    f"{out_dir} was built with {k}={m[k]}, not {asked[k]}; "
                    "resume=False rebuilds it"
                )
    os.makedirs(ded_dir, exist_ok=True)
    os.makedirs(pack_dir, exist_ok=True)

    m_ext = run_extraction(
        corpus_dir,
        ext_dir,
        mode="text",
        group_size=group_size,
        concurrency=concurrency,
        resume=resume,
    )

    ext_files = sorted(_glob.glob(os.path.join(ext_dir, "group=*", "*.parquet")))
    dedup_resumed = resume and 0 in manifest.completed_groups(ded_dir)
    if not dedup_resumed:
        dd = _deduped(
            _rd.read_parquet(
                ext_files,
                columns=["conv_id", "turn_idx", "extracted_text", "parse_status"],
            ),
            quality_cut_centi,
            n_buckets,
        )
        tmp = os.path.join(out_dir, "_tmp_dedup")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp, exist_ok=True)
        dd.write_parquet(tmp)
        manifest.commit_group(
            ded_dir,
            0,
            tmp,
            {
                "stage": "dedup",
                "rows": pds.dataset(tmp, format="parquet").count_rows(),
                "quality_cut_centi": quality_cut_centi,
                "n_buckets": n_buckets,
                "lineage": {"inputs": ext_files},
                "engine_version": ENGINE_VERSION,
            },
        )
    ded_files = sorted(
        _glob.glob(os.path.join(manifest.group_dir(ded_dir, 0), "*.parquet"))
    )
    (m_ded,) = manifest.read_all(ded_dir)

    done_buckets = manifest.completed_groups(pack_dir) if resume else set()
    missing = [b for b in range(n_buckets) if b not in done_buckets]
    tmps = {b: os.path.join(out_dir, f"_tmp_pack_{b}") for b in missing}
    for tmp in tmps.values():  # a crashed run's leftovers must never be committed
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
    counts = {}
    if missing and m_ded["rows"]:
        packed = (
            _rd.read_parquet(ded_files, filter=pds.field("bucket").isin(missing))
            .groupby("bucket")
            .map_groups(_make_pack_writer(budget, tmps), batch_format="pandas")
        )
        counts = {
            int(r["bucket"]): (int(r["rows"]), int(r["n_packs"])) for r in packed.take_all()
        }
    for b in missing:
        rows, n_packs = counts.get(b, (0, 0))
        manifest.commit_group(
            pack_dir,
            b,
            tmps[b],
            {
                "stage": "pack",
                "bucket": b,
                "rows": rows,
                "n_packs": n_packs,
                "budget": budget,
                "lineage": {"inputs": ded_files},
                "engine_version": ENGINE_VERSION,
            },
        )

    packs_total = sum(
        m["n_packs"] for m in manifest.read_all(pack_dir) if m["group_id"] < n_buckets
    )
    return {
        "rows_extracted": m_ext.get("rows", 0),
        "rows_kept": m_ded["rows"],
        "n_buckets": n_buckets,
        "packs_total": packs_total,
        "dedup_resumed": bool(dedup_resumed),
        "buckets_resumed": sorted(done_buckets & set(range(n_buckets))),
        "buckets_rebuilt": missing,
    }
