"""The flagship pipeline: transcript shards -> extracted turns.

Shape (SURVEY §3.4):

  read_parquet(shards, columns=[conv_id, turn_idx, text])   # pruned read
    -> map_batches(ExtractTurns, concurrency=pool,
                   batch_size=B, batch_format="pyarrow")    # one actor pool
    -> sort(conv_id, turn_idx)                              # THE ordering shuffle
    -> write_parquet(group dir)                             # resumable partitions

At 100 TB the only all-to-all exchange is the final sort; everything
upstream is embarrassingly parallel per block. One pool serves every
payload size: the streaming executor splits blocks by bytes, and
per-document cost is sub-second, which bounds head-of-line blocking.

Never calls ray.init(); callers own the session.
"""

from __future__ import annotations

import os
import time

import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..sources.transcripts import list_shards, read_transcripts
from ..stages.extractors import ExtractTurns
from ..state import manifest

ENGINE_VERSION = "0.1.0"


def _cluster_cpus() -> int:
    """The cluster's CPU count: the one input of every default size in
    the extraction and corpus-build plans."""
    import ray

    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def _default_sort_partitions() -> int:
    return max(4, min(_cluster_cpus(), 64))


def _pool(concurrency) -> tuple[int, int]:
    """ExtractTurns actor-pool bounds (min, max).

    None sizes the pool from the cluster, c = max(2, cpus - 2); an int
    c gives (max(1, c - 2), c); a (min, max) tuple passes through. The
    default c leaves two CPUs free, so the read and sort tasks always
    find one; the high floor pre-warms the pool, since ramp-up
    measurably cost ~10% of bench wall."""
    if concurrency is None:
        concurrency = max(2, _cluster_cpus() - 2)
    if isinstance(concurrency, int):
        return (max(1, concurrency - 2), concurrency)
    return concurrency


# bound on sort partitions: Ray's range shuffle creates partitions^2
# intermediate objects, so 512 caps the sort's metadata footprint at
# ~262k objects regardless of input volume
MAX_SORT_PARTITIONS = 512


def _bytes_based_sort_partitions(input_bytes: int | None) -> int:
    """Sort partition count from DATA VOLUME, not CPU count: one
    partition per target_max_block_size of input, floored at the
    cluster CPU count (small inputs still use every core) and capped at
    MAX_SORT_PARTITIONS. On a 100x-scale multi-node run this keeps sort
    blocks near the configured block size instead of producing
    cpu_count giant partitions; when the input size is unknown it falls
    back to the CPU heuristic."""
    cpu_based = _default_sort_partitions()
    if not input_bytes or input_bytes <= 0:
        return cpu_based
    from ray.data.context import DataContext

    tgt = DataContext.get_current().target_max_block_size or (128 << 20)
    by_bytes = (int(input_bytes) + tgt - 1) // tgt
    return int(max(4, min(max(by_bytes, cpu_based), MAX_SORT_PARTITIONS)))


def build_extraction(
    ds,
    mode: str = "text",
    batch_size: int = 512,
    concurrency=None,
    order: bool = True,
    sort_partitions: int | None = None,
    spec_mode: bool = False,
):
    """Attach the extraction stages to a transcript Dataset.

    concurrency: the ExtractTurns pool, see _pool (None sizes it from
    the cluster).

    sort_partitions: block count entering the ordering sort. Ray's range
    shuffle creates partitions^2 intermediate objects, so many tiny
    blocks make the sort object-store-metadata-bound (measured 14s ->
    0.4s on 100k rows by coalescing 128 -> 16 blocks first). Default =
    max(input_bytes / target_max_block_size, cluster CPU count) capped
    at MAX_SORT_PARTITIONS — the bytes term is what scales on a
    multi-node run (the input size probe is metadata-only on a fresh
    parquet read).
    """
    input_bytes = None
    if order and sort_partitions is None:
        try:
            # metadata-cheap on the raw read (no stages attached yet)
            input_bytes = ds.size_bytes()
        except Exception:
            input_bytes = None
    # zero_copy_batch: ExtractTurns never mutates its input table, so
    # skip Ray Data's defensive copy and read the object-store block in place
    out = ds.map_batches(
        ExtractTurns,
        fn_constructor_kwargs={"mode": mode, "spec_mode": spec_mode},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=_pool(concurrency),
    )
    if order:
        npart = sort_partitions or _bytes_based_sort_partitions(input_bytes)
        out = out.repartition(npart).sort(["conv_id", "turn_idx"])
    return out


def _group_metrics(group_path: str) -> dict:
    """Cheap columnar readback of counters for the manifest."""
    t = pq.read_table(group_path, columns=["parse_status", "bytes_decoded"])
    status = t["parse_status"]
    ok = pc.sum(pc.cast(pc.equal(status, "ok"), "int64")).as_py() or 0
    return {
        "rows": t.num_rows,
        "rows_ok": ok,
        "rows_error": t.num_rows - ok,
        "bytes_decoded": pc.sum(t["bytes_decoded"]).as_py() or 0,
    }


def run_extraction(
    input_path: str,
    out_dir: str,
    mode: str = "text",
    group_size: int = 16,
    batch_size: int = 512,
    concurrency=None,
    resume: bool = True,
    override_num_blocks: int | None = None,
    spec_mode: bool = False,
) -> dict:
    """Checkpoint-resumable run: shard groups -> partitioned output.

    Returns overall metrics {rows, bytes_decoded, turns_per_sec, ...}.
    """
    shards = list_shards(input_path)
    groups = [shards[i : i + group_size] for i in range(0, len(shards), group_size)]
    done = manifest.completed_groups(out_dir) if resume else set()
    os.makedirs(out_dir, exist_ok=True)

    t_start = time.perf_counter()
    skipped = 0
    for gid, files in enumerate(groups):
        if gid in done:
            skipped += 1
            continue
        g0 = time.perf_counter()
        read_kwargs = {}
        if override_num_blocks:
            read_kwargs["override_num_blocks"] = override_num_blocks
        ds = read_transcripts(files, **read_kwargs)
        out = build_extraction(
            ds,
            mode=mode,
            batch_size=batch_size,
            concurrency=concurrency,
            spec_mode=spec_mode,
        )
        tmp = manifest.group_dir(out_dir, gid) + ".tmp"
        if os.path.exists(tmp):
            import shutil

            shutil.rmtree(tmp)
        out.write_parquet(tmp)
        metrics = _group_metrics(tmp)
        manifest.commit_group(
            out_dir,
            gid,
            tmp,
            {
                "inputs": files,
                "mode": mode,
                "engine_version": ENGINE_VERSION,
                "duration_sec": round(time.perf_counter() - g0, 3),
                **metrics,
            },
        )
    wall = time.perf_counter() - t_start

    all_m = manifest.read_all(out_dir)
    rows = sum(m["rows"] for m in all_m)
    processed_rows = sum(m["rows"] for m in all_m if m["group_id"] not in done)
    return {
        "rows": rows,
        "rows_ok": sum(m["rows_ok"] for m in all_m),
        "rows_error": sum(m["rows_error"] for m in all_m),
        "bytes_decoded": sum(m["bytes_decoded"] for m in all_m),
        "groups": len(groups),
        "groups_skipped_resume": skipped,
        "wall_sec": round(wall, 3),
        "turns_per_sec": round(processed_rows / wall, 1) if wall > 0 and processed_rows else 0.0,
    }
