"""Per-layer numbers, measured from outside the program.

Three sources, none of which edits the program:
  - wrappers around each module's public functions, installed where
    their callers look them up, in a serial pass with no Ray;
  - each written Dataset's own stats (per operator: task wall time,
    remote CPU, rows);
  - timestamps on `state.manifest.commit_group` and
    `Dataset.write_parquet` in the main process during a pipeline run.
Self time is a span's duration minus the time of the wrapped spans
it contains.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter, defaultdict

import pyarrow as pa
import pyarrow.parquet as pq

BATCH_SIZE = 512  # run_extraction's default map_batches batch size


class Tracer:
    """Nested spans in one thread: self time, calls and bytes per layer."""

    def __init__(self):
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.nbytes: Counter = Counter()

    def wrap(self, name: str, fn, nbytes=None):
        stack, self_s, calls = self.stack, self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time of wrapped children
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self_s[name] += dt - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dt
            if nbytes is not None:
                self.nbytes[name] += nbytes(args, out)
            return out

        return traced


@contextlib.contextmanager
def patched(targets):
    """Set (owner, attribute, value) triples; restore them on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


class CountingCache:
    """Stands in for the actor's CMap LruCache and counts its hits."""

    def __init__(self, inner):
        self.inner = inner
        self.lookups = 0
        self.hits = 0

    def get(self, key):
        v = self.inner.get(key)
        self.lookups += 1
        self.hits += v is not None
        return v

    def put(self, key, value):
        self.inner.put(key, value)


def _b85_bytes(args, out) -> int:
    from pdfrust_ray.functions.payload import B85_PREFIX

    return len(out) if args[0].startswith(B85_PREFIX) else 0


def _serial_targets(tr: Tracer):
    from pdfrust_ray.functions import payload
    from pdfrust_ray.pdfref import body, cmap, content, filters, objects, xref
    from pdfrust_ray.stages import extractors

    # the package re-exports the function `extract` over its module's name
    extract = importlib.import_module("pdfrust_ray.pdfref.extract")

    span = tr.wrap
    obj = span("pdfref.objects", objects.object_at)
    xr = span("pdfref.xref", xref.parse_xref)
    fl = span("pdfref.flate", filters.flate_decode, lambda a, out: len(out))
    return [
        (payload, "detect_kind", span("payload.detect", payload.detect_kind)),
        (payload, "payload_bytes", span("payload.a85", payload.payload_bytes, _b85_bytes)),
        (payload, "extract", span("pdfref.extract_other", payload.extract)),
        (payload, "extract_main_text", span("html.strip", payload.extract_main_text)),
        (extract, "startxref", span("pdfref.xref", extract.startxref)),
        (extract, "parse_xref", xr),
        (xref, "parse_xref", xr),  # the /Prev chain recurses through the module
        (extract, "object_at", obj),
        (body, "object_at", obj),
        (body, "flate_decode", fl),
        (xref, "flate_decode", fl),
        (body, "parse_tounicode", span("pdfref.cmap", cmap.parse_tounicode)),
        (content.TextContent, "get_text", span("pdfref.content", content.TextContent.get_text)),
        (extractors.ExtractTurns, "__call__", span("extractors.batch_build", extractors.ExtractTurns.__call__)),
    ]


def _batches(shard_dir: str):
    from pdfrust_ray.sources.transcripts import EXTRACT_COLUMNS, list_shards

    table = pa.concat_tables(pq.read_table(f, columns=EXTRACT_COLUMNS) for f in list_shards(shard_dir))
    return [table.slice(i, BATCH_SIZE) for i in range(0, table.num_rows, BATCH_SIZE)]


def _one_pass(batches, tr: Tracer | None):
    from pdfrust_ray.stages.extractors import ExtractTurns, add_payload_len

    et = ExtractTurns(mode="text")
    et.cmap_cache = CountingCache(et.cmap_cache)
    probe = tr.wrap("extractors.size_probe", add_payload_len) if tr else add_payload_len
    t0 = time.perf_counter()
    for b in batches:
        et(probe(b))
    return time.perf_counter() - t0, et


def serial_pass(inputs) -> dict:
    """The workload's full input through ExtractTurns.__call__ in this
    process: plain, traced, plain again. The traced pass against the
    mean of the plain ones is the wrappers' overhead."""
    batches = _batches(inputs.shard_dir)
    before, _ = _one_pass(batches, None)
    tr = Tracer()
    with patched(_serial_targets(tr)):
        wall, et = _one_pass(batches, tr)
    after, _ = _one_pass(batches, None)
    plain_wall = (before + after) / 2
    lookups = et.result_cache_hits + et.result_cache_misses
    return {
        "tracer": tr,
        "wall_s": wall,
        "untraced_wall_s": plain_wall,
        "cmap_lookups": et.cmap_cache.lookups,
        "cmap_hits": et.cmap_cache.hits,
        "result_cache_hit_ratio": et.result_cache_hits / lookups if lookups else 0.0,
    }


# Dataset stats operator name -> layer
def _ray_layer(op_name: str) -> str | None:
    if "ExtractTurns" in op_name:
        return "ray.extract_stage"
    if op_name.startswith("ReadParquet"):
        return "ray.read"
    if op_name == "RepartitionReduce":
        # RepartitionSplit passes its input blocks' own stats through
        return "ray.repartition"
    if op_name.startswith("Sort"):
        return "ray.sort"
    if op_name == "Write":
        return "ray.write"
    return None


class CallProbe:
    """Timestamps commit_group and write_parquet in the main process and reads
    the stats of every Dataset written during a pipeline call."""

    def __init__(self):
        self.commits: list[tuple[str, float, float]] = []  # (stage dir, start, end)
        self.write_end: dict[str, float] = {}
        self.readback_s = 0.0
        self.ray_s: dict[str, float] = defaultdict(float)
        self.extract_cpu_s = 0.0
        self.extract_rows = 0

    def targets(self):
        from ray.data import Dataset

        from pdfrust_ray.state import manifest

        commit, write = manifest.commit_group, Dataset.write_parquet
        probe = self

        def commit_group(out_dir, group_id, tmp_dir, meta):
            t0 = time.time()
            tmp_dir_norm = os.path.normpath(tmp_dir)
            if os.path.basename(tmp_dir_norm).startswith("group=") and tmp_dir_norm in probe.write_end:
                # run_extraction reads its group back for the manifest counters
                probe.readback_s += t0 - probe.write_end[tmp_dir_norm]
            commit(out_dir, group_id, tmp_dir, meta)
            probe.commits.append((os.path.basename(os.path.normpath(out_dir)), t0, time.time()))

        def write_parquet(ds, path, *args, **kwargs):
            out = write(ds, path, *args, **kwargs)
            probe.write_end[os.path.normpath(path)] = time.time()
            if os.path.basename(os.path.normpath(path)).startswith("group="):
                probe._read_stats(ds._write_ds._get_stats_summary())
            return out

        return [(manifest, "commit_group", commit_group), (Dataset, "write_parquet", write_parquet)]

    def _read_stats(self, summary) -> None:
        for op in summary.operators_stats:
            layer = _ray_layer(op.operator_name)
            if layer is None or op.wall_time is None:
                continue
            self.ray_s[layer] += op.wall_time["sum"]
            if layer == "ray.extract_stage":
                self.extract_cpu_s += op.cpu_time["sum"]
                self.extract_rows += (op.output_num_rows or {}).get("sum", 0)
        for parent in summary.parents:
            self._read_stats(parent)

    def stage_times(self, t_start: float) -> dict:
        """corpusbuild stage times from commit timestamps per stage dir."""
        last = {}
        n_pack = 0
        for stage, _, end in self.commits:
            last[stage] = max(last.get(stage, 0.0), end)
            n_pack += stage == "stage_pack"
        ext, ded, pack = last["stage_extract"], last["stage_dedup"], last["stage_pack"]
        return {
            "corpusbuild.extract_stage_s": ext - t_start,
            "corpusbuild.dedup_stage_s": ded - ext,
            "corpusbuild.pack_stage_s": pack - ded,
            "corpusbuild.pack_executions": n_pack,
        }


def traced_call(workload: str, inputs, out_dir: str, call):
    """One pipeline call with the main-process probes installed. Returns
    (probe, start time, wall to the last commit, the call's summary)."""
    probe = CallProbe()
    with patched(probe.targets()):
        t0 = time.time()
        summary = call(workload, inputs.shard_dir, out_dir)
        wall = max(end for _, _, end in probe.commits) - t0
    return probe, t0, wall, summary


def layer_metrics(serial: dict, extract_probe: CallProbe, build_probe: CallProbe, build_t0: float,
                  turns: int, traced_wall: float, untraced: dict) -> dict:
    """`untraced` is the same run's untraced round (run.Rounds.run)."""
    tr: Tracer = serial["tracer"]
    s = tr.self_s
    m = {f"{name}_s": (s[name], "s") for name in (
        "payload.detect", "payload.a85", "pdfref.xref", "pdfref.objects", "pdfref.flate",
        "pdfref.content", "pdfref.cmap", "pdfref.extract_other", "html.strip",
        "extractors.size_probe", "extractors.batch_build")}
    m["payload.a85_mb"] = (tr.nbytes["payload.a85"] / 1e6, "MB")
    m["pdfref.flate_mb_out"] = (tr.nbytes["pdfref.flate"] / 1e6, "MB")
    m["pdfref.cmap_parses"] = (tr.calls["pdfref.cmap"], "count")
    lookups = serial["cmap_lookups"]
    m["pdfref.cmap_cache_hit_ratio"] = (serial["cmap_hits"] / lookups if lookups else 0.0, "ratio")
    m["extractors.result_cache_hit_ratio"] = (serial["result_cache_hit_ratio"], "ratio")
    m["serial.wall_s"] = (serial["wall_s"], "s")
    m["serial.self_time_coverage"] = (sum(s.values()) / serial["wall_s"], "ratio")
    m["serial.trace_overhead"] = (serial["wall_s"] / serial["untraced_wall_s"] - 1, "ratio")
    p = extract_probe
    for layer in ("ray.read", "ray.extract_stage", "ray.repartition", "ray.sort", "ray.write"):
        m[f"{layer}_s"] = (p.ray_s[layer], "s")
    m["ray.extract_stage_cpu_s"] = (p.extract_cpu_s, "s")
    m["ray.extract_stage_rows"] = (p.extract_rows, "count")
    m["extract_pipeline.readback_s"] = (p.readback_s, "s")
    m["manifest.commit_s"] = (sum(end - start for _, start, end in p.commits), "s")
    m["manifest.commits"] = (len(p.commits), "count")
    for name, value in build_probe.stage_times(build_t0).items():
        m[name] = (value, "count" if name.endswith("executions") else "s")
    m["trace.turns_per_s"] = (turns / traced_wall, "turns/s")
    m["trace.untraced_turns_per_s"] = (untraced["turns_per_s"], "turns/s")
    m["trace.untraced_cpu_s_per_kturn"] = (untraced["cpu_s_per_kturn"], "s/kturn")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
