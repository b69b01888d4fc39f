"""Seeded end-to-end benchmark of transcript extraction and corpus build.

    python3 perfbench/run.py --workload mixed_turns --seed 1 --seconds 8 --trace 0

Runs one workload through the program's public entry points,
`run_extraction` or `run_corpus_build`, in an in-process Ray session
with a fixed CPU count and pool size, checks every output row against
the generator's expectations, and prints one JSON object as its last
line. `--trace 0` reports the end-to-end metrics; `--trace 1` reports
the per-layer metrics of a traced run instead (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import logging
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Fixed run configuration, derived from nothing on the host (README.md).
NUM_CPUS = 2
# a fixed pool of one ExtractTurns actor: the (1, 2) autoscaling pool
# that concurrency=2 builds ran one or two actors from round to round
CONCURRENCY = (1, 1)
OBJECT_STORE_BYTES = 512 << 20
SETUP_REPEATS = 2
ROUND_LIMIT_S = 60.0
RUN_LIMIT_S = 170.0
# session_<date>_<time>_<usec>_<pid>/sockets/plasma_store is 62 bytes more
MAX_RAY_TMP_LEN = 44


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("mixed_turns", "large_pdfs", "build_with_dupes"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measure rounds for this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare_env() -> None:
    """Ray workers must import pdfrust_ray: put the checkout first on
    their PYTHONPATH, whatever it held before."""
    parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p and p != ROOT]
    os.environ["PYTHONPATH"] = os.pathsep.join([ROOT, *parts])
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)


class Watchdog:
    """Kills the session and ends the run when a phase overruns its
    limit: the run counts every turn as failed and names the first
    worker error the session logged."""

    def __init__(self, ray_tmp: str, work: str):
        self.ray_tmp = ray_tmp
        self.work = work
        self.deadline = None
        self.what = ""
        self.attempted = 0
        self.run_deadline = time.monotonic() + RUN_LIMIT_S
        threading.Thread(target=self._loop, daemon=True).start()

    def arm(self, seconds: float, what: str) -> None:
        self.what = what
        self.deadline = min(time.monotonic() + seconds, self.run_deadline)

    def disarm(self) -> None:
        self.deadline = None

    def _loop(self) -> None:
        while True:
            time.sleep(0.2)
            now = time.monotonic()
            if (self.deadline is not None and now > self.deadline) or now > self.run_deadline:
                self._expire()

    def _expire(self) -> None:
        from procstat import descendants, end_processes

        log(f"wall-clock limit exceeded during {self.what}; stopping the session")
        log(first_worker_error(self.ray_tmp) or "no worker error was logged")
        end_processes(descendants(), grace_s=0.0)
        remove_work(self.work, self.ray_tmp)
        print(json.dumps(all_failed(self.attempted)), flush=True)
        os._exit(3)


def all_failed(attempted: int) -> dict:
    n = max(attempted, 1)
    return {"correct": False, "attempted": n, "failed": n, "metrics": {}}


def remove_work(work: str, ray_tmp: str) -> None:
    for path in (work, ray_tmp):
        shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(work))
    except OSError:
        pass  # another run's directory is still there


def first_worker_error(ray_tmp: str) -> str | None:
    logs = glob.glob(os.path.join(ray_tmp, "session_*", "logs", "worker-*.err"))
    for path in sorted(logs, key=os.path.getmtime):
        with open(path, errors="replace") as f:
            lines = [ln for ln in f if ln.strip()]
        for i, ln in enumerate(lines):
            if "Error" in ln or "Traceback" in ln:
                return f"{os.path.basename(path)}:\n" + "".join(lines[i : i + 30])
    return None


class Session:
    def __init__(self, ray_tmp: str):
        self.ray_tmp = ray_tmp

    def start(self) -> None:
        import ray
        import ray.data as rd

        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=OBJECT_STORE_BYTES,
            _temp_dir=self.ray_tmp,
        )
        rd.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    @staticmethod
    def stop() -> None:
        """Shut the session down and wait until its processes have ended,
        so none of them runs into the next phase."""
        import ray

        from procstat import descendants, end_processes

        pids = descendants()
        if ray.is_initialized():
            ray.shutdown()
        end_processes(pids, grace_s=10.0)


def call_workload(workload: str, shard_dir: str, out_dir: str) -> dict:
    """One closed-loop operation: the workload's public entry point."""
    if workload == "build_with_dupes":
        from pdfrust_ray.pipelines.corpusbuild import run_corpus_build

        return run_corpus_build(shard_dir, out_dir, concurrency=CONCURRENCY, resume=False)
    from pdfrust_ray.pipelines.extract_pipeline import run_extraction

    return run_extraction(shard_dir, out_dir, concurrency=CONCURRENCY, resume=False)


def stage_ends(out_dir: str, t0: float) -> dict:
    """Seconds from t0 to the last manifest committed under each stage
    directory of out_dir ("." for a plain extraction), in commit order."""
    ends = {}
    for path in glob.glob(os.path.join(out_dir, "**", "_manifests", "group-*.json"), recursive=True):
        stage = os.path.relpath(os.path.dirname(os.path.dirname(path)), out_dir)
        ends[stage] = max(ends.get(stage, 0.0), os.stat(path).st_mtime - t0)
    return dict(sorted(ends.items(), key=lambda kv: kv[1]))


class Rounds:
    """Closed-loop rounds of one workload: each round is one call on a
    fresh output directory, checked afterwards and then removed."""

    def __init__(self, workload, inputs, work, watchdog):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.watchdog = watchdog
        self.n = 0
        self.attempted = 0
        self.failed = 0
        self.run_errors = 0
        self.timed: list[dict] = []

    def _out(self) -> str:
        self.n += 1
        # a previous round's actor pool is freed by garbage collection;
        # until then it holds the session's CPUs (see README.md)
        gc.collect()
        return os.path.join(self.work, f"out-{self.n}")

    def _check(self, workload, out, summary) -> None:
        import check

        rep = check.Report()
        if workload == "build_with_dupes":
            check.check_build(self.inputs.turns, out, summary, rep)
        else:
            check.check_extraction(self.inputs.turns, out, rep)
        for msg in rep.messages:
            log("check:", msg)
        shutil.rmtree(out)
        self.attempted += len(self.inputs.turns)
        self.failed += len(rep.failed)
        self.run_errors += len(rep.errors)

    def warm_up(self) -> None:
        """One untimed, unchecked call: the first full call runs slower
        than the ones after it."""
        out = self._out()
        self.watchdog.arm(ROUND_LIMIT_S, f"a {self.workload} warm-up")
        t0 = time.perf_counter()
        call_workload(self.workload, self.inputs.shard_dir, out)
        self.watchdog.disarm()
        log(f"warm-up: {time.perf_counter() - t0:.3f}s")
        shutil.rmtree(out)

    def run(self) -> dict:
        from procstat import SessionSampler

        out = self._out()
        n = len(self.inputs.turns)
        self.watchdog.attempted = self.attempted + n
        sampler = SessionSampler()
        self.watchdog.arm(ROUND_LIMIT_S, f"a {self.workload} round")
        sampler.start()
        t0 = time.time()
        summary = call_workload(self.workload, self.inputs.shard_dir, out)
        sampler.stop()
        self.watchdog.disarm()
        ends = stage_ends(out, t0)
        r = {
            "wall_s": max(ends.values()),
            "cpu_s_per_kturn": sampler.cpu_s / (n / 1000),
            "peak_rss_mb": sampler.peak_rss / (1 << 20),
            "actors": len(sampler.actors),
        }
        r["turns_per_s"] = n / r["wall_s"]
        self._check(self.workload, out, summary)
        log(
            f"round {self.n}: wall={r['wall_s']:.3f}s turns/s={r['turns_per_s']:.1f} "
            f"cpu_s/kturn={r['cpu_s_per_kturn']:.4f} peak_rss_mb={r['peak_rss_mb']:.1f} "
            f"actors={r['actors']} last_commit_s=" + ",".join(f"{k}:{v:.2f}" for k, v in ends.items())
        )
        return r

    def traced(self, workload, layers):
        out = self._out()
        self.watchdog.attempted = self.attempted + len(self.inputs.turns)
        self.watchdog.arm(ROUND_LIMIT_S, f"a traced {workload} round")
        probe, t_start, wall, summary = layers.traced_call(workload, self.inputs, out, call_workload)
        self.watchdog.disarm()
        self._check(workload, out, summary)
        log(f"round {self.n} (traced {workload}): wall={wall:.3f}s turns/s={len(self.inputs.turns) / wall:.1f}")
        return probe, t_start, wall, summary


def setup_once(session, warm_dir, out_dir, watchdog) -> float:
    """ray.init through an untimed warm-up extraction of a fixed input."""
    from pdfrust_ray.pipelines.extract_pipeline import run_extraction

    watchdog.arm(ROUND_LIMIT_S, "set-up")
    t0 = time.perf_counter()
    session.start()
    run_extraction(warm_dir, out_dir, concurrency=CONCURRENCY, resume=False)
    dt = time.perf_counter() - t0
    watchdog.disarm()
    shutil.rmtree(out_dir, ignore_errors=True)
    return dt


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def bench(args, work: str, watchdog: Watchdog, session: Session) -> dict:
    import gen

    t0 = time.perf_counter()
    inputs = gen.generate(args.workload, args.seed, os.path.join(work, "inputs"))
    warm_dir = gen.generate_warmup(os.path.join(work, "warmup"))
    watchdog.attempted = len(inputs.turns)  # what an overrun before any round fails
    log(
        f"inputs: workload={args.workload} seed={args.seed} turns={len(inputs.turns)} "
        f"digest={inputs.digest} totals={inputs.totals} generated_in={time.perf_counter() - t0:.2f}s "
        f"os.cpu_count={os.cpu_count()} num_cpus={NUM_CPUS} concurrency={CONCURRENCY}"
    )
    if args.trace:
        import layers

        # the serial pass runs before the session so nothing contends
        serial = layers.serial_pass(inputs)
    setups = []
    for k in range(1 if args.trace else SETUP_REPEATS):
        if k:
            session.stop()
        setups.append(setup_once(session, warm_dir, os.path.join(work, f"warm-out-{k}"), watchdog))
    log("setup_s:", " ".join(f"{s:.3f}" for s in setups))

    rounds = Rounds(args.workload, inputs, work, watchdog)
    rounds.warm_up()
    if args.trace:
        plain = rounds.run()
        ext_probe, t_start, wall, _ = rounds.traced(args.workload, layers)
        build_probe, build_start = ext_probe, t_start
        if args.workload != "build_with_dupes":
            # the corpus-build layers, measured on this workload's input
            build_probe, build_start, _, _ = rounds.traced("build_with_dupes", layers)
        metrics = layers.layer_metrics(serial, ext_probe, build_probe, build_start, len(inputs.turns), wall, plain)
    else:
        t_begin = time.perf_counter()
        while not rounds.timed or time.perf_counter() - t_begin < args.seconds:
            rounds.timed.append(rounds.run())
        med = lambda name: statistics.median(x[name] for x in rounds.timed)  # noqa: E731
        # turns/s and CPU per turn follow the host's own speed too closely
        # to hold a bound from run to run, so they are logged, not reported
        # as bounded metrics (README.md, "Steadiness")
        log(
            f"medians over {len(rounds.timed)} rounds: turns_per_s={med('turns_per_s'):.1f} "
            f"cpu_s_per_kturn={med('cpu_s_per_kturn'):.4f}"
        )
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(med("peak_rss_mb"), "MB"),
        }
    return {
        "correct": rounds.failed == 0 and rounds.run_errors == 0,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_env()
    import pdfrust_ray  # noqa: F401  fails fast where the program is absent

    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    ray_tmp = os.path.join(work, "r")
    if len(ray_tmp) > MAX_RAY_TMP_LEN:
        # Ray's AF_UNIX socket paths under the session directory must
        # stay within 107 bytes; a long checkout path cannot hold them
        ray_tmp = tempfile.mkdtemp(prefix="perfbench-")
        log(f"checkout path too long for Ray's sockets; session files go to {ray_tmp}")
    os.makedirs(ray_tmp, exist_ok=True)
    watchdog = Watchdog(ray_tmp, work)
    session = Session(ray_tmp)
    try:
        result = bench(args, work, watchdog, session)
    except Exception:  # noqa: BLE001 — a failing call fails the run, with its traceback
        log(traceback.format_exc())
        log(first_worker_error(ray_tmp) or "no worker error was logged")
        result = all_failed(watchdog.attempted)
    finally:
        watchdog.arm(30, "shutdown")
        session.stop()
        watchdog.disarm()
        remove_work(work, ray_tmp)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
