"""Ray session set-up for the job entry points (`pdfrust_ray.run`,
`pdfrust_ray.run_build`) and `bench.py`. Library code never calls
this; the caller owns the session."""

from __future__ import annotations

import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def put_repo_on_pythonpath(env) -> None:
    """Prepend the repo to env's PYTHONPATH unless it is already there.
    Ray workers inherit it and must import pdfrust_ray; a PYTHONPATH that
    was set without the repo would leave every actor failing its import."""
    existing = env.get("PYTHONPATH", "")
    if REPO not in existing.split(os.pathsep):
        env["PYTHONPATH"] = REPO + (os.pathsep + existing if existing else "")


def start_session(num_cpus: int | None = None) -> None:
    """Start a local Ray session (unless one is running) with the
    progress bars off."""
    put_repo_on_pythonpath(os.environ)
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
