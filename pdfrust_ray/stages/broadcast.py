"""Per-worker-process memo for broadcast values that unpickle into
Python objects.

A task stage reads a numpy or Arrow broadcast with `ray.get(ref)` per
batch: that is a zero-copy read from the object store. A dict or set
is unpickled again on every `ray.get`, so a task stage reads it with
`worker_value(ref)`, which fetches it once per worker process.

The memo is keyed by the ref's id, so no value crosses to another
broadcast, and it keeps the last `_SLOTS` values: the refs of a new
execution push out the old ones. A Ray worker runs one task at a time,
so the check and the insert need no lock."""

from __future__ import annotations

_SLOTS = 4
_memo: dict = {}


def worker_value(ref, make=None):
    """`ray.get(ref)`, once per worker process. `make`, if given, maps
    the fetched value to what is kept (e.g. the value plus a per-worker
    cache that the stage fills) and runs once too."""
    key = ref.hex()
    if key not in _memo:
        import ray

        value = ray.get(ref)
        if len(_memo) >= _SLOTS:
            del _memo[next(iter(_memo))]
        _memo[key] = value if make is None else make(value)
    return _memo[key]
