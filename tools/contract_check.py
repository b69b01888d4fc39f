#!/usr/bin/env python
"""Driver-style full-contract checker.

Runs EVERY queries() entry at sf0.01 next to its oracle_sql() twin in
DuckDB (tables registered as views, same as the driver) and records
per-query rows / schema / value-hash verdicts. The value hash sorts
columns by name, then rows by all columns, then hashes a %.17g CSV
serialization — float64 bit-equality implies hash equality, mirroring
the driver's compare contract.

Usage:
  python tools/contract_check.py [--slice I N] [--out PATH] [--only a,b,c]

With --slice I N only names[i::N] run (one Ray session per process);
the parent merge is a plain JSON fold — see the committed artifact
CONTRACT_SWEEP_r4.json. Without --slice, runs everything serially.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("CONTRACT_SF_DIR", "/root/testdata/sf0.01")
TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


def _canon(df) -> str:
    import pandas as pd

    df = df.reset_index(drop=True)
    df = df[sorted(df.columns)]
    # normalize dtypes the way the driver's hash is insensitive to
    for c in df.columns:
        if str(df[c].dtype).startswith(("uint", "int")):
            df[c] = df[c].astype("int64")
    if len(df):
        df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    buf = io.StringIO()
    df.to_csv(buf, index=False, float_format="%.17g")
    return hashlib.md5(buf.getvalue().encode()).hexdigest()


def connect(sf_dir: str):
    """An in-memory DuckDB connection with the ten testdata tables of
    sf_dir registered as views."""
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


def compare_twin(mine, con, sql):
    """Asserts that the engine frame `mine` equals the twin `sql` run on
    con, row for row after dropping both indexes and ignoring dtypes;
    returns the twin's frame."""
    import pandas as pd

    odf = con.execute(sql).fetchdf()
    pd.testing.assert_frame_equal(
        mine.reset_index(drop=True), odf.reset_index(drop=True), check_dtype=False
    )
    return odf


def compare_rows(mine, oracle) -> int:
    """Asserts that the frames `mine` and `oracle` hold the same rows in
    any order: the same column names, and equal values per column once
    both are sorted by every column. Returns the row count."""
    cols = sorted(mine.columns)
    assert cols == sorted(oracle.columns)
    a = mine[cols].sort_values(cols).reset_index(drop=True)
    b = oracle[cols].sort_values(cols).reset_index(drop=True)
    assert len(a) == len(b)
    for c in cols:
        assert a[c].tolist() == b[c].tolist(), f"column {c} differs"
    return len(a)


def _to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    try:
        import ray.data as rd

        if isinstance(res, rd.Dataset):
            res = res.to_pandas()
    except Exception:
        pass
    if isinstance(res, pa.Table):
        res = res.to_pandas()
    assert isinstance(res, pd.DataFrame), type(res)
    return res


def main() -> None:
    out_path = "/tmp/contract_sweep.json"
    sl_i, sl_n = 0, 1
    only: list | None = None
    args = sys.argv[1:]
    while args:
        a = args.pop(0)
        if a == "--slice":
            sl_i, sl_n = int(args.pop(0)), int(args.pop(0))
        elif a == "--out":
            out_path = args.pop(0)
        elif a == "--only":
            only = args.pop(0).split(",")

    import ray

    from pdfrust_ray.session import start_session

    start_session(int(os.environ.get("RAY_GRAFT_CPUS", "8")))
    import logging

    logging.getLogger("ray.data").setLevel(logging.CRITICAL)

    import __ray_entry__ as entry

    qs = entry.queries()
    oracles = entry.oracle_sql()
    con = connect(SF_DIR)

    names = sorted(qs)[sl_i::sl_n]
    if only is not None:
        missing = [n for n in only if n not in qs]
        assert not missing, f"--only names not in queries(): {missing}"
        names = [n for n in names if n in only]
    results: dict = {}
    t_all = time.time()
    for name in names:
        t0 = time.time()
        row: dict = {}
        try:
            mine = _to_pandas(qs[name](SF_DIR))
            row["rows"] = int(len(mine))
            if name in oracles:
                odf = con.execute(oracles[name]).fetchdf()
                row["oracle_rows"] = int(len(odf))
                row["rows_match"] = len(mine) == len(odf)
                row["schema_match"] = sorted(mine.columns) == sorted(odf.columns)
                row["hash_match"] = (
                    row["rows_match"]
                    and row["schema_match"]
                    and _canon(mine) == _canon(odf)
                )
            else:
                row["no_oracle"] = True
                row["justified"] = name in entry.NO_ORACLE_JUSTIFICATIONS
        except Exception as exc:  # record, keep sweeping
            row["error"] = f"{type(exc).__name__}: {exc}"[:300]
        row["sec"] = round(time.time() - t0, 2)
        results[name] = row
        status = (
            "ok"
            if row.get("hash_match")
            else ("no_oracle" if row.get("no_oracle") else "BAD")
        )
        print(f"[{sl_i}/{sl_n}] {name}: {status} ({row['sec']}s)", flush=True)

    bad = [
        n
        for n, r in results.items()
        if not r.get("hash_match") and not r.get("no_oracle")
    ]
    summary = {
        "total": len(results),
        "ok": sum(1 for r in results.values() if r.get("hash_match")),
        "no_oracle": sum(1 for r in results.values() if r.get("no_oracle")),
        "bad": len(bad),
        "wall_sec": round(time.time() - t_all, 1),
    }
    json.dump(
        {
            "summary": summary,
            "sf_dir": SF_DIR,
            "slices": sl_n,
            "bad": bad,
            "results": results,
        },
        open(out_path, "w"),
        indent=0,
        default=str,
    )
    print(json.dumps(summary))
    ray.shutdown()


if __name__ == "__main__":
    main()
