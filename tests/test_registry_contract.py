"""Registry-wide contract checks: every oracle binds, no orphans.

The per-batch tests execute each query against its oracle; this
meta-test guards the REGISTRY itself — a typo in a rarely-exercised
oracle string, an oracle registered without its query, or a fixture
path that no longer exists all fail here in seconds instead of at
driver-gate time.
"""

import inspect
import re
import sys

import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def entry(ray_session):
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "e_registry", "/root/repo/__ray_entry__.py"
    )
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


def test_no_orphan_oracles(entry):
    q = set(entry.queries().keys())
    o = set(entry.oracle_sql().keys())
    orphans = o - q
    assert not orphans, f"oracle_sql keys without a queries() entry: {sorted(orphans)}"


def test_query_names_are_snake_case(entry):
    pat = re.compile(r"^[a-z][a-z0-9_]*$")
    bad = [k for k in entry.queries() if not pat.match(k)]
    assert not bad, bad


def test_every_oracle_parses_and_binds(entry):
    # queries() eagerly materializes the fixture corpora, so every
    # read_parquet path referenced by an oracle exists afterwards
    from tools.contract_check import connect

    entry.queries()
    con = connect(SF)
    failures = {}
    for name, sql in entry.oracle_sql().items():
        try:
            con.execute(f"EXPLAIN {sql}")
        except Exception as ex:  # noqa: BLE001 - we want the full census
            failures[name] = str(ex).splitlines()[0][:160]
    assert not failures, failures


def test_every_rows_only_query_is_justified():
    """A queries() entry without an oracle_sql() twin must carry an
    explicit justification (and justifications must not go stale)."""
    import __ray_entry__ as e

    q = set(e.queries())
    o = set(e.oracle_sql())
    rows_only = q - o
    just = set(e.NO_ORACLE_JUSTIFICATIONS)
    assert rows_only == just, (
        f"unjustified rows-only: {sorted(rows_only - just)}; "
        f"stale justifications: {sorted(just - rows_only)}"
    )
    for name, why in e.NO_ORACLE_JUSTIFICATIONS.items():
        assert " — " in why and why.split(" — ")[0] in {
            "approximation",
            "binary-codec",
            "float-iterative",
            "engine-artifact",
            "sequential-state",
        }, name


def test_oracles_follow_the_sql_twin_rule():
    """A query whose callable is a module function `f`, with an `f_sql`
    beside it that takes no required arguments, has `f_sql()` as its
    oracle; no rows-only query has such a twin."""
    import __ray_entry__ as e

    oracles = e.oracle_sql()
    covered = {}
    for name, fn in e.queries().items():
        mod = sys.modules.get(fn.__module__)
        if mod is None or getattr(mod, fn.__name__, None) is not fn:
            continue
        twin = getattr(mod, fn.__name__ + "_sql", None)
        if twin is None or any(
            p.default is p.empty and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
            for p in inspect.signature(twin).parameters.values()
        ):
            continue
        covered[name] = twin
    assert covered
    for name, twin in covered.items():
        assert oracles.get(name) == twin(), name
    assert not set(covered) & set(e.NO_ORACLE_JUSTIFICATIONS)


def test_bench_tier_is_a_registry_subset():
    import __ray_entry__ as e
    import bench

    names = bench.BENCH_QUERIES
    assert len(names) == len(set(names))
    assert set(names) <= set(e.queries()), sorted(set(names) - set(e.queries()))
    assert bench.BENCH_ONE_SHOT <= set(names)
