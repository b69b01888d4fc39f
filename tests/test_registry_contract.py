"""Registry-wide contract checks: every oracle binds, no orphans.

The per-batch tests execute each query against its oracle; this
meta-test guards the REGISTRY itself — a typo in a rarely-exercised
oracle string, an oracle registered without its query, or a fixture
path that no longer exists all fail here in seconds instead of at
driver-gate time.
"""

import ast
import inspect
import os
import re
import sys
import textwrap

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
# test_batch107's compare sorts the columns of both frames first
OWN_COMPARE = {"test_batch107.py"}
COPIED_COMPARE = re.compile(
    r"pd\.testing\.assert_frame_equal\(\w+\.reset_index\(drop=True\), "
    r"\w+\.reset_index\(drop=True\), check_dtype=False\)"
)


@pytest.fixture(scope="module")
def entry(ray_session):
    import __ray_entry__

    return __ray_entry__


def test_no_orphan_oracles(entry):
    q = set(entry.queries().keys())
    o = set(entry.oracle_sql().keys())
    orphans = o - q
    assert not orphans, f"oracle_sql keys without a queries() entry: {sorted(orphans)}"


def test_query_names_are_snake_case(entry):
    pat = re.compile(r"^[a-z][a-z0-9_]*$")
    bad = [k for k in entry.queries() if not pat.match(k)]
    assert not bad, bad


def test_every_oracle_parses_and_binds(entry, con):
    # queries() eagerly materializes the fixture corpora, so every
    # read_parquet path referenced by an oracle exists afterwards
    entry.queries()
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


def _family_dir(family: str) -> str:
    from pdfrust_ray.fixtures import corpus

    if family in corpus.SCALES:
        return corpus.ensure_corpus(family)
    return getattr(corpus, f"ensure_{family}_fixture")()


def derived_twins(e) -> dict[str, str]:
    """{name: twin SQL} for every queries() entry whose twin the binding
    rule derives, re-derived here from the entry itself: a module
    function `f` with an `f_sql` beside it that takes no required
    arguments has `f_sql()`; an entry built by a fixture-bound
    constructor has the `f_sql` beside its function over the files of
    the family it names."""

    def beside(fn):
        mod = sys.modules.get(fn.__module__)
        if mod is None or getattr(mod, fn.__name__, None) is not fn:
            return None
        return getattr(mod, fn.__name__ + "_sql", None)

    out = {}
    for name, fn in e.queries().items():
        ctor = fn.__qualname__.split(".")[0]
        bound = inspect.getclosurevars(fn).nonlocals
        twin = beside(bound["fn"]) if "fn" in bound else None
        if ctor in ("_q_conv", "_q_family", "_q_extracted") and twin is None:
            continue
        if ctor == "_q_conv":
            out[name] = twin(f"{_family_dir('t2')}/shards/*.parquet")
        elif ctor == "_q_family":
            reads = inspect.getclosurevars(fn.sql).nonlocals["reads"]
            out[name] = twin(f"{_family_dir(bound['family'])}/{reads}")
        elif ctor == "_q_extracted":
            # the scale's corpus reads the t2 golden; the modes golden
            # holds every mode, so its twins also take the modes
            family = bound["family"] or "t2"
            if family == "modes":
                out[name] = twin(f"{_family_dir(family)}/golden_modes.parquet", *bound["modes"])
            else:
                out[name] = twin(f"{_family_dir(family)}/golden.parquet")
        else:
            assert not hasattr(fn, "sql"), f"{name}: twin attached by unknown {ctor}"
            twin = beside(fn)
            if twin is None or any(
                p.default is p.empty and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
                for p in inspect.signature(twin).parameters.values()
            ):
                continue
            out[name] = twin()
    return out


def test_oracles_follow_the_sql_twin_rule():
    """Every twin the binding rule derives is the entry's oracle; no
    rows-only query has such a twin."""
    import __ray_entry__ as e

    oracles = e.oracle_sql()
    qs = e.queries()
    covered = derived_twins(e)
    ctors = {fn.__qualname__.split(".")[0] for fn in qs.values()}
    assert {"_q_conv", "_q_family", "_q_extracted"} <= ctors
    for name, sql in covered.items():
        assert oracles.get(name) == sql, name
    assert not set(covered) & set(e.NO_ORACLE_JUSTIFICATIONS)


def test_one_extraction_per_family_and_mode(ray_session, monkeypatch):
    """Every query over the extraction output, run once at sf0.001 from
    an empty memo, runs the flagship pipeline once per (family, mode,
    spec_mode) the queries read, however many queries share it."""
    import __ray_entry__ as e
    from pdfrust_ray.pipelines import extract_pipeline

    sf = "/root/testdata/sf0.001"
    qs = {n: fn for n, fn in e.queries().items() if fn.__qualname__.startswith("_q_extracted.")}
    keys = set()
    for fn in qs.values():
        bound = inspect.getclosurevars(fn).nonlocals
        family = bound["family"] or e._scale_for(sf)
        keys |= {(family, mode, bound["spec_mode"]) for mode in bound["modes"]}
    runs = []
    build = extract_pipeline.build_extraction

    def counted(ds, **kw):
        runs.append(kw)
        return build(ds, **kw)

    monkeypatch.setattr(extract_pipeline, "build_extraction", counted)
    e._extractions.clear()
    for fn in qs.values():
        fn(sf)
    assert len(qs) == 19 and len(keys) == 9
    assert set(e._extractions) == keys
    assert len(runs) == len(keys), runs


def written_oracles(e) -> set[str]:
    """The names oracle_sql() writes out: the string keys of the dict
    literal it returns."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(e.oracle_sql)))
    ret = next(n for n in ast.walk(tree) if isinstance(n, ast.Return))
    return {k.value for k in ret.value.keys if isinstance(k, ast.Constant)}


def test_no_written_oracle_restates_a_derived_twin():
    """An oracle_sql() entry written out for a query whose twin the
    binding rule already derives is a second statement of one binding."""
    import __ray_entry__ as e

    restated = written_oracles(e) & set(derived_twins(e))
    assert not restated, f"oracle_sql() restates derived twins: {sorted(restated)}"


def test_bench_tier_is_a_registry_subset():
    import __ray_entry__ as e
    import bench

    names = bench.BENCH_QUERIES
    assert len(names) == len(set(names))
    assert set(names) <= set(e.queries()), sorted(set(names) - set(e.queries()))
    assert bench.BENCH_ONE_SHOT <= set(names)


def _sf0001_names(tree) -> set[str]:
    names = {"SF"}
    for st in tree.body:
        if (
            isinstance(st, ast.Assign)
            and isinstance(st.value, ast.Constant)
            and str(st.value.value).endswith("/sf0.001")
        ):
            names |= {t.id for t in st.targets if isinstance(t, ast.Name)}
    return names


def copied_test_plumbing(tests_dir: str = TESTS) -> list[str]:
    """`file:line reason` for every test-file copy of what
    tests/conftest.py (`con`) and tools/contract_check.py
    (`compare_twin`, `compare_rows`) provide: a `_cmp`/`_assert_oracle`/
    `_compare` helper or an inline copy of compare_twin's body, a view
    over an sf0.001 table, or a connect() to the sf0.001 dir."""
    out = []
    for f in sorted(os.listdir(tests_dir)):
        if not (f.startswith("test_") and f.endswith(".py")):
            continue
        with open(os.path.join(tests_dir, f)) as fh:
            tree = ast.parse(fh.read())
        sf = _sf0001_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in ("_cmp", "_assert_oracle", "_compare"):
                if f not in OWN_COMPARE:
                    out.append(f"{f}:{node.lineno} defines {node.name}")
            elif isinstance(node, ast.JoinedStr):
                text = "".join(
                    v.value for v in node.values if isinstance(v, ast.Constant)
                )
                fields = {
                    v.value.id
                    for v in node.values
                    if isinstance(v, ast.FormattedValue) and isinstance(v.value, ast.Name)
                }
                if "CREATE VIEW" in text and fields & sf:
                    out.append(f"{f}:{node.lineno} creates a view over the sf0.001 dir")
            elif isinstance(node, ast.Call):
                func = ast.unparse(node.func).split(".")[-1]
                if func == "assert_frame_equal" and COPIED_COMPARE.fullmatch(ast.unparse(node)):
                    out.append(f"{f}:{node.lineno} inlines compare_twin")
                elif (
                    func == "connect"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in sf
                ):
                    out.append(f"{f}:{node.lineno} connects to the sf0.001 dir")
    return out


def test_no_copied_duckdb_fixture_or_twin_compare():
    bad = copied_test_plumbing()
    assert not bad, "\n".join(bad)


def unused_test_imports(tests_dir: str = TESTS) -> list[str]:
    """`file:line name` for every module-level import in a
    tests/test_*.py file whose bound name the file never reads."""
    out = []
    for f in sorted(os.listdir(tests_dir)):
        if not (f.startswith("test_") and f.endswith(".py")):
            continue
        with open(os.path.join(tests_dir, f)) as fh:
            tree = ast.parse(fh.read())
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update({a.asname or a.name: node.lineno for a in node.names})
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        out += [f"{f}:{line} {name}" for name, line in bound.items() if name not in read]
    return out


def test_no_unused_imports_in_tests():
    bad = unused_test_imports()
    assert not bad, "unused imports:\n" + "\n".join(bad)
