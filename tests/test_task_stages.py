"""Every map stage of the engine is a Ray Data task stage.

A class handed to map_batches makes Ray Data start an actor pool (a
fresh worker process plus its ActorLocationTracker) for each Dataset
execution. No stage of this engine keeps per-worker state that a task
cannot rebuild, so the engine mounts every stage as a task: a
function, or an instance of a callable class. The static guard keeps
it that way; the runtime test runs one former pool stage from each
module and checks that no actor starts and that every result still
equals its SQL twin or its pinned expectation.
"""

import ast
import gc
import os

import pytest

from test_ops import SF

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(REPO, "pdfrust_ray")
MAP_METHODS = {"map", "map_batches", "flat_map", "map_groups"}


def _modules(pkg: str):
    for dirpath, _, files in os.walk(pkg):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                with open(path) as fh:
                    yield os.path.relpath(path, os.path.dirname(pkg)), ast.parse(fh.read())


def _literal(node) -> bool:
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return False
    return True


def stage_mount_violations(pkg: str = PKG) -> list[str]:
    """`path:line reason` for every map call in `pkg` that mounts a
    class, passes constructor arguments, or fixes its concurrency to a
    literal."""
    modules = list(_modules(pkg))
    classes = {n.name for _, tree in modules for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    out = []
    for path, tree in modules:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            kw = {k.arg: k.value for k in call.keywords}
            where = f"{path}:{call.lineno}"
            is_map = isinstance(call.func, ast.Attribute) and call.func.attr in MAP_METHODS
            fn = call.args[0] if call.args else kw.get("fn")
            if is_map and isinstance(fn, ast.Name) and fn.id in classes:
                out.append(f"{where} mounts class {fn.id}")
            for arg in ("fn_constructor_args", "fn_constructor_kwargs"):
                if arg in kw:
                    out.append(f"{where} passes {arg}")
            if "concurrency" in kw and _literal(kw["concurrency"]):
                out.append(f"{where} fixes concurrency={ast.unparse(kw['concurrency'])}")
    return out


def test_no_class_mounted_stage_or_fixed_concurrency():
    bad = stage_mount_violations()
    assert not bad, "\n".join(bad)


@pytest.mark.skipif(not os.path.isdir(SF), reason="testdata not available")
def test_former_pool_stages_start_no_actor(ray_session, con):
    """One former actor-pool stage per module runs with the cyclic
    garbage collector off: no Ray actor starts, and each result equals
    its SQL twin (media_features: its decode expectations)."""
    import ray
    from ray._private import state

    import __ray_entry__ as entry
    from tools.contract_check import _canon
    from pdfrust_ray.pipelines import graph, llmdata, quality, relational, textops
    from pdfrust_ray.stages import dedup, multimodal, similarity

    twins = {
        "token_counts": textops.token_counts,
        "segment_revenue": relational.segment_revenue,
        "soft_dedup_reweight": dedup.soft_dedup_reweight,
        "ann_topk": similarity.brute_force_topk,
        "bigram_lm_scores": quality.bigram_lm_scores,
        "dsir_select": llmdata.dsir_select,
        "bipartite_assortativity_stats": graph.bipartite_assortativity_stats,
    }
    media = multimodal.synthesize_media_table(n=12)

    # Ray Data's session-wide helpers (its stats actor and autoscaling
    # requester) start with a session's first Dataset execution
    ray.data.range(1).materialize()
    before = set(state.actors())
    gc.disable()
    try:
        got = {name: op(SF) for name, op in twins.items()}
        feats = multimodal.media_features(media).to_pandas()
        started = set(state.actors()) - before
    finally:
        gc.enable()
    assert not started, [state.actors()[a]["ActorClassName"] for a in started]

    sql = entry.oracle_sql()
    for name, mine in got.items():
        want = con.execute(sql[name]).df()
        assert len(mine) == len(want) > 0, name
        assert _canon(mine) == _canon(want), name

    assert len(feats) == 12 and (feats["decode_status"] == "ok").all()
    meta = media.to_pandas()[["media_id", "width", "height"]]
    j = feats.merge(meta, on="media_id", suffixes=("", "_meta"))
    img = j[j["kind"] != "audio"]
    assert (img["width"] == img["width_meta"]).all()
    assert (img["height"] == img["height_meta"]).all()


def test_worker_value_fetches_once_per_worker(ray_session):
    """A dict broadcast read through worker_value is fetched (and its
    `make` run) once per worker process, not once per batch; the memo
    keeps the last _SLOTS refs only."""
    import uuid

    import pyarrow as pa
    import ray

    from pdfrust_ray.stages import broadcast

    ref = ray.put({i: i * i for i in range(1000)})

    def stage(t: pa.Table) -> pa.Table:
        squares, fetch_id = broadcast.worker_value(ref, lambda v: (v, uuid.uuid4().hex))
        ids = t["id"].to_pylist()
        return pa.table(
            {
                "sq": pa.array([squares[i] for i in ids], pa.int64()),
                "pid": pa.array([os.getpid()] * len(ids), pa.int64()),
                "fetch_id": pa.array([fetch_id] * len(ids), pa.string()),
            }
        )

    out = ray.data.range(1000).map_batches(stage, batch_format="pyarrow", batch_size=25)
    df = out.to_pandas()
    assert sorted(df["sq"]) == [i * i for i in range(1000)]
    # 40 batches; each worker process fetched exactly once
    assert (df.groupby("pid")["fetch_id"].nunique() == 1).all()
    assert df["fetch_id"].nunique() == df["pid"].nunique() < 40

    refs = [ray.put(i) for i in range(broadcast._SLOTS + 1)]
    assert [broadcast.worker_value(r) for r in refs] == list(range(broadcast._SLOTS + 1))
    assert refs[0].hex() not in broadcast._memo
    assert all(r.hex() in broadcast._memo for r in refs[1:])
