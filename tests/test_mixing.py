"""doremi_fixedpoint: exact recursive-CTE twin, DRO dynamics on a
planted two-domain corpus, eta=0 degeneracy."""

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_doremi_twin_exact(ray_session, con):
    from pdfrust_ray.pipelines.mixing import doremi_fixedpoint, doremi_fixedpoint_sql

    mine = doremi_fixedpoint(SF)
    compare_twin(mine, con, doremi_fixedpoint_sql())
    # ppm weights sum to ~1e6 (truncation loses < n_sources ppm)
    assert 0 <= 1_000_000 - int(mine["weight_ppm"].sum()) < len(mine)


def test_doremi_eta_zero_uniform(ray_session):
    from pdfrust_ray.pipelines.mixing import doremi_fixedpoint

    u = doremi_fixedpoint(SF, eta=0)
    assert u["weight_ppm"].nunique() == 1


def test_doremi_dro_dynamics_planted(ray_session, tmp_path, con):
    """A domain made of globally-rare vocabulary has higher surprisal
    and must GAIN weight; the common-vocab domain must lose it. The
    twin stays exact on the planted corpus too."""
    from pdfrust_ray.pipelines.mixing import doremi_fixedpoint, doremi_fixedpoint_sql

    common = ("the cat sat on the mat " * 20).strip()
    rare = " ".join(f"xylo{i} quixotic{i} zephyr{i}" for i in range(40))
    rows = []
    for i in range(30):
        rows.append((i, common, "en", "easy", len(common)))
    for i in range(30, 40):
        rows.append((i, rare, "en", "hard", len(rare)))
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows]),
            "lang": pa.array([r[2] for r in rows]),
            "source": pa.array([r[3] for r in rows]),
            "n_chars": pa.array([r[4] for r in rows], pa.int64()),
        }
    )
    d = tmp_path / "planted"
    d.mkdir()
    pq.write_table(t, d / "documents.parquet")

    out = doremi_fixedpoint(str(d), rounds=30, eta=200)
    w = dict(zip(out["source"], out["weight_ppm"]))
    lam = dict(zip(out["source"], out["excess_micro_nats"]))
    assert lam["hard"] > lam["easy"] == 0
    assert w["hard"] > 500_000 > w["easy"]

    c2 = duckdb.connect()
    c2.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    compare_twin(out, c2, doremi_fixedpoint_sql(rounds=30, eta=200))


def test_doremi_mix_plan_twin_and_invariants(ray_session, con):
    from pdfrust_ray.pipelines.mixing import doremi_mix_plan, doremi_mix_plan_sql

    for kw in ({}, {"budget": 100_000, "epochs": 1}):
        mine = doremi_mix_plan(SF, **kw)
        compare_twin(mine, con, doremi_mix_plan_sql(**kw))
        budget = kw.get("budget", 20_000)
        # allocation exhausts the budget or the capacity, never exceeds caps
        assert (mine["alloc_tokens"] <= mine["cap_tokens"]).all()
        assert int(mine["alloc_tokens"].sum()) == min(
            budget, int(mine["cap_tokens"].sum())
        )


def test_doremi_mix_plan_spill_order(ray_session):
    """When capping frees budget, the spill goes to the hardest
    (highest-excess) uncapped source first."""
    from pdfrust_ray.pipelines.mixing import doremi_mix_plan

    out = doremi_mix_plan(SF, budget=10_000, epochs=1)
    spilled = out[out["alloc_tokens"] > out["target_tokens"]]
    if len(spilled):
        # every source harder than a spilled one is itself capped or spilled
        min_spill_lam = int(spilled["excess_micro_nats"].min())
        harder = out[out["excess_micro_nats"] > min_spill_lam]
        assert (
            (harder["alloc_tokens"] == harder["cap_tokens"])
            | (harder["alloc_tokens"] > harder["target_tokens"])
        ).all()


def test_length_bucketed_batch_plan(ray_session, con):
    """Twin exactness + the padded-cost guarantee: every multi-doc
    batch stays within budget, and within a batch the first member is
    its longest."""
    from pdfrust_ray.pipelines.llmdata import (
        length_bucketed_batch_plan,
        length_bucketed_batch_plan_sql,
    )

    mine = length_bucketed_batch_plan(SF)
    compare_twin(mine, con, length_bucketed_batch_plan_sql())
    for (_, _), g in mine.groupby(["bucket", "batch_id"]):
        g = g.sort_values("batch_pos")
        assert list(g["batch_pos"]) == list(range(len(g)))
        assert int(g["n_tokens"].iloc[0]) == int(g["n_tokens"].max())
        if len(g) > 1:
            assert int(g["n_tokens"].max()) * len(g) <= 512


def test_pad_efficiency_report(ray_session, con):
    """Twin exactness + cross-consistency with the per-doc plan."""
    from pdfrust_ray.pipelines.llmdata import (
        length_bucketed_batch_plan,
        pad_efficiency_report,
        pad_efficiency_report_sql,
    )

    rep = pad_efficiency_report(SF)
    compare_twin(rep, con, pad_efficiency_report_sql())
    plan = length_bucketed_batch_plan(SF)
    for _, r in rep.iterrows():
        g = plan[plan["bucket"] == int(r["bucket"])]
        assert len(g) == int(r["n_docs"])
        assert int(g["batch_id"].nunique()) == int(r["n_batches"])
        assert int(g["n_tokens"].sum()) == int(r["real_tokens"])
        cost = g.groupby("batch_id").apply(
            lambda b: int(b["n_tokens"].max()) * len(b), include_groups=False
        )
        assert int(cost.sum()) == int(r["padded_tokens"])
    assert (rep["efficiency_ppm"] <= 1_000_000).all()
    assert (rep["real_tokens"] <= rep["padded_tokens"]).all()
