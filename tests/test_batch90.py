"""Batch-90: conv prefix forks, n-gram novelty, watermark late-event audit."""

import duckdb
import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_prefix_forks_oracle_and_planted_families(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_forks_fixture
    from pdfrust_ray.pipelines.conversation import conv_prefix_forks, conv_prefix_forks_sql

    base = ensure_forks_fixture()
    mine = conv_prefix_forks(base)
    compare_twin(mine, duckdb.connect(), conv_prefix_forks_sql(f"{base}/shards/*.parquet"))
    # non-vacuous: planted families must surface, solo convs must not
    assert len(mine) >= 10
    assert (mine["n_convs"] >= 2).all()
    assert mine["first_conv"].str.startswith("fork-").all()
    # branch factor never exceeds group size and is 0 only when every
    # member stops at the prefix
    assert (mine["n_branches"] <= mine["n_convs"]).all()
    # independently rebuild one family from the raw shards
    raw = duckdb.connect().execute(
        f"SELECT conv_id, turn_idx, text FROM read_parquet('{base}/shards/*.parquet') ORDER BY conv_id, turn_idx"
    ).fetchdf()
    fam0 = raw[raw["conv_id"].str.startswith("fork-000-")]
    members = fam0["conv_id"].unique()
    prefixes = {
        m: tuple(fam0[(fam0["conv_id"] == m) & (fam0["turn_idx"] < 3)]["text"])
        for m in members
    }
    assert len(set(prefixes.values())) == 1  # family shares its prefix
    grp = mine[mine["first_conv"] == "fork-000-0"]
    assert len(grp) == 1 and int(grp["n_convs"].iloc[0]) == len(members)


def test_ngram_novelty_oracle_and_brute_force(ray_session, con):
    from pdfrust_ray.pipelines.textops import (
        _word_ngrams,
        doc_ngram_novelty,
        doc_ngram_novelty_sql,
    )

    mine = doc_ngram_novelty(SF)
    compare_twin(mine, con, doc_ngram_novelty_sql())
    # brute-force novelty in doc_id order over the raw text
    docs = con.execute("SELECT doc_id, text FROM documents ORDER BY doc_id").fetchdf()
    seen: set = set()
    ref = {}
    for _, r in docs.iterrows():
        grams = set(_word_ngrams(r["text"], 3))
        if not grams:
            continue
        ref[int(r["doc_id"])] = (len(grams), len(grams - seen))
        seen |= grams
    got = {int(r["doc_id"]): (int(r["n_grams"]), int(r["n_novel"])) for _, r in mine.iterrows()}
    assert got == ref
    # novelty decays: the first doc is fully novel
    first = mine.iloc[0]
    assert int(first["n_novel"]) == int(first["n_grams"])


def test_late_event_audit_oracle_and_serial_replay(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import late_event_audit, late_event_audit_sql

    L = 3_600_000_000
    mine = late_event_audit(SF, lateness_us=L)
    compare_twin(mine, con, late_event_audit_sql(lateness_us=L))
    # serial single-process replay of the watermark semantics
    raw = con.execute(
        "SELECT event_id, event_type, epoch_us(ts) AS us FROM events ORDER BY event_id"
    ).fetchdf()
    wm = -(2**62)
    n_late: dict = {}
    max_lateness: dict = {}
    for _, r in raw.iterrows():
        ty, us = r["event_type"], int(r["us"])
        n_late.setdefault(ty, 0)
        max_lateness.setdefault(ty, 0)
        if us < wm - L:
            n_late[ty] += 1
            max_lateness[ty] = max(max_lateness[ty], wm - L - us)
        wm = max(wm, us)
    for _, r in mine.iterrows():
        assert int(r["n_late"]) == n_late[r["event_type"]]
        assert int(r["max_lateness_us"]) == max_lateness[r["event_type"]]
    assert int(mine["n"].sum()) == len(raw)
    # non-vacuous only if the fixture has out-of-order arrivals; assert
    # the audit at zero lateness flags every inversion
    zero = late_event_audit(SF, lateness_us=0)
    inversions = int(zero["n_late"].sum())
    dd = np.diff(raw["us"].to_numpy())
    assert inversions == int((raw["us"].to_numpy()[1:] < np.maximum.accumulate(raw["us"].to_numpy())[:-1]).sum())
    assert inversions > 0 or (dd >= 0).all()
