"""Batch-93: Holt linear smoothing, blocking audit, int8 quant audit."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_holt_oracle_bit_identical_and_textbook_recursion(ray_session, con):
    from pdfrust_ray.pipelines.relational import daily_holt_linear, daily_holt_linear_sql

    mine = daily_holt_linear(SF)
    odf = con.execute(daily_holt_linear_sql()).fetchdf()
    assert mine["level"].tolist() == odf["level"].tolist()
    assert mine["trend"].tolist() == odf["trend"].tolist()
    compare_twin(mine, con, daily_holt_linear_sql())
    # serial textbook replay
    x = mine["x"].to_numpy(dtype=float)
    lv, tr = x[0], 0.0
    assert mine["level"].iloc[0] == lv and mine["trend"].iloc[0] == tr
    for i in range(1, len(x)):
        nl = (x[i] + (lv + tr)) / 2.0
        tr = ((nl - lv) + tr) / 2.0
        lv = nl
        assert mine["level"].iloc[i] == lv
        assert mine["trend"].iloc[i] == tr
    # a constant series settles: level -> x, trend -> 0 (sanity on maths)
    cst = np.full(10, 7.0)
    lv, tr = cst[0], 0.0
    for i in range(1, 10):
        nl = (cst[i] + (lv + tr)) / 2.0
        tr = ((nl - lv) + tr) / 2.0
        lv = nl
    assert abs(lv - 7.0) < 0.1 and abs(tr) < 0.1


def test_blocking_audit_oracle_and_combinatorics(ray_session, con):
    from pdfrust_ray.pipelines.relational import blocking_plan_audit, blocking_plan_audit_sql

    mine = blocking_plan_audit(SF)
    compare_twin(mine, con, blocking_plan_audit_sql())
    # finer blocking never increases candidates or coverage
    by = mine.set_index("strategy")
    assert int(by.loc["first_word+size", "candidate_pairs"]) <= int(
        by.loc["first_word", "candidate_pairs"]
    )
    assert int(by.loc["first_word+size", "covered_true_pairs"]) <= int(
        by.loc["first_word", "covered_true_pairs"]
    )
    # coverage can never exceed the truth or the candidates
    assert (mine["covered_true_pairs"] <= mine["total_true_pairs"]).all()
    assert (mine["covered_true_pairs"] <= mine["candidate_pairs"]).all()
    # brute-force first_word strategy over raw rows
    parts = con.execute("SELECT p_name, p_brand, p_type FROM part").fetchdf()
    blocks = parts["p_name"].str.split(" ").str[0]
    cand = sum(n * (n - 1) // 2 for n in blocks.value_counts())
    truth_in_block = parts.groupby([blocks, "p_brand", "p_type"]).size()
    cov = sum(n * (n - 1) // 2 for n in truth_in_block)
    assert int(by.loc["first_word", "candidate_pairs"]) == cand
    assert int(by.loc["first_word", "covered_true_pairs"]) == cov


def test_quant_audit_oracle_and_reconstruction_bounds(ray_session, con):
    from pdfrust_ray.stages.similarity import (
        embedding_int8_quant_audit,
        embedding_int8_quant_audit_sql,
    )

    mine = embedding_int8_quant_audit(SF)
    odf = con.execute(embedding_int8_quant_audit_sql()).fetchdf()
    assert mine["err"].tolist() == odf["err"].tolist()
    compare_twin(mine, con, embedding_int8_quant_audit_sql())
    # codes live in the int8 range; error bounded by half a step
    assert mine["q"].abs().max() <= 127
    # per-vec scale A: |err| <= A/254 + tiny fp slack
    emb = con.execute(
        "SELECT vec_id, list_max(list_transform(embedding, x -> abs(x))) AS a FROM embeddings"
    ).fetchdf().set_index("vec_id")["a"]
    for _, r in mine.sample(200, random_state=1).iterrows():
        a = float(emb.loc[int(r["vec_id"])]) or 1.0
        assert abs(r["err"]) <= a / 254 * (1 + 1e-9) + 1e-12
    # reconstruction identity holds exactly: orig == err + q*(A/127)
    for _, r in mine.head(50).iterrows():
        a = float(emb.loc[int(r["vec_id"])]) or 1.0
        assert r["orig"] == r["err"] + int(r["q"]) * (a / 127.0)
