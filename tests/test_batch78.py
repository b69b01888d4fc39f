"""Batch-78: queue replay, Cohen's kappa stats, Shannon-Fano-Elias lengths."""

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_queue_sim_oracle_and_explicit_replay(ray_session, con):
    from pdfrust_ray.pipelines.relational import queue_sim_wait_times, queue_sim_wait_times_sql

    mine = queue_sim_wait_times(SF)
    compare_twin(mine, con, queue_sim_wait_times_sql())
    # explicit D_i = max(A_i, D_{i-1}) + S recurrence must agree with
    # the closed-form cummax the engine uses
    a = np.sort(
        con.execute(
            "SELECT epoch_us(ts)//1000000 FROM events WHERE event_type='purchase'"
        ).fetchnumpy()["(epoch_us(ts) // 1000000)"]
    ).astype(np.int64)
    S = 300
    d_prev, total_w, max_w = -(10**18), 0, 0
    for ai in a:
        start = max(int(ai), d_prev)
        total_w += start - int(ai)
        max_w = max(max_w, start - int(ai))
        d_prev = start + S
    assert int(mine["n_arrivals"].iloc[0]) == len(a)
    assert int(mine["total_wait_s"].iloc[0]) == total_w
    assert int(mine["max_wait_s"].iloc[0]) == max_w
    assert int(mine["makespan_s"].iloc[0]) == d_prev - int(a[0])


def test_kappa_oracle_and_brute(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        label_agreement_kappa,
        label_agreement_kappa_sql,
    )

    mine = label_agreement_kappa(SF)
    compare_twin(mine, con, label_agreement_kappa_sql())
    df = con.execute("SELECT n_chars, lang FROM documents").fetchdf()
    n = len(df)
    med = int(np.sort(df["n_chars"].to_numpy())[(n + 1) // 2 - 1])
    a = (df["n_chars"] > med).to_numpy()
    b = (df["lang"] == "en").to_numpy()
    n11 = int((a & b).sum())
    n00 = int((~a & ~b).sum())
    n10 = int((a & ~b).sum())
    n01 = int((~a & b).sum())
    assert int(mine["n_long_en"].iloc[0]) == n11
    assert int(mine["po_num"].iloc[0]) == n11 + n00
    assert int(mine["pe_num"].iloc[0]) == (n11 + n10) * (n11 + n01) + (n00 + n01) * (
        n00 + n10
    )
    # kappa in [-1, 1] as a rational
    po, pe = n11 + n00, int(mine["pe_num"].iloc[0])
    assert -(n * n - pe) <= n * po - pe <= n * n - pe


def test_sfe_oracle_kraft_and_formula(ray_session, con):
    from pdfrust_ray.pipelines.relational import sfe_code_lengths, sfe_code_lengths_sql

    mine = sfe_code_lengths(SF)
    compare_twin(mine, con, sfe_code_lengths_sql())
    n = int(mine["cnt"].sum())
    lmax = int(mine["code_len"].max())
    # len = ceil(log2(n/c)) + 1, checked by integer bounds
    for _, r in mine.iterrows():
        k = int(r["code_len"]) - 1
        assert int(r["cnt"]) * (1 << k) >= n
        assert k == 0 or int(r["cnt"]) * (1 << (k - 1)) < n
        assert int(r["kraft_num"]) == 1 << (lmax - k - 1)
    # Shannon-Fano-Elias codes always satisfy Kraft strictly with the +1
    assert int(mine["kraft_num"].sum()) <= 1 << lmax
