"""Batch-74: onion layers, Gale-Shapley stable matching."""

import numpy as np
import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_onion_oracle_and_serial_peel(ray_session, con):
    from pdfrust_ray.pipelines.relational import part_onion_layers, part_onion_layers_sql

    mine = part_onion_layers(SF)
    compare_twin(mine, con, part_onion_layers_sql())
    # serial O(n^2) peel
    pts = con.execute(
        "SELECT l_partkey, SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)), "
        "SUM(CAST(ROUND(l_quantity) AS BIGINT)) FROM lineitem GROUP BY 1"
    ).fetchall()
    remaining = {p: (r, q) for p, r, q in pts}
    layer = {}
    rnd = 0
    while remaining:
        rnd += 1
        peel = [
            p
            for p, (r, q) in remaining.items()
            if not any(
                (r2 >= r and q2 >= q and (r2 > r or q2 > q))
                for p2, (r2, q2) in remaining.items()
                if p2 != p
            )
        ]
        for p in peel:
            layer[p] = rnd
            del remaining[p]
    expect = pd.Series(layer).groupby(pd.Series(layer)).size()
    got = dict(zip(mine["layer"], mine["n_parts"]))
    assert got == {int(k): int(v) for k, v in expect.items()}
    # layer-1 membership == classic skyline
    n_total = sum(mine["n_parts"])
    assert n_total == len(pts)


def test_stable_matching_serial_and_stability(ray_session, con):
    from pdfrust_ray.pipelines.relational import supplier_part_stable_matching

    mine = supplier_part_stable_matching(SF)
    sup = np.sort(
        np.array([r[0] for r in con.execute("SELECT s_suppkey FROM supplier").fetchall()])
    )[:128]
    par = np.sort(
        np.array([r[0] for r in con.execute("SELECT p_partkey FROM part").fetchall()])
    )[:128]
    n = min(len(sup), len(par))
    sup, par = sup[:n], par[:n]
    sup_score = (sup[:, None] * 2654435761 + par[None, :] * 40503) % 997
    acc_score = (par[:, None] * 1610612741 + sup[None, :] * 7919) % 991
    sup_pref = np.lexsort((np.broadcast_to(par, (n, n)), sup_score), axis=1)
    acc_rank = np.empty((n, n), np.int64)
    acc_order = np.lexsort((np.broadcast_to(sup, (n, n)), acc_score), axis=1)
    for i in range(n):
        acc_rank[i, acc_order[i]] = np.arange(n)

    # textbook SERIAL Gale-Shapley (one proposal at a time)
    next_idx = [0] * n
    holder = [-1] * n
    free = list(range(n))
    while free:
        s = free.pop(0)
        p = int(sup_pref[s, next_idx[s]])
        next_idx[s] += 1
        if holder[p] < 0:
            holder[p] = s
        elif acc_rank[p, s] < acc_rank[p, holder[p]]:
            free.append(holder[p])
            holder[p] = s
        else:
            free.append(s)

    checksum = sum(int(sup[holder[p]]) * 131 + int(par[p]) for p in range(n))
    assert int(mine["n_matched"].iloc[0]) == n
    assert int(mine["match_checksum"].iloc[0]) == checksum

    # stability: no blocking pair (s prefers p to match AND p prefers s)
    part_of = {holder[p]: p for p in range(n)}
    sup_rank = np.empty((n, n), np.int64)
    for s in range(n):
        sup_rank[s, sup_pref[s]] = np.arange(n)
    for s in range(n):
        ps = part_of[s]
        for p in range(n):
            if p == ps:
                continue
            if sup_rank[s, p] < sup_rank[s, ps] and acc_rank[p, s] < acc_rank[p, holder[p]]:
                raise AssertionError(f"blocking pair supplier={s} part={p}")
