"""Batch-81: Hungarian assignment, Booth minimal rotation, (s,S) inventory."""

import itertools

import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_assignment_oracle_and_itertools_brute(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        min_cost_assignment,
        min_cost_assignment_sql,
    )

    mine = min_cost_assignment(SF)
    compare_twin(mine, con, min_cost_assignment_sql())
    df = con.execute(
        "SELECT l_suppkey s, l_partkey p, CAST(ROUND(l_quantity) AS BIGINT) q FROM lineitem"
    ).fetchdf()
    sup = (
        df.groupby("s")["q"].sum().reset_index().sort_values(["q", "s"], ascending=[False, True])
    )["s"].head(6).tolist()
    prt = (
        df.groupby("p")["q"].sum().reset_index().sort_values(["q", "p"], ascending=[False, True])
    )["p"].head(6).tolist()
    cell = df.groupby(["s", "p"])["q"].sum()
    mat = [[int(cell.get((si, pj), 0)) for pj in prt] for si in sup]
    best = max(
        sum(mat[i][perm[i]] for i in range(6)) for perm in itertools.permutations(range(6))
    )
    assert int(mine["max_total_qty"].iloc[0]) == best


def test_hungarian_random_matrices_vs_brute(ray_session):
    from pdfrust_ray.pipelines.relational import _hungarian_min

    rng = np.random.default_rng(7)
    for _ in range(25):
        k = int(rng.integers(2, 7))
        m = rng.integers(-50, 50, size=(k, k)).tolist()
        brute = min(
            sum(m[i][p[i]] for i in range(k)) for p in itertools.permutations(range(k))
        )
        assert _hungarian_min(m) == brute


def test_min_rotation_oracle_and_naive(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_type_min_rotation,
        user_type_min_rotation_sql,
    )

    mine = user_type_min_rotation(SF)
    compare_twin(mine, con, user_type_min_rotation_sql())
    df = con.execute(
        "SELECT user_id, event_type FROM events ORDER BY user_id, ts, event_id"
    ).fetchdf()
    for uid, g in df.groupby("user_id"):
        s = g["event_type"].tolist()
        rots = [(tuple(s[i:] + s[:i]), i) for i in range(len(s))]
        best_rot, best_i = min(rots)
        row = mine[mine["user_id"] == uid].iloc[0]
        assert int(row["rot_i"]) == best_i
        assert row["min_rot"] == ",".join(best_rot)


def test_inventory_oracle_and_explicit_replay(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        inventory_policy_replay,
        inventory_policy_replay_sql,
    )

    mine = inventory_policy_replay(SF)
    compare_twin(mine, con, inventory_policy_replay_sql())
    dem = con.execute(
        "SELECT epoch_us(ts)//86400000000 d, COUNT(*) c FROM events"
        " WHERE event_type='purchase' GROUP BY 1 ORDER BY 1"
    ).fetchdf()["c"].astype(int).tolist()
    stock, repl, lost = 250, 0, 0
    for d in dem:
        lost += max(d - stock, 0)
        stock = max(stock - d, 0)
        if stock <= 100:
            stock, repl = 250, repl + 1
    assert int(mine["n_days"].iloc[0]) == len(dem)
    assert int(mine["n_replenish"].iloc[0]) == repl
    assert int(mine["total_lost"].iloc[0]) == lost
    assert int(mine["end_stock"].iloc[0]) == stock
    # conservation: stock never negative, replenish count bounded by days
    assert 0 <= stock <= 250 and repl <= len(dem)
