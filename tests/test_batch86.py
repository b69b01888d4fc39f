"""Batch-86: IRV winner, FFD compaction plan, prefix-trie size."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_irv_oracle_and_condorcet_sanity(ray_session, con):
    from collections import Counter

    from pdfrust_ray.pipelines.relational import type_irv_winner, type_irv_winner_sql

    mine = type_irv_winner(SF)
    compare_twin(mine, con, type_irv_winner_sql())
    # replay rounds independently and track tallies
    df = con.execute(
        "SELECT user_id, event_type, COUNT(*) c FROM events GROUP BY 1,2"
    ).fetchdf()
    ballots = [
        g.sort_values(["c", "event_type"], ascending=[False, True])["event_type"].tolist()
        for _, g in df.groupby("user_id")
    ]
    elim, rounds = set(), 0
    winner = None
    while winner is None:
        rounds += 1
        firsts = [next((t for t in b if t not in elim), None) for b in ballots]
        firsts = [f for f in firsts if f]
        cnt = Counter(firsts)
        top, topc = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if topc * 2 > len(firsts):
            winner = top
        else:
            elim.add(sorted(cnt.items(), key=lambda kv: (kv[1], kv[0]))[0][0])
    assert mine["winner"].iloc[0] == winner
    assert int(mine["n_rounds"].iloc[0]) == rounds
    # a type holding a first-round strict majority must win in round 1
    cnt0 = Counter(b[0] for b in ballots)
    for t, c in cnt0.items():
        if c * 2 > len(ballots):
            assert winner == t and rounds == 1


def test_ffd_oracle_and_packing_invariants(ray_session, con):
    from pdfrust_ray.pipelines.relational import compaction_ffd_plan, compaction_ffd_plan_sql

    mine = compaction_ffd_plan(SF)
    compare_twin(mine, con, compaction_ffd_plan_sql())
    sizes = [
        int(r[0]) * 100
        for r in con.execute(
            "SELECT COUNT(*) FROM events GROUP BY epoch_us(ts)//86400000000"
        ).fetchall()
    ]
    cap = 2 * max(sizes)
    n_bins = int(mine["n_bins"].iloc[0])
    total = sum(sizes)
    # lower bound ceil(total/cap) <= FFD <= 2*OPT <= 2*n_files
    assert -(-total // cap) <= n_bins <= len(sizes)
    # FFD never exceeds (11*OPT+6)/9 with OPT >= ceil(total/cap)
    opt_lb = -(-total // cap)
    assert 9 * n_bins <= 11 * max(opt_lb, 1) + 6 or n_bins <= opt_lb + len(sizes)
    assert int(mine["total_bytes"].iloc[0]) == total
    assert 0 <= int(mine["min_slack"].iloc[0]) < cap


def test_trie_oracle_and_explicit_trie(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        part_prefix_trie_stats,
        part_prefix_trie_stats_sql,
    )

    mine = part_prefix_trie_stats(SF)
    compare_twin(mine, con, part_prefix_trie_stats_sql())
    names = [r[0] for r in con.execute("SELECT DISTINCT p_name FROM part").fetchall()]
    # build the trie for real
    prefixes = {n[: k + 1] for n in names for k in range(len(n))}
    assert int(mine["trie_nodes"].iloc[0]) == len(prefixes)
    assert int(mine["n_parts"].iloc[0]) == len(names)
