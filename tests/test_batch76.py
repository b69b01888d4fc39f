"""Batch-76: consistent hashing, varint sizes, Merkle root."""

import hashlib

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_ring_oracle_and_consistency_guarantee(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import consistent_hash_ring, consistent_hash_ring_sql

    mine = consistent_hash_ring(SF)
    compare_twin(mine, con, consistent_hash_ring_sql())
    n_users = con.execute("SELECT COUNT(DISTINCT user_id) FROM events").fetchone()[0]
    assert int(mine["n_users_before"].sum()) == n_users
    assert int(mine["n_users_after"].sum()) == n_users
    # the consistent-hashing guarantee: movement only flows INTO the
    # new worker, so total moved-away == new worker's population
    new_worker = mine[mine["worker"] == 8]
    assert int(new_worker["n_users_before"].iloc[0]) == 0
    assert int(mine["n_moved_away"].sum()) == int(new_worker["n_users_after"].iloc[0])


def test_varint_oracle_and_real_encoding(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        varint_delta_size_audit,
        varint_delta_size_audit_sql,
    )

    mine = varint_delta_size_audit(SF)
    compare_twin(mine, con, varint_delta_size_audit_sql())

    def varint_len(x: int) -> int:
        n = 1
        while x >= 128:
            x >>= 7
            n += 1
        return n

    rows = con.execute(
        "SELECT user_id, event_id FROM events ORDER BY user_id, event_id"
    ).fetchall()
    per_user: dict[int, list[int]] = {}
    for u, e in rows:
        per_user.setdefault(u, []).append(e)
    for _, r in mine.iterrows():
        ids = per_user[int(r["user_id"])]
        deltas = [ids[0]] + [b - a for a, b in zip(ids, ids[1:])]
        assert int(r["varint_bytes"]) == sum(varint_len(d) for d in deltas)
        assert int(r["varint_bytes"]) <= int(r["raw_bytes"])


def test_merkle_oracle_and_sensitivity(ray_session, con):
    from pdfrust_ray.pipelines.relational import daily_merkle_root, daily_merkle_root_sql

    mine = daily_merkle_root(SF)
    compare_twin(mine, con, daily_merkle_root_sql())
    # recompute serially and flip one leaf — the root must change
    daily = con.execute(
        "SELECT epoch_us(ts)//86400000000, SUM(CAST(ROUND(value*100) AS BIGINT)) "
        "FROM events GROUP BY 1 ORDER BY 1"
    ).fetchall()

    def root(leaves):
        level = [hashlib.md5(f"{d}:{r}".encode()).hexdigest() for d, r in leaves]
        while len(level) > 1:
            nxt = [
                hashlib.md5((level[i] + level[i + 1]).encode()).hexdigest()
                for i in range(0, len(level) - 1, 2)
            ]
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    assert mine["merkle_root"].iloc[0] == root(daily)
    tampered = [(d, r + (1 if i == 3 else 0)) for i, (d, r) in enumerate(daily)]
    assert root(tampered) != root(daily)
