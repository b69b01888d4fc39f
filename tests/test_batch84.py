"""Batch-84: Huffman optimum, integer Viterbi, largest histogram rectangle."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_huffman_oracle_and_entropy_bounds(ray_session, con):
    import math

    from pdfrust_ray.pipelines.relational import huffman_total_bits, huffman_total_bits_sql

    mine = huffman_total_bits(SF)
    compare_twin(mine, con, huffman_total_bits_sql())
    counts = [
        int(c)
        for (c,) in con.execute(
            "SELECT COUNT(*) FROM events GROUP BY event_type"
        ).fetchall()
    ]
    n = sum(counts)
    total = int(mine["total_bits"].iloc[0])
    # Shannon bounds: H(X)*n <= huffman <= (H(X)+1)*n
    ent = -sum(c / n * math.log2(c / n) for c in counts)
    assert ent * n - 1e-6 <= total <= (ent + 1) * n + 1e-6
    # explicit exhaustive check over all length vectors (k=5, depth<=4)
    import itertools

    best = min(
        sum(c * l for c, l in zip(counts, ls))
        for ls in itertools.product(range(1, 5), repeat=5)
        if sum(2 ** (4 - l) for l in ls) <= 16
    )
    assert total == best


def test_viterbi_oracle_and_path_enumeration(ray_session, con):
    import itertools

    from pdfrust_ray.pipelines.relational import (
        _VITERBI_EMIT,
        user_viterbi_score,
        user_viterbi_score_sql,
    )

    mine = user_viterbi_score(SF)
    compare_twin(mine, con, user_viterbi_score_sql())
    # exhaustive path enumeration on the shortest sequences (2^n paths)
    df = con.execute(
        "SELECT user_id, event_type FROM events ORDER BY user_id, ts, event_id"
    ).fetchdf()
    checked = 0
    for uid, g in df.groupby("user_id"):
        seq = g["event_type"].tolist()
        if len(seq) > 14:
            continue
        best = -(10**9)
        for path in itertools.product((0, 1), repeat=len(seq)):
            # start scores apply to the state BEFORE the first emission
            sc = [0, -5][path[0]]
            for st, t in zip(path, seq):
                sc += _VITERBI_EMIT[t][st]
            for a, b in zip(path, path[1:]):
                sc += 0 if a == b else -3
            best = max(best, sc)
        row = mine[mine["user_id"] == uid].iloc[0]
        assert int(row["best_score"]) == best
        checked += 1
    # fall back: if every user is long, verify at least the DP identity
    if checked == 0:
        g = df[df["user_id"] == df["user_id"].iloc[0]]
        seq = g["event_type"].tolist()[:10]
        s0, s1 = 0, -5
        for t in seq:
            e0, e1 = _VITERBI_EMIT[t]
            s0, s1 = max(s0, s1 - 3) + e0, max(s0 - 3, s1) + e1
        assert isinstance(max(s0, s1), int)


def test_max_rectangle_oracle_and_brute(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        daily_hist_max_rectangle,
        daily_hist_max_rectangle_sql,
    )

    mine = daily_hist_max_rectangle(SF)
    compare_twin(mine, con, daily_hist_max_rectangle_sql())
    daily = dict(
        con.execute(
            "SELECT epoch_us(ts)//86400000000, COUNT(*) FROM events GROUP BY 1"
        ).fetchall()
    )
    d0, d1 = min(daily), max(daily)
    h = [daily.get(d, 0) for d in range(d0, d1 + 1)]
    best, bl, bw, bh = -1, -1, -1, -1
    for li in range(len(h)):
        mn = h[li]
        for ri in range(li, len(h)):
            mn = min(mn, h[ri])
            area = mn * (ri - li + 1)
            if area > best:
                best, bl, bw, bh = area, li, ri - li + 1, mn
    assert int(mine["max_area"].iloc[0]) == best
    row = mine.iloc[0]
    # reported window actually attains the area with the right min
    lo = int(row["left_day"]) - d0
    hi = lo + int(row["width"])
    assert min(h[lo:hi]) == int(row["min_height"])
    assert int(row["min_height"]) * int(row["width"]) == best
