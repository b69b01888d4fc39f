"""Batch-80: Simpson's paradox audit, OHLC Donchian, KMP smallest period."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_simpson_oracle_and_bigint_brute(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        simpson_paradox_audit,
        simpson_paradox_audit_sql,
    )

    mine = simpson_paradox_audit(SF)
    compare_twin(mine, con, simpson_paradox_audit_sql())
    df = con.execute(
        "SELECT n.n_name, CAST(ROUND(o.o_totalprice*100) AS BIGINT) AS x,"
        " CAST(ROUND(c.c_acctbal*100) AS BIGINT) AS y"
        " FROM orders o JOIN customer c ON o.o_custkey=c.c_custkey"
        " JOIN nation n ON n.n_nationkey=c.c_nationkey"
    ).fetchdf()
    xs = [int(v) for v in df["x"]]
    ys = [int(v) for v in df["y"]]
    n = len(xs)
    pooled = n * sum(a * b for a, b in zip(xs, ys)) - sum(xs) * sum(ys)
    sp = (pooled > 0) - (pooled < 0)
    for _, r in mine.iterrows():
        sub = df[df["n_name"] == r["n_name"]]
        gx = [int(v) for v in sub["x"]]
        gy = [int(v) for v in sub["y"]]
        cv = len(gx) * sum(a * b for a, b in zip(gx, gy)) - sum(gx) * sum(gy)
        sw = (cv > 0) - (cv < 0)
        assert int(r["sign_within"]) == sw
        assert int(r["sign_pooled"]) == sp
        assert int(r["paradox"]) == int(sw != 0 and sw == -sp)
        assert int(r["n_cust_orders"]) == len(sub)


def test_ohlc_donchian_oracle_and_brute(ray_session, con):
    from pdfrust_ray.pipelines.relational import daily_ohlc_donchian, daily_ohlc_donchian_sql

    mine = daily_ohlc_donchian(SF)
    compare_twin(mine, con, daily_ohlc_donchian_sql())
    df = con.execute(
        "SELECT epoch_us(ts)//86400000000 AS day, epoch_us(ts) AS us, event_id,"
        " CAST(ROUND(value*100) AS BIGINT) AS c FROM events"
    ).fetchdf()
    highs = {}
    for day, g in df.groupby("day"):
        g = g.sort_values(["us", "event_id"])
        row = mine[mine["day"] == day].iloc[0]
        assert int(row["open_c"]) == int(g["c"].iloc[0])
        assert int(row["close_c"]) == int(g["c"].iloc[-1])
        assert int(row["high_c"]) == int(g["c"].max())
        assert int(row["low_c"]) == int(g["c"].min())
        highs[int(day)] = int(g["c"].max())
    for _, row in mine.iterrows():
        prev = [highs[d] for d in range(int(row["day"]) - 7, int(row["day"])) if d in highs]
        expect = int(bool(prev) and int(row["high_c"]) > max(prev))
        assert int(row["breakout"]) == expect


def test_user_period_oracle_and_naive(ray_session, con):
    from pdfrust_ray.pipelines.relational import user_type_period, user_type_period_sql

    mine = user_type_period(SF)
    compare_twin(mine, con, user_type_period_sql())
    df = con.execute(
        "SELECT user_id, event_type FROM events ORDER BY user_id, ts, event_id"
    ).fetchdf()
    for uid, g in df.groupby("user_id"):
        s = g["event_type"].tolist()
        n = len(s)
        p = next(
            pp for pp in range(1, n + 1) if all(s[i] == s[i + pp] for i in range(n - pp))
        )
        row = mine[mine["user_id"] == uid].iloc[0]
        assert int(row["seq_len"]) == n
        assert int(row["period"]) == p
    # fine-structure lemma: if period divides n, the string is a power
    for _, r in mine.iterrows():
        if int(r["seq_len"]) % int(r["period"]) == 0:
            g = df[df["user_id"] == r["user_id"]]["event_type"].tolist()
            p = int(r["period"])
            assert g == g[:p] * (len(g) // p)
