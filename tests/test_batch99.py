"""Batch-99: interval union coverage, EDF lateness, trigram selectivity."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_interval_union_oracle_and_bounds(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_interval_union,
        user_interval_union_sql,
    )

    mine = user_interval_union(SF)
    compare_twin(mine, con, user_interval_union_sql())
    # covered time is at most the sum of interval lengths and at least
    # the longest single interval; islands <= intervals
    assert (mine["n_islands"] <= mine["n_intervals"]).all()
    assert (mine["covered_s"] >= 60).all()
    # at least one user has overlapping intervals (union < naive sum)
    naive = con.execute(
        """SELECT user_id, SUM(60 + (CAST(ROUND(value*100) AS BIGINT) % 600)) s
           FROM events GROUP BY user_id ORDER BY user_id"""
    ).fetchdf()
    merged = mine.merge(naive, left_on="user_id", right_on="user_id")
    assert (merged["covered_s"] <= merged["s"]).all()
    assert (merged["covered_s"] < merged["s"]).any()


def test_interval_union_brute(ray_session):
    """Vectorized island sweep equals a brute per-second set union."""
    from pdfrust_ray.pipelines.relational import user_interval_union

    mine = user_interval_union(SF).set_index("user_id")
    con = duckdb.connect()
    rows = con.execute(
        f"""SELECT user_id, epoch_us(ts)//1000000 s,
                   CAST(ROUND(value*100) AS BIGINT) w
            FROM read_parquet('{SF}/events.parquet')
            WHERE user_id IN (SELECT user_id
                              FROM read_parquet('{SF}/events.parquet')
                              GROUP BY user_id ORDER BY user_id LIMIT 5)"""
    ).fetchall()
    by_user: dict = {}
    for u, s, w in rows:
        by_user.setdefault(u, []).append((s, s + 60 + w % 600))
    for u, ivs in by_user.items():
        base = min(s for s, _ in ivs)
        covered = set()
        for s, e in ivs:
            covered.update(range(s - base, e - base))
        assert int(mine.loc[u, "covered_s"]) == len(covered), u


def test_edf_oracle_and_jackson_optimality(ray_session, con):
    from pdfrust_ray.pipelines.relational import cust_edf_lateness, cust_edf_lateness_sql

    mine = cust_edf_lateness(SF)
    compare_twin(mine, con, cust_edf_lateness_sql())
    assert (mine["n_late"] <= mine["n_jobs"]).all()
    assert (mine["max_lateness_s"] >= 0).all()
    # Jackson's rule: EDF max lateness <= any other order's, checked by
    # brute permutation on small customers
    import itertools

    rows = con.execute(
        """SELECT o_custkey, o_orderkey,
                  epoch_us(o_orderdate)//86400000000 AS day,
                  60 + (CAST(ROUND(o_totalprice*100) AS BIGINT) % 3600) AS p
           FROM orders"""
    ).fetchall()
    by_c: dict = {}
    for c, k, day, p in rows:
        by_c.setdefault(c, []).append((k, day, p))
    small = [c for c, js in by_c.items() if 2 <= len(js) <= 5][:6]
    m = mine.set_index("o_custkey")
    for c in small:
        js = by_c[c]
        d0 = min(day for _, day, _ in js)
        jobs = [((day - d0 + 1) * 86400, p) for _, day, p in js]
        best = None
        for perm in itertools.permutations(jobs):
            t, worst = 0, -(10**18)
            for dl, p in perm:
                t += p
                worst = max(worst, t - dl)
            best = worst if best is None else min(best, worst)
        assert int(m.loc[c, "max_lateness_s"]) == max(best, 0), c


def test_trigram_oracle_and_df_semantics(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        part_trigram_selectivity,
        part_trigram_selectivity_sql,
    )

    mine = part_trigram_selectivity(SF)
    compare_twin(mine, con, part_trigram_selectivity_sql())
    assert len(mine) == 25
    # df counts each part once even when the trigram repeats in a name
    n_parts = con.execute("SELECT COUNT(*) FROM part").fetchone()[0]
    assert (mine["df"] <= n_parts).all()
    # python recount for the top trigram
    top, top_df = mine.iloc[0]["trigram"], int(mine.iloc[0]["df"])
    names = [r[0] for r in con.execute("SELECT p_name FROM part").fetchall()]
    assert top_df == sum(1 for nm in names if top in nm)
