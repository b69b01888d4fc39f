"""Batch-72: dictionary matching, de Bruijn balance, secretary replay."""

import pandas as pd
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_dictionary_match_oracle_and_brute(ray_session, con):
    from pdfrust_ray.pipelines.textops import (
        _MATCH_LEXICON,
        dictionary_match_counts,
        dictionary_match_counts_sql,
    )

    mine = dictionary_match_counts(SF)
    compare_twin(mine, con, dictionary_match_counts_sql())
    texts = [r[0] for r in con.execute("SELECT text FROM documents").fetchall()]
    got = mine.set_index("pattern")
    for pat in _MATCH_LEXICON:
        occ = sum(s.count(pat) for s in texts)
        docs = sum(1 for s in texts if pat in s)
        assert int(got.loc[pat, "n_occurrences"]) == occ
        assert int(got.loc[pat, "n_docs"]) == docs
        assert docs <= occ  # each containing doc has >= 1 occurrence


def test_debruijn_oracle_and_euler_algebra(ray_session, con):
    from pdfrust_ray.pipelines.graph import (
        event_debruijn_balance,
        event_debruijn_balance_sql,
    )

    mine = event_debruijn_balance(SF)
    compare_twin(mine, con, event_debruijn_balance_sql())
    # total out-degree mass == total in-degree mass == trigram count
    n_tri = con.execute(
        """
        SELECT COUNT(*) FROM (
            SELECT LAG(event_type) OVER w AS t1,
                   LEAD(event_type) OVER w AS t3
            FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
        ) WHERE t1 IS NOT NULL AND t3 IS NOT NULL
        """
    ).fetchone()[0]
    assert int(mine["out_deg"].sum()) == n_tri
    assert int(mine["in_deg"].sum()) == n_tri


def test_secretary_oracle_and_rule(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        secretary_rule_replay,
        secretary_rule_replay_sql,
    )

    mine = secretary_rule_replay(SF)
    compare_twin(mine, con, secretary_rule_replay_sql())
    daily = con.execute(
        "SELECT CAST(date_trunc('day', ts) AS TIMESTAMP), "
        "SUM(CAST(ROUND(value*100) AS BIGINT)) FROM events GROUP BY 1 ORDER BY 1"
    ).fetchall()
    n = len(daily)
    k = n * 37 // 100
    assert int(mine["n_days"].iloc[0]) == n and int(mine["k_observe"].iloc[0]) == k
    th = max(r for _, r in daily[:k])
    expect = next(((d, r) for d, r in daily[k:] if r > th), daily[-1])
    assert pd.Timestamp(mine["chosen_day"].iloc[0]) == pd.Timestamp(expect[0])
    assert int(mine["chosen_revenue_cents"].iloc[0]) == int(expect[1])
