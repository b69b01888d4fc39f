"""Batch-128: session-timeout sensitivity, lang char-bigram fingerprint."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_session_timeout_sensitivity_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        session_timeout_sensitivity,
        session_timeout_sensitivity_sql,
    )

    mine = session_timeout_sensitivity(SF)
    compare_twin(mine, con, session_timeout_sensitivity_sql())
    # monotone: larger timeout -> fewer or equal sessions
    assert mine["n_sessions"].is_monotonic_decreasing
    # asymptotes: huge timeout -> one session per user; tiny timeout ->
    # nearly one session per event
    users, rows = con.execute(
        "SELECT COUNT(DISTINCT user_id), COUNT(*) FROM events"
    ).fetchone()
    assert int(mine["n_sessions"].iloc[-1]) >= users
    assert int(mine["n_sessions"].iloc[0]) <= rows
    assert (mine["n_sessions"] == mine["n_users"] + mine["n_breaks"]).all()


def test_session_sensitivity_agrees_with_gap_histogram(ray_session, con):
    # n_breaks at threshold t must equal the gap histogram mass above t
    from pdfrust_ray.pipelines.relational import (
        events_gap_log2_histogram,
        session_timeout_sensitivity,
    )

    sens = session_timeout_sensitivity(SF).set_index("threshold_s")
    hist = events_gap_log2_histogram(SF)
    # threshold 2^k: gaps strictly greater than 2^k
    for t in (1, 64, 4096):
        above = int(hist.loc[hist["gap_lo_s"] > t, "n"].sum())
        # gaps in the bucket containing t: count exactly via oracle
        partial = con.execute(
            f"""
            WITH nxt AS (
                SELECT user_id, epoch_us(ts) AS us,
                       LEAD(epoch_us(ts)) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id) AS nus
                FROM events
            )
            SELECT COUNT(*) FROM nxt
            WHERE nus IS NOT NULL AND (nus - us) // 1000000 > {t}
            """
        ).fetchone()[0]
        assert int(sens.loc[t, "n_breaks"]) == partial
        assert partial >= above


def test_lang_char_bigram_fingerprint_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        lang_char_bigram_fingerprint,
        lang_char_bigram_fingerprint_sql,
    )

    mine = lang_char_bigram_fingerprint(SF)
    compare_twin(mine, con, lang_char_bigram_fingerprint_sql())
    # 10 ranked bigrams per language, counts non-increasing
    assert (mine.groupby("lang").size() == 10).all()
    for _, g in mine.groupby("lang"):
        assert (g["n"].diff().dropna() <= 0).all()
