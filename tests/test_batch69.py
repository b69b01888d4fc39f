"""Batch-69: editdist drift, Mann-Kendall trend, Kendall concordance."""

from pdfrust_ray.fixtures.corpus import ensure_corpus
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_levenshtein_unit_matches_duckdb_bytes(con):
    from pdfrust_ray.pipelines.conversation import _levenshtein

    cases = [
        ("kitten", "sitting"),
        ("", "abc"),
        ("abc", ""),
        ("naïve", "naive"),  # multi-byte: DuckDB counts UTF-8 bytes
        ("flaw", "lawn"),
        ("same", "same"),
    ]
    for a, b in cases:
        assert _levenshtein(a, b) == con.execute(
            "SELECT levenshtein(?, ?)", [a, b]
        ).fetchone()[0]


def test_editdist_drift_oracle(ray_session, con):
    from pdfrust_ray.pipelines.conversation import (
        conv_editdist_drift,
        conv_editdist_drift_sql,
    )

    t2 = ensure_corpus("t2")
    mine = conv_editdist_drift(t2)
    compare_twin(mine, con, conv_editdist_drift_sql(f"{t2}/shards/*.parquet"))
    assert (mine["max_editdist"] <= mine["sum_editdist"]).all()
    assert (mine["n_pairs"] >= 1).all()


def test_mann_kendall_oracle_and_bounds(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        mann_kendall_daily_trend,
        mann_kendall_daily_trend_sql,
    )

    mine = mann_kendall_daily_trend(SF)
    compare_twin(mine, con, mann_kendall_daily_trend_sql())
    for _, r in mine.iterrows():
        nd = int(r["n_days"])
        assert abs(int(r["s_stat"])) <= nd * (nd - 1) // 2
        assert 0 <= int(r["var18"]) <= nd * (nd - 1) * (2 * nd + 5)


def test_kendall_concordance_oracle_and_consistency(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_kendall_concordance,
        user_kendall_concordance_sql,
    )

    mine = user_kendall_concordance(SF)
    compare_twin(mine, con, user_kendall_concordance_sql())
    assert (
        mine["n_concordant"] + mine["n_discordant"] + mine["n_ties"] == mine["n_pairs"]
    ).all()
    # with unique timestamps every user contributes exactly n*(n-1)/2 pairs
    counts = dict(
        con.execute("SELECT user_id, COUNT(*) FROM events GROUP BY 1").fetchall()
    )
    for _, r in mine.iterrows():
        n = counts[int(r["user_id"])]
        assert int(r["n_pairs"]) == n * (n - 1) // 2
