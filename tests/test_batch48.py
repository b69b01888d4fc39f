"""Batch-48: exact audience-overlap Jaccard matrix between event types."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_event_type_jaccard_matrix_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        event_type_jaccard_matrix,
        event_type_jaccard_matrix_sql,
    )

    mine = event_type_jaccard_matrix(SF)
    n_types = con.execute("SELECT COUNT(DISTINCT event_type) FROM events").fetchone()[0]
    assert len(mine) == n_types * (n_types - 1) // 2  # full upper triangle
    assert (mine["n_both"] <= mine[["n_a", "n_b"]].min(axis=1)).all()
    assert mine["jaccard_ppm"].between(0, 1_000_000).all()
    compare_twin(mine, con, event_type_jaccard_matrix_sql())


def test_jaccard_matrix_brute_force_one_pair(ray_session, con):
    """Spot-check one cell against raw set algebra in pandas."""
    from pdfrust_ray.pipelines.relational import event_type_jaccard_matrix

    mine = event_type_jaccard_matrix(SF)
    row = mine.iloc[0]
    df = con.execute("SELECT DISTINCT user_id, event_type FROM events").fetchdf()
    a = set(df.loc[df["event_type"] == row["type_a"], "user_id"])
    b = set(df.loc[df["event_type"] == row["type_b"], "user_id"])
    assert int(row["n_a"]) == len(a)
    assert int(row["n_b"]) == len(b)
    assert int(row["n_both"]) == len(a & b)
    assert int(row["jaccard_ppm"]) == len(a & b) * 1_000_000 // len(a | b)
