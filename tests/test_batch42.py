"""Batch-42 ops: distributed BFS levels (recursive-CTE oracle),
token-budget curriculum selection (two-phase scan on the score key)."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_part_bfs_levels_oracle(ray_session, con):
    from pdfrust_ray.pipelines.graph import part_bfs_levels, part_bfs_levels_sql

    mine = part_bfs_levels(SF)
    # level 0 is exactly the seed (the global min partkey)
    seed = con.execute("SELECT MIN(l_partkey) FROM lineitem").fetchone()[0]
    assert mine.iloc[0].tolist() == [0, 1, seed]
    # levels are contiguous from 0 and non-vacuous past the seed
    assert list(mine["lvl"]) == list(range(len(mine)))
    assert len(mine) >= 2
    compare_twin(mine, con, part_bfs_levels_sql())


def test_part_bfs_monotone_frontier(ray_session, con):
    """BFS partitions reached nodes: total reached == distinct parts in
    the seed's connected component truncated at depth; never exceeds
    the distinct part count."""
    from pdfrust_ray.pipelines.graph import part_bfs_levels

    mine = part_bfs_levels(SF)
    n_parts = con.execute("SELECT COUNT(DISTINCT l_partkey) FROM lineitem").fetchone()[0]
    assert int(mine["n_parts"].sum()) <= n_parts


def test_quality_budget_selection_oracle(ray_session, con):
    from pdfrust_ray.pipelines.llmdata import (
        quality_budget_selection,
        quality_budget_selection_sql,
    )

    mine = quality_budget_selection(SF)
    total = con.execute(
        r"""SELECT SUM(len(list_filter(string_split_regex(text, '\s+'),
                                       w -> w <> ''))) FROM documents"""
    ).fetchone()[0]
    # the selected prefix respects the half-corpus budget and is non-empty
    assert 0 < int(mine["n_tokens"].sum()) <= total // 2
    compare_twin(mine, con, quality_budget_selection_sql())
