"""Batch-63: bipartite assortativity stats, cluster language purity."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_bipartite_assortativity_oracle(ray_session, con):
    from pdfrust_ray.pipelines.graph import (
        bipartite_assortativity_stats,
        bipartite_assortativity_stats_sql,
    )

    mine = bipartite_assortativity_stats(SF)
    compare_twin(mine, con, bipartite_assortativity_stats_sql())
    n, sx, sy, sxx, syy, sxy = (int(mine[c].iloc[0]) for c in mine.columns)
    # n == number of distinct edges; degree sums bounded by n * max-degree
    n_edges = con.execute(
        "SELECT COUNT(*) FROM (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem)"
    ).fetchone()[0]
    assert n == n_edges
    assert (n * sxx - sx * sx) >= 0 and (n * syy - sy * sy) >= 0


def test_cluster_lang_purity_oracle(ray_session, con):
    from pdfrust_ray.stages.dedup import (
        cluster_lang_purity,
        cluster_lang_purity_sql,
        dedup_clusters,
    )

    mine = cluster_lang_purity(SF)
    clusters = dedup_clusters(SF)
    # histogram mass == number of clusters
    assert int(mine["n_clusters"].sum()) == clusters["cluster_id"].nunique()
    compare_twin(mine, con, cluster_lang_purity_sql())
