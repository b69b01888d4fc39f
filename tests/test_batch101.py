"""Batch-101: ABC classification, join-cardinality audit, sentence census."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_abc_oracle_and_pareto_shape(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        part_abc_classification,
        part_abc_classification_sql,
    )

    mine = part_abc_classification(SF)
    compare_twin(mine, con, part_abc_classification_sql())
    by = mine.set_index("cls")
    total = int(mine["revenue_cents"].sum())
    n_parts = con.execute("SELECT COUNT(DISTINCT l_partkey) FROM lineitem").fetchone()[0]
    assert int(mine["n_parts"].sum()) == n_parts
    # class A holds at most 80% of revenue; A+B at most 95%
    assert int(by.loc["A", "revenue_cents"]) * 5 <= total * 4
    if "B" in by.index:
        assert (int(by.loc["A", "revenue_cents"]) + int(by.loc["B", "revenue_cents"])) * 20 <= total * 19
    # the A boundary is maximal: adding the best C/B part would break 80%
    # (equivalently the SQL window version agrees — covered by _cmp)
    assert set(mine["cls"]) <= {"A", "B", "C"}


def test_abc_bucket_scan_equals_driver_sort(ray_session, con):
    """The two-phase coarse-bucket scan equals a plain driver-side
    sort+cumsum classification."""
    from pdfrust_ray.pipelines.relational import part_abc_classification

    mine = part_abc_classification(SF).set_index("cls")
    rows = con.execute(
        """SELECT l_partkey, SUM(CAST(ROUND(l_extendedprice*100) AS BIGINT)) rev
           FROM lineitem GROUP BY 1 ORDER BY rev DESC, l_partkey"""
    ).fetchall()
    total = sum(r[1] for r in rows)
    cum, counts = 0, {"A": [0, 0], "B": [0, 0], "C": [0, 0]}
    for _, rev in rows:
        cum += rev
        cls = "A" if cum * 5 <= total * 4 else ("B" if cum * 20 <= total * 19 else "C")
        counts[cls][0] += 1
        counts[cls][1] += rev
    for cls, (n, rev) in counts.items():
        if n:
            assert int(mine.loc[cls, "n_parts"]) == n
            assert int(mine.loc[cls, "revenue_cents"]) == rev
        else:
            assert cls not in mine.index


def test_join_cardinality_oracle_and_fk_exactness(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        join_cardinality_audit,
        join_cardinality_audit_sql,
    )

    mine = join_cardinality_audit(SF)
    compare_twin(mine, con, join_cardinality_audit_sql())
    by = mine.set_index("join_name")
    # FK joins with full containment: actual == n_left exactly
    assert int(by.loc["orders_customer", "actual"]) == int(
        by.loc["orders_customer", "n_left"]
    )
    assert int(by.loc["lineitem_part", "actual"]) == int(by.loc["lineitem_part", "n_left"])
    # and the textbook estimate is then within rounding of actual
    for j in ("orders_customer", "lineitem_part", "lineitem_supplier"):
        est, actual = int(by.loc[j, "est"]), int(by.loc[j, "actual"])
        assert abs(est - actual) <= max(1, actual // 5), j


def test_sentence_census_oracle_and_recount(ray_session, con):
    from pdfrust_ray.pipelines.textops import doc_sentence_census, doc_sentence_census_sql

    mine = doc_sentence_census(SF)
    compare_twin(mine, con, doc_sentence_census_sql())
    # runs <= chars; python recount of runs for one lang
    assert (mine["n_sentence_runs"] <= mine["n_terminal_chars"]).all()
    import re

    texts = [
        r[0]
        for r in con.execute("SELECT text FROM documents WHERE lang='en'").fetchall()
    ]
    runs = sum(len(re.findall(r"[.!?]+", s)) for s in texts)
    assert int(mine.set_index("lang").loc["en", "n_sentence_runs"]) == runs
