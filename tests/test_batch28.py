"""Batch-28 ops: weighted percentiles, split-leakage scan, coverage
selection."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_weighted_median_k_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import weighted_median_k, weighted_median_k_sql

    mine = weighted_median_k(SF)
    assert mine["pct"].tolist() == [25, 50, 75]
    assert mine["weighted_k"].is_monotonic_increasing
    compare_twin(mine, con, weighted_median_k_sql())


def test_split_leakage_scan_oracle(ray_session, con):
    from pdfrust_ray.stages.dedup import split_leakage_scan, split_leakage_scan_sql

    mine = split_leakage_scan(SF)
    # the scan finds CROSS-split near-dup pairs on the fixture (the
    # hash split ignores content, so some dups straddle the boundary)
    cross = mine[mine["split_a"] != mine["split_b"]]
    assert int(cross["n_pairs"].sum()) > 0
    compare_twin(mine, con, split_leakage_scan_sql())


def test_coverage_selection_serial_recompute(ray_session):
    import hashlib

    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.llmdata import coverage_selection

    mine = coverage_selection(SF)
    # serial greedy recompute
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    sets = {}
    for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        words = [w for w in txt.split(" ") if w != ""]
        sets[did] = {
            int.from_bytes(hashlib.md5(f"{a} {b}".encode()).digest()[:8], "big") >> 1
            for a, b in zip(words, words[1:])
        }
    universe = set().union(*sets.values())
    target = len(universe) * 95 // 100
    covered: set = set()
    picked = []
    while len(covered) < target:
        best_doc, best_gain = None, -1
        for did in sorted(sets):
            gain = len(sets[did] - covered)
            if gain > best_gain:
                best_doc, best_gain = did, gain
        if best_gain <= 0:
            break
        new = sets[best_doc] - covered
        covered |= new
        picked.append((best_doc, len(new), len(covered)))
    assert mine[["doc_id", "new_bigrams", "cum_covered"]].values.tolist() == [
        list(p) for p in picked
    ]


def test_coverage_selection_reaches_target(ray_session):
    from pdfrust_ray.pipelines.llmdata import coverage_selection

    mine = coverage_selection(SF)
    assert mine["cum_covered"].is_monotonic_increasing
    # strictly fewer docs than the corpus achieve 95% coverage
    assert 0 < len(mine) < 500
