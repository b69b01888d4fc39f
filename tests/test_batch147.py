"""Batch-147: priority-inversion census + returns p-chart audit."""


SF = "/root/testdata/sf0.001"


def test_priority_inversion_brute(ray_session):
    from pdfrust_ray.pipelines.relational import priority_inversion_census
    import pyarrow.parquet as pq

    out = priority_inversion_census(SF)
    o = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    li = pq.read_table(
        f"{SF}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    ).to_pandas()
    fs = li.groupby("l_orderkey")["l_shipdate"].min()
    o = o[o["o_orderkey"].isin(fs.index)]
    o["first_ship"] = o["o_orderkey"].map(fs)
    o["prio"] = o["o_orderpriority"].str[0].astype(int)
    cid = out["custkey"].iloc[0]
    g = o[o["o_custkey"] == cid]
    pairs = inv = 0
    recs = list(zip(g["o_orderdate"], g["prio"], g["first_ship"]))
    for a in recs:
        for b in recs:
            if a[0] < b[0] and a[1] < b[1]:
                pairs += 1
                if a[2] > b[2]:
                    inv += 1
    row = out[out["custkey"] == cid].iloc[0]
    assert int(row["n_comparable_pairs"]) == pairs
    assert int(row["n_inversions"]) == inv
    assert (out["n_inversions"] <= out["n_comparable_pairs"]).all()


def test_returns_pchart_exact_identity(ray_session):
    from pdfrust_ray.pipelines.relational import returns_pchart_audit

    out = returns_pchart_audit(SF)
    n_tot = int(out["n_items"].sum())
    r_tot = int(out["n_returned"].sum())
    # recompute the exact integer control test for every day
    x = out["n_returned"].astype(object).to_numpy()
    n = out["n_items"].astype(object).to_numpy()
    lhs = (x * n_tot - r_tot * n) ** 2
    rhs = 9 * r_tot * (n_tot - r_tot) * n
    assert (lhs == out["dev_sq_scaled"].astype(object).to_numpy()).all()
    assert (rhs == out["bound_scaled"].astype(object).to_numpy()).all()
    assert (
        (lhs > rhs).astype(int) == out["out_of_control"].to_numpy()
    ).all()
    # flags exist in both directions (chart is informative, not vacuous)
    assert out["out_of_control"].nunique() <= 2
