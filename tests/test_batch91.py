"""Batch-91: HK matching + König certificate, Adler-32 audit, A-ES sample."""

import hashlib
import zlib

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_matching_equals_kuhn_and_konig_certificate(ray_session, con):
    from pdfrust_ray.pipelines.graph import part_supplier_max_matching

    mine = part_supplier_max_matching(SF)
    m_size = int(mine["matching_size"].iloc[0])
    # König duality: |max matching| == |min vertex cover|
    assert m_size == int(mine["cover_size"].iloc[0])
    edges = con.execute(
        "SELECT DISTINCT l_partkey, l_suppkey FROM lineitem"
    ).fetchall()
    assert int(mine["n_edges"].iloc[0]) == len(edges)
    # independent Kuhn's algorithm (simple augmenting paths)
    lefts = sorted({e[0] for e in edges})
    rights = sorted({e[1] for e in edges})
    adj = {u: [] for u in lefts}
    for p, s in edges:
        adj[p].append(s)
    match_r: dict = {}

    def try_aug(u, seen):
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_r or try_aug(match_r[v], seen):
                match_r[v] = u
                return True
        return False

    kuhn = sum(1 for u in lefts if try_aug(u, set()))
    assert m_size == kuhn
    # matching can never exceed either side
    assert m_size <= min(len(lefts), len(rights))
    assert int(mine["n_left"].iloc[0]) == len(lefts)
    assert int(mine["n_right"].iloc[0]) == len(rights)


def test_adler_oracle_and_zlib_crosscheck(ray_session, con):
    from pdfrust_ray.pipelines.textops import doc_adler32_audit, doc_adler32_audit_sql

    mine = doc_adler32_audit(SF)
    compare_twin(mine, con, doc_adler32_audit_sql())
    docs = con.execute("SELECT doc_id, text FROM documents ORDER BY doc_id").fetchdf()
    assert len(mine) == len(docs)
    # for pure-ASCII docs the codepoint stream IS the byte stream, so
    # the checksum must equal zlib.adler32 exactly
    checked = 0
    got = dict(zip(mine["doc_id"].astype(int), mine["adler32"].astype(int)))
    for _, r in docs.iterrows():
        txt = r["text"]
        if txt.isascii():
            assert got[int(r["doc_id"])] == zlib.adler32(txt.encode("ascii"))
            checked += 1
    assert checked > 0


def test_weighted_sample_oracle_and_determinism(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        orders_weighted_sample,
        orders_weighted_sample_sql,
    )

    mine = orders_weighted_sample(SF, k=50)
    odf = con.execute(orders_weighted_sample_sql(k=50)).fetchdf()
    # bit-identical doubles and identical membership/order
    assert mine["o_orderkey"].tolist() == odf["o_orderkey"].tolist()
    assert mine["priority"].tolist() == odf["priority"].tolist()
    # rerun is identical (reproducibility is the whole point)
    again = orders_weighted_sample(SF, k=50)
    assert again["o_orderkey"].tolist() == mine["o_orderkey"].tolist()
    # recompute priorities by hand for the chosen rows
    prices = dict(
        con.execute("SELECT o_orderkey, o_totalprice FROM orders").fetchall()
    )
    import math

    for _, r in mine.iterrows():
        kk = int(r["o_orderkey"])
        u = int(hashlib.md5(str(kk).encode()).hexdigest()[:13], 16) / 2**52
        assert r["priority"] == math.pow(u, 1.0 / prices[kk])
    # priorities sorted descending, all in (0, 1]
    assert (mine["priority"].diff().dropna() <= 0).all()
    assert ((mine["priority"] > 0) & (mine["priority"] <= 1)).all()
