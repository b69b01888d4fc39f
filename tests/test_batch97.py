"""Batch-97: chain stitching, script census, articulation points."""

import duckdb
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_chain_stitch_oracle_and_planted_chains(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_chains_fixture
    from pdfrust_ray.pipelines.conversation import conv_chain_stitch, conv_chain_stitch_sql

    base = ensure_chains_fixture()
    mine = conv_chain_stitch(base)
    compare_twin(mine, duckdb.connect(), conv_chain_stitch_sql(f"{base}/shards/*.parquet"))
    # every planted link must appear; chains of n links -> n-1 edges
    planted = mine[
        mine["pred_conv"].str.startswith("chain-")
        & mine["succ_conv"].str.startswith("chain-")
    ]
    # links within a family are consecutive
    for _, r in planted.iterrows():
        fam_a, link_a = r["pred_conv"].rsplit("-", 1)[0], int(r["pred_conv"].rsplit("-", 1)[1])
        fam_b, link_b = r["succ_conv"].rsplit("-", 1)[0], int(r["succ_conv"].rsplit("-", 1)[1])
        assert fam_a == fam_b and link_b == link_a + 1
    assert len(planted) >= 10
    # standalone convs and the shared-middle red herring never stitch
    assert not mine["pred_conv"].str.startswith("standalone").any()
    assert not mine["pred_conv"].str.startswith("herring").any()
    assert not mine["succ_conv"].str.startswith("herring").any()


def test_script_census_oracle_and_lang_signal(ray_session, con):
    from pdfrust_ray.pipelines.textops import doc_script_census, doc_script_census_sql

    mine = doc_script_census(SF)
    compare_twin(mine, con, doc_script_census_sql())
    by = mine.set_index("lang")
    # class totals partition the text exactly
    parts = mine[["ascii_letters", "digits", "cjk", "whitespace", "other"]].sum(axis=1)
    assert (parts == mine["total_chars"]).all()
    # the synthetic corpus is ASCII wordlists in every lang tag (the
    # census exposing exactly that lang/script mismatch is the point)
    assert int(by.loc["en", "cjk"]) == 0
    assert (mine["ascii_letters"] > 0).all()
    # python recount for one language
    texts = [
        r[0]
        for r in con.execute("SELECT text FROM documents WHERE lang='zh'").fetchall()
    ]
    cjk = sum(sum(1 for ch in s if 0x4E00 <= ord(ch) <= 0x9FFF) for s in texts)
    assert int(by.loc["zh", "cjk"]) == cjk


def test_articulation_certificate(ray_session, con):
    from pdfrust_ray.pipelines.graph import part_supplier_articulation

    mine = part_supplier_articulation(SF)
    edges = con.execute("SELECT DISTINCT l_partkey, l_suppkey FROM lineitem").fetchall()
    adj: dict = {}
    for p, s in edges:
        a, b = ("p", p), ("s", s)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    def n_components(skip=None):
        seen, n = set(), 0
        for v in adj:
            if v == skip or v in seen:
                continue
            n += 1
            stack = [v]
            seen.add(v)
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w != skip and w not in seen:
                        seen.add(w)
                        stack.append(w)
        return n

    base = n_components()
    # exact articulation set by brute force
    art = {v for v in adj if n_components(skip=v) > base}
    assert len(mine) == base  # one row per component, never vacuous
    assert int(mine["n_articulation"].sum()) == len(art)
    assert int(mine["n_parts"].sum()) == sum(1 for t, _ in adj if t == "p")
    assert int(mine["n_suppliers"].sum()) == sum(1 for t, _ in adj if t == "s")
    assert int(mine["n_edges"].sum()) == len(edges)
    if art:
        assert int(mine["min_art_key"].max()) >= 0
    else:
        assert (mine["min_art_key"] == -1).all()


def test_articulation_planted_path(ray_session, tmp_path):
    """A path graph p1-s1-p2-s2-p3: every internal vertex is an
    articulation point; endpoints are not."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.graph import part_supplier_articulation

    t = pa.table(
        {
            "l_partkey": pa.array([1, 2, 2, 3, 9], pa.int64()),
            "l_suppkey": pa.array([1, 1, 2, 2, 9], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "lineitem.parquet"))
    out = part_supplier_articulation(str(tmp_path))
    # two components: the path (3 articulation vertices: s1, p2, s2)
    # and the isolated edge p9-s9 (none)
    assert len(out) == 2
    by = out.set_index("comp_id")
    assert int(by.loc[1, "n_articulation"]) == 3
    assert int(by.loc[1, "n_parts"]) == 3
    assert int(by.loc[1, "n_suppliers"]) == 2
    assert int(by.loc[1, "n_edges"]) == 4
    assert int(by.loc[9, "n_articulation"]) == 0
    assert int(by.loc[9, "min_art_key"]) == -1
    assert int(by.loc[1, "min_art_key"]) == 1  # s1 has key 1; p2 key 2
