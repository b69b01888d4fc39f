"""Batch-167: articulation-point oracle — planted bridges exercise the
non-vacuous paths the dense fixtures never hit."""

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _brute_force(edges):
    """Vertex-removal articulation + component table on ('p'/'s', key)
    vertices — independent of both the engine's Tarjan and the SQL."""
    adj: dict = {}
    for p, s in edges:
        a, b = ("p", p), ("s", s)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    def comps(skip=None):
        seen, out = set(), []
        for v in sorted(adj):
            if v == skip or v in seen:
                continue
            stack, comp = [v], []
            seen.add(v)
            while stack:
                x = stack.pop()
                comp.append(x)
                for y in adj[x]:
                    if y != skip and y not in seen:
                        seen.add(y)
                        stack.append(y)
            out.append(sorted(comp))
        return out

    base = comps()
    # v is an articulation point iff removing it increases the number
    # of connected components
    art = {v for v in adj if len(comps(skip=v)) >= len(base) + 1}
    rows = []
    for c in base:
        parts = [k for t, k in c if t == "p"]
        sups = [k for t, k in c if t == "s"]
        cart = [k for v in c if v in art for _, k in [v]]
        n_edges = sum(len(adj[v]) for v in c) // 2
        rows.append(
            {
                "comp_id": min(parts) if parts else min(sups),
                "comp_side": "part" if parts else "supplier",
                "n_parts": len(parts),
                "n_suppliers": len(sups),
                "n_edges": n_edges,
                "n_articulation": len(cart),
                "min_art_key": min(cart) if cart else -1,
            }
        )
    rows.sort(key=lambda r: r["comp_id"])
    df = pd.DataFrame(rows)
    for c in ("comp_id", "n_parts", "n_suppliers", "n_edges",
              "n_articulation", "min_art_key"):
        df[c] = df[c].astype("int64")
    return df[["comp_id", "comp_side", "n_parts", "n_suppliers",
               "n_edges", "n_articulation", "min_art_key"]]


# bridge part 10 (sole mediator of s0-s1), bridge supplier 1 (sole
# connector of parts 12/13 to the rest), a degree-1 part 11, and a
# second component {p20, p21, s5} where s5 is articulation
PLANTED = [
    (10, 0), (10, 1),      # p10 bridges s0 and s1
    (11, 0),               # leaf part on s0
    (12, 1), (13, 1),      # s1's exclusive parts -> s1 articulation
    (14, 0), (15, 0),      # bulk on s0
    (20, 5), (21, 5),      # second component: s5 articulation
]


@pytest.fixture()
def planted_dir(tmp_path):
    t = pa.table(
        {
            "l_orderkey": pa.array(range(len(PLANTED)), pa.int64()),
            "l_partkey": pa.array([p for p, _ in PLANTED], pa.int64()),
            "l_suppkey": pa.array([s for _, s in PLANTED], pa.int64()),
        }
    )
    d = tmp_path / "planted"
    d.mkdir()
    pq.write_table(t, str(d / "lineitem.parquet"))
    return str(d)


def test_planted_bridges_engine_vs_brute_force(ray_session, planted_dir):
    from pdfrust_ray.pipelines.graph import part_supplier_articulation

    eng = part_supplier_articulation(planted_dir)
    exp = _brute_force(PLANTED)
    pd.testing.assert_frame_equal(eng.reset_index(drop=True), exp)
    # the construction really does plant articulation points
    assert int(eng["n_articulation"].sum()) >= 3


def test_planted_bridges_sql_twin(ray_session, planted_dir):
    from pdfrust_ray.pipelines.graph import (
        part_supplier_articulation,
        part_supplier_articulation_sql,
    )

    eng = part_supplier_articulation(planted_dir)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW lineitem AS SELECT * FROM "
        f"read_parquet('{planted_dir}/lineitem.parquet')"
    )
    ora = con.execute(part_supplier_articulation_sql()).fetchdf()
    a = eng.astype(str).reset_index(drop=True)
    b = ora.astype(str).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_fixture_sql_twin_exact(ray_session, con):
    from pdfrust_ray.pipelines.graph import (
        part_supplier_articulation,
        part_supplier_articulation_sql,
    )

    eng = part_supplier_articulation(SF)
    ora = con.execute(part_supplier_articulation_sql()).fetchdf()
    a = eng.astype(str).reset_index(drop=True)
    b = ora.astype(str).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
