"""Batch-106: HTML tag/href censuses, PDF object census."""

import re

import duckdb
import pyarrow.dataset as pads
from tools.contract_check import compare_twin


def _corpus():
    from pdfrust_ray.fixtures.corpus import ensure_corpus

    return ensure_corpus("t1")


def test_tag_census_oracle_and_recount(ray_session):
    from pdfrust_ray.pipelines.conversation import html_tag_census, html_tag_census_sql

    base = _corpus()
    mine = html_tag_census(base)
    compare_twin(mine, duckdb.connect(), html_tag_census_sql(f"{base}/shards/*.parquet"))
    assert len(mine) > 0
    # python recount for the top tag
    t = pads.dataset(f"{base}/shards").to_table()
    tag_re = re.compile(r"<([a-z][a-z0-9]*)")
    from collections import Counter

    c = Counter()
    for tool, s in zip(t["tool"].to_pylist(), t["text"].to_pylist()):
        if tool == "browser":
            c.update(tag_re.findall(s))
    top = mine.iloc[0]
    assert c[top["tag"]] == int(top["n"])
    assert int(top["n"]) == max(c.values())


def test_href_census_oracle(ray_session):
    from pdfrust_ray.pipelines.conversation import html_href_census, html_href_census_sql

    base = _corpus()
    mine = html_href_census(base)
    compare_twin(mine, duckdb.connect(), html_href_census_sql(f"{base}/shards/*.parquet"))
    assert len(mine) > 0
    assert (mine["n"] > 0).all()


def test_pdf_object_census_recount(ray_session):
    from pdfrust_ray.functions.payload import payload_bytes
    from pdfrust_ray.pipelines.conversation import pdf_object_census

    base = _corpus()
    mine = pdf_object_census(base).set_index("kind")
    t = pads.dataset(f"{base}/shards").to_table()
    from collections import Counter

    type_re = re.compile(rb"/Type\s*/([A-Za-z0-9]+)")
    obj_re = re.compile(rb"\d+\s+\d+\s+obj")
    stream_re = re.compile(rb"\bstream\b")
    c = Counter()
    for tool, s in zip(t["tool"].to_pylist(), t["text"].to_pylist()):
        if tool == "pdf_render":
            data = payload_bytes(s)
            for m in type_re.findall(data):
                c[f"type:{m.decode()}"] += 1
            c["obj"] += len(obj_re.findall(data))
            c["stream"] += len(stream_re.findall(data))
    assert set(mine.index) == set(c)
    for k, v in c.items():
        assert int(mine.loc[k, "n"]) == v, k
    # a PDF corpus must contain pages, fonts and streams
    assert int(mine.loc["type:Page", "n"]) > 0
    assert int(mine.loc["obj", "n"]) > 0
    assert int(mine.loc["stream", "n"]) > 0
