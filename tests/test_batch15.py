"""Batch-15 ops: quarantine split sink, z-score scaling, int8 vector
quantization, tool-chain mining."""

import duckdb
import numpy as np
from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_quarantine_split_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import quarantine_split, quarantine_split_sql

    mine = quarantine_split(SF)
    assert mine["dest"].tolist() == ["main", "quarantine"]
    assert (mine["n_rows"] > 0).all()  # both routes used on the fixture
    assert int(mine["n_rows"].sum()) == 1000  # a partition: nothing lost
    compare_twin(mine, con, quarantine_split_sql())


def test_quarantine_split_consistent_with_contract(ray_session):
    from pdfrust_ray.pipelines.relational import contract_violations, quarantine_split

    split = quarantine_split(SF).set_index("dest")["n_rows"]
    audit = contract_violations(SF).set_index("rule")["n_bad"]
    assert split["quarantine"] == audit["any_violation"]


def test_events_value_zscore_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_value_zscore,
        events_value_zscore_sql,
    )

    mine = events_value_zscore(SF)
    assert len(mine) == 1000
    compare_twin(mine, con, events_value_zscore_sql())
    # standardization sanity: mean(z) ~ 0, |z| mostly small
    z = mine["z_micro"].to_numpy() / 1e6
    assert abs(z.mean()) < 1e-3
    assert 0.9 < z.std() < 1.1


def test_embedding_int8_quantize_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        embedding_int8_quantize,
        embedding_int8_quantize_sql,
    )

    mine = embedding_int8_quantize(SF)
    assert len(mine) == 500
    assert (mine["scale_micro"] > 0).all()
    assert (mine["sum_abs_codes"] >= 127).all()  # the max element is always 127
    compare_twin(mine, con, embedding_int8_quantize_sql())


def test_embedding_int8_roundtrip_error_bound(ray_session):
    # dequantized values reconstruct originals within scale/254 per
    # element (half a code step, asymmetric floor(+0.5) rounding)
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["embedding"])
    col = t["embedding"].combine_chunks()
    x = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    x = x.reshape(len(col), -1)
    m = np.abs(x).max(axis=1)
    codes = np.floor(x * 127.0 / m[:, None] + 0.5)
    deq = codes * m[:, None] / 127.0
    assert np.abs(deq - x).max() <= (m.max() / 254.0) + 1e-12


def test_tool_chain_bigrams_oracle(ray_session):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.conversation import (
        tool_chain_bigrams,
        tool_chain_bigrams_sql,
    )

    d = ensure_corpus("t1")
    mine = tool_chain_bigrams(d)
    assert len(mine) > 0 and (mine["n_chains"] > 0).all()
    c = duckdb.connect()
    compare_twin(mine, c, tool_chain_bigrams_sql(f"{d}/shards/*.parquet"))
