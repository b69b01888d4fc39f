"""Batch-13 ops: feature hashing, class weights, negative sampling,
leave-last-out split, calendar rollup, deletion-vector reads."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_feature_hashing_oracle(ray_session, con):
    from pdfrust_ray.pipelines.textops import feature_hashing, feature_hashing_sql

    mine = feature_hashing(SF)
    assert len(mine) == 500
    assert (mine["nnz"] > 0).all() and (mine["nnz"] <= 64).all()
    compare_twin(mine, con, feature_hashing_sql())


def test_feature_hashing_long_token(ray_session, tmp_path):
    # tokens >= 56 bytes exercise the hashlib fallback lane and still
    # match the md5-u32 definition
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.textops import feature_hashing

    long_tok = "x" * 80
    pq.write_table(
        pa.table({"doc_id": [0], "text": [f"{long_tok} {long_tok} short"]}),
        tmp_path / "documents.parquet",
    )
    out = feature_hashing(str(tmp_path))
    b_long = int(hashlib.md5(long_tok.encode()).hexdigest()[:8], 16) % 64
    b_short = int(hashlib.md5(b"short").hexdigest()[:8], 16) % 64
    pairs = sorted([(b_long, 2), (b_short, 1)])
    sig = hashlib.md5("|".join(f"{b}:{c}" for b, c in pairs).encode()).hexdigest()
    assert out.iloc[0]["nnz"] == 2
    assert out.iloc[0]["sig"] == sig


def test_lang_class_weights_oracle(ray_session, con):
    from pdfrust_ray.pipelines.llmdata import lang_class_weights, lang_class_weights_sql

    mine = lang_class_weights(SF)
    assert len(mine) == 5
    # rarest language carries the largest weight
    assert (
        mine.loc[mine["n_docs"].idxmin(), "weight_ppm"]
        == mine["weight_ppm"].max()
    )
    compare_twin(mine, con, lang_class_weights_sql())


def test_negative_samples_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import negative_samples, negative_samples_sql

    mine = negative_samples(SF)
    n_cust = con.execute("SELECT COUNT(*) FROM customer").fetchone()[0]
    assert len(mine) == 3 * n_cust  # k per customer, incl. orderless ones
    compare_twin(mine, con, negative_samples_sql())


def test_negative_samples_never_interacted(ray_session, con):
    from pdfrust_ray.pipelines.relational import negative_samples

    mine = negative_samples(SF)
    inter = set(
        map(
            tuple,
            con.execute(
                """SELECT DISTINCT o.o_custkey, l.l_partkey
                   FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey"""
            ).fetchall(),
        )
    )
    sampled = set(zip(mine["custkey"].tolist(), mine["partkey"].tolist()))
    assert not (sampled & inter)


def test_leave_last_out_split_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        leave_last_out_split,
        leave_last_out_split_sql,
    )

    mine = leave_last_out_split(SF)
    n_events = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    # train + one test row per user account for every event
    assert int(mine["n_train"].sum()) + len(mine) == n_events
    compare_twin(mine, con, leave_last_out_split_sql())


def test_leave_last_out_matches_latest_event(ray_session):
    from pdfrust_ray.pipelines.relational import (
        latest_event_per_user,
        leave_last_out_split,
    )

    split = leave_last_out_split(SF)
    latest = latest_event_per_user(SF)
    assert split["test_event_id"].tolist() == latest["event_id"].tolist()


def test_events_weekly_weekend_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        events_weekly_weekend,
        events_weekly_weekend_sql,
    )

    mine = events_weekly_weekend(SF)
    assert set(mine["is_weekend"].unique()) == {False, True}
    n_events = con.execute("SELECT COUNT(*) FROM events").fetchone()[0]
    assert int(mine["n_events"].sum()) == n_events
    compare_twin(mine, con, events_weekly_weekend_sql())


def test_deletion_vector_read_oracle(ray_session, con):
    from pdfrust_ray.pipelines.datasetops import (
        deletion_vector_read,
        deletion_vector_read_sql,
    )

    mine = deletion_vector_read(SF)
    assert len(mine) == 2
    compare_twin(mine, con, deletion_vector_read_sql())


def test_deletion_vector_sidecar_is_positional(ray_session, con):
    # the sidecar stores row POSITIONS (contiguous-range coverage, not
    # event ids): every position is within its file's row count, and
    # live + dead == file rows
    import pyarrow.parquet as pq

    from pdfrust_ray.pipelines.datasetops import deletion_vector_read, ensure_dv_table

    base = ensure_dv_table(SF)
    dv = pq.read_table(f"{base}/deletes.parquet").to_pandas()
    mine = deletion_vector_read(SF).set_index("file")
    for side in (0, 1):
        fname = f"data-{side}.parquet"
        n_file = pq.read_metadata(f"{base}/{fname}").num_rows
        pos = dv.loc[dv["file"] == fname, "pos"]
        assert (pos >= 0).all() and (pos < n_file).all()
        assert int(mine.loc[fname, "n_live"]) + len(pos) == n_file
