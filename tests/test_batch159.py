"""Batch-159: session bookend matrix + type sojourn times."""


SF = "/root/testdata/sf0.001"


def test_session_entry_exit_matrix_conserves_sessions(ray_session):
    from pdfrust_ray.pipelines.relational import (
        session_entry_exit_matrix,
        sessionize,
    )

    out = session_entry_exit_matrix(SF)
    sess = sessionize(SF)
    # matrix mass equals the number of sessions the sessionize op cuts
    assert int(out["n"].sum()) == len(sess)
    assert (out["n"] > 0).all()


def test_type_sojourn_time_brute(ray_session):
    from pdfrust_ray.pipelines.relational import type_sojourn_time
    import pyarrow.parquet as pq

    out = type_sojourn_time(SF)
    ev = pq.read_table(
        f"{SF}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    ).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    tot = {}
    cnt = {}
    for _, g in ev.groupby("user_id"):
        g = g.sort_values(["us", "event_id"])
        us = g["us"].to_numpy()
        et = g["event_type"].to_numpy()
        for i in range(len(us) - 1):
            tot[et[i]] = tot.get(et[i], 0) + int(us[i + 1] - us[i])
            cnt[et[i]] = cnt.get(et[i], 0) + 1
    for _, r in out.iterrows():
        assert int(r["sojourn_us"]) == tot[r["event_type"]]
        assert int(r["n_gaps"]) == cnt[r["event_type"]]
    # total sojourn equals the sum of per-user spans
    spans = ev.groupby("user_id")["us"].agg(lambda s: s.max() - s.min())
    assert int(out["sojourn_us"].sum()) == int(spans.sum())
