"""Batch-67: autocorrelation pitch estimation, Boruvka MSF."""


SF = "/root/testdata/sf0.001"


def test_pitch_exact_planted_recovery(ray_session):
    from pdfrust_ray.stages.multimodal import audio_pitch_estimate, synthesize_tone_table

    tones = synthesize_tone_table()
    out = audio_pitch_estimate(tones)
    truth = tones.to_pandas().sort_values("media_id")
    assert len(out) == len(truth)
    # exact period recovery on every clip, both WAV codecs
    assert (out["est_period"].to_numpy() == truth["true_period"].to_numpy()).all()
    assert (
        out["f0_centihz"].to_numpy()
        == truth["rate"].to_numpy() * 100 // truth["true_period"].to_numpy()
    ).all()


def test_boruvka_equals_serial_kruskal(ray_session, con):
    from pdfrust_ray.pipelines.graph import part_mst_boruvka

    mine = part_mst_boruvka(SF)
    pairs = con.execute(
        "SELECT DISTINCT LEAST(a.l_partkey, b.l_partkey), "
        "GREATEST(a.l_partkey, b.l_partkey) FROM lineitem a JOIN lineitem b "
        "ON a.l_orderkey = b.l_orderkey AND a.l_partkey <> b.l_partkey"
    ).fetchall()
    nodes = sorted({v for e in pairs for v in e})
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    mst = []
    for x, y in sorted(pairs, key=lambda e: (((e[0] + e[1]) % 7 + 1), e[0], e[1])):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
            mst.append((x, y))
    n_components = len({find(v) for v in nodes})

    assert int(mine["n_nodes"].iloc[0]) == len(nodes)
    assert int(mine["n_components"].iloc[0]) == n_components
    assert int(mine["n_mst_edges"].iloc[0]) == len(mst)
    assert int(mine["total_weight"].iloc[0]) == sum((x + y) % 7 + 1 for x, y in mst)
    assert int(mine["edge_checksum"].iloc[0]) == sum(x * 31 + y for x, y in mst)
    # forest invariant
    assert len(mst) == len(nodes) - n_components
