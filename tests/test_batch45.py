"""Batch-45: video scene-cut detection over real PPM/GIF codecs."""


def test_scene_cut_exact_recovery(ray_session):
    """The detector must recover EVERY planted cut index exactly, on
    both the raw-PPM and palette-quantized GIF containers."""
    from pdfrust_ray.stages.multimodal import (
        synthesize_scene_video_table,
        video_scene_cuts,
    )

    t = synthesize_scene_video_table()
    mine = video_scene_cuts(t)
    truth = t.to_pandas()[["media_id", "container", "true_cuts"]]
    m = mine.merge(truth, on="media_id")
    assert len(m) == 24
    assert (m["cut_frames"] == m["true_cuts"]).all()
    # both containers exercised
    assert set(m["container"]) == {"ppm", "gif"}
    # cut count column is consistent with the cut list
    n_listed = m["cut_frames"].map(lambda s: len(s.split(",")) if s else 0)
    assert (m["n_cuts"] == n_listed).all()


def test_scene_cut_threshold_monotone(ray_session):
    """An absurdly high threshold finds no cuts; threshold 0 flags
    every frame boundary where anything changed."""
    from pdfrust_ray.stages.multimodal import (
        synthesize_scene_video_table,
        video_scene_cuts,
    )

    t = synthesize_scene_video_table(n=6)
    hi = video_scene_cuts(t, threshold=255 * 3)
    assert int(hi["n_cuts"].sum()) == 0
    lo = video_scene_cuts(t, threshold=0)
    mid = video_scene_cuts(t)
    assert int(lo["n_cuts"].sum()) >= int(mid["n_cuts"].sum())
