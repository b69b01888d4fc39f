"""The result cache and the per-worker memo through the real Ray
pipeline: a duplicate-heavy corpus, extracted by the ExtractTurns task
stage across many tasks and workers, equals extract_row on every row."""

import pyarrow as pa
import pyarrow.parquet as pq

from pdfrust_ray.fixtures.pdfgen import pdf_hello
from pdfrust_ray.functions.payload import extract_row

_COLS = ("payload_kind", "extracted_text", "parse_status", "n_pages", "bytes_decoded", "error")


def test_task_stage_matches_extract_row(ray_session, tmp_path):
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from pdfrust_ray.sources.transcripts import read_transcripts

    pdf = pdf_hello("cache").decode("latin-1")
    rows = []
    for c in range(40):
        for i in range(5):
            # every conversation re-quotes the same pdf + one unique turn
            rows.append((f"c{c:03d}", i, pdf if i % 2 == 0 else f"turn {c}/{i}"))
    t = pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows]),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array(["user"] * len(rows)),
            "text": pa.array([r[2] for r in rows]),
            "tool": pa.array([""] * len(rows)),
            "ts": pa.array([1_700_000_000_000_000 + i for i in range(len(rows))], pa.timestamp("us")),
        }
    )
    d = tmp_path / "corpus" / "shards"
    d.mkdir(parents=True)
    for k in range(4):  # four read tasks, each split into many batches
        pq.write_table(t.slice(50 * k, 50), d / f"part-{k:04d}.parquet")

    got = build_extraction(read_transcripts(str(tmp_path / "corpus")), batch_size=8).to_pandas()
    assert list(zip(got["conv_id"], got["turn_idx"])) == [(c, i) for c, i, _ in rows]
    for (_, _, text), (_, row) in zip(rows, got.iterrows()):
        want = extract_row(text)
        for col in _COLS:
            assert row[col] == want[col], (row["conv_id"], row["turn_idx"], col)
    assert (got["payload_kind"] == "pdf").sum() == 120
