"""Driver contract for the Ray-Data transcript extraction engine.

The driver initialises Ray itself before importing this module; nothing
here (or in pdfrust_ray) calls ray.init()/ray.shutdown().

  - entry(): flagship pipeline on the t1 (smoke) synthetic transcript
    corpus — read shards -> detect/size -> actor-pool extraction ->
    ordering sort — returns the Dataset.
  - queries(): one entry per implemented operator/pipeline from
    SURVEY.md §2 plus the training-data ops (dedup, similarity search,
    text analysis, multimodal plumbing). Extraction queries run over
    the deterministic synthetic transcript fixtures (the graft input
    table has no driver-provided testdata); their oracles read the
    serially-computed golden parquet.
  - oracle_sql(): DuckDB-SQL equivalents. The extraction oracles use
    read_parquet on the frozen goldens under /tmp/pdfrust_ray_fixtures
    (generated idempotently by queries()); relational/dedup/similarity
    oracles run on the pre-registered testdata views. Omitted entries
    (heuristics, LSH, IVF) get the driver's rows-only check.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

_FIXTURE_BASE = "/tmp/pdfrust_ray_fixtures"
_T2_GOLDEN = f"{_FIXTURE_BASE}/t2/golden.parquet"
_T2_SHARDS = f"{_FIXTURE_BASE}/t2/shards/*.parquet"
_MODES_GOLDEN = f"{_FIXTURE_BASE}/modes/golden_modes.parquet"
_INFO_GOLDEN = f"{_FIXTURE_BASE}/modes/golden_info.parquet"
_SPEC15_GOLDEN = f"{_FIXTURE_BASE}/spec15/golden.parquet"
_XOBJ_GOLDEN = f"{_FIXTURE_BASE}/xobj/golden.parquet"
_FILTERS_GOLDEN = f"{_FIXTURE_BASE}/filters/golden.parquet"
_ENC_GOLDEN = f"{_FIXTURE_BASE}/encrypted/golden.parquet"

_EXTRACT_COLS = [
    "conv_id",
    "turn_idx",
    "payload_kind",
    "extracted_text",
    "parse_status",
    "n_pages",
    "bytes_decoded",
    "error",
]


def _ensure_fixture_files() -> None:
    """Generate the deterministic fixture corpora + goldens (idempotent,
    cached). Called at import so oracle_sql's read_parquet targets exist
    regardless of the order the driver evaluates queries vs oracles."""
    try:
        from pdfrust_ray.fixtures.corpus import (
            ensure_chains_fixture,
            ensure_corpus,
            ensure_homoglyph_fixture,
            ensure_invisible_fixture,
            ensure_unicode_fixture,
            ensure_encrypted_fixture,
            ensure_forks_fixture,
            ensure_htmlld_fixture,
            ensure_modes_fixture,
            ensure_pii_fixture,
            ensure_spec15_fixture,
            ensure_xobj_fixture,
        )

        ensure_corpus("t1")
        ensure_corpus("t2")
        ensure_modes_fixture()
        ensure_spec15_fixture()
        ensure_xobj_fixture()
        ensure_encrypted_fixture()
        ensure_pii_fixture()
        ensure_htmlld_fixture()
        ensure_forks_fixture()
        ensure_chains_fixture()
        ensure_unicode_fixture()
        ensure_homoglyph_fixture()
        ensure_invisible_fixture()
    except Exception:  # never break module import on fixture IO issues
        pass


_ensure_fixture_files()


def _scale_for(sf_dir: str) -> str:
    base = os.path.basename(os.path.normpath(sf_dir or ""))
    return {"sf0.001": "t1", "sf0.01": "t2", "sf0.1": "bench"}.get(base, "t2")


def _run_extract_ds(scale: str, mode: str = "text"):
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from pdfrust_ray.sources.transcripts import read_transcripts

    d = ensure_corpus(scale)
    ds = read_transcripts(d)
    return build_extraction(ds, mode=mode, batch_size=64)


def entry() -> Any:
    return _run_extract_ds("t1")


_extract_cache: dict[str, Any] = {}


def _extracted_df(scale: str):
    """Run the flagship pipeline once per process and memoize the
    (small at test scale) result for the metric-derived queries."""
    if scale not in _extract_cache:
        _extract_cache[scale] = (
            _run_extract_ds(scale).to_pandas().reset_index(drop=True)
        )
    return _extract_cache[scale]


def _q_extract_text(sf_dir: str):
    return _extracted_df(_scale_for(sf_dir))[_EXTRACT_COLS]


def _q_corpus_build(sf_dir: str):
    import ray.data as _rd

    from pdfrust_ray.pipelines.corpusbuild import corpus_build_from_extracted

    ext = _rd.from_pandas(
        _extracted_df(_scale_for(sf_dir))[
            ["conv_id", "turn_idx", "extracted_text", "parse_status"]
        ]
    ).repartition(8)
    return corpus_build_from_extracted(ext)


def _q_extract_metrics(sf_dir: str):
    df = _extracted_df(_scale_for(sf_dir))
    g = (
        df.groupby("parse_status", as_index=False)
        .agg(n_turns=("parse_status", "size"), sum_bytes_decoded=("bytes_decoded", "sum"))
        .sort_values("parse_status")
        .reset_index(drop=True)
    )
    g["n_turns"] = g["n_turns"].astype("int64")
    g["sum_bytes_decoded"] = g["sum_bytes_decoded"].astype("int64")
    return g


def _q_extract_error_locality(sf_dir: str):
    """Error-locality audit over the extraction output: per
    conversation, the count of failed turns plus the run structure of
    failures in turn order (number of maximal error runs and the
    longest one).  Clustered failures point at a broken producer for
    that conversation; scattered ones at payload-level corruption.
    Runs fold positionally after the stable (conv_id, turn_idx)
    ordering the flagship pipeline already guarantees."""
    import numpy as np

    df = _extracted_df(_scale_for(sf_dir)).sort_values(["conv_id", "turn_idx"])
    rows = []
    for conv_id, g in df.groupby("conv_id", sort=True):
        err = (g["parse_status"] != "ok").to_numpy()
        n = len(err)
        n_err = int(err.sum())
        if n_err:
            x = err.astype(np.int64)
            starts = int(x[0]) + int(((x[1:] == 1) & (x[:-1] == 0)).sum())
            best, cur = 0, 0
            for v in x:
                cur = cur + 1 if v else 0
                best = max(best, cur)
        else:
            starts, best = 0, 0
        rows.append(
            {"conv_id": conv_id, "n_turns": n, "n_err": n_err,
             "n_err_runs": starts, "max_err_run": best}
        )
    import pandas as pd

    out = pd.DataFrame(rows)
    for c in ("n_turns", "n_err", "n_err_runs", "max_err_run"):
        out[c] = out[c].astype("int64")
    return out


def _q_extract_status_by_payload(sf_dir: str):
    """Contingency of parse_status x payload_kind with decoded-byte
    mass — which payload family produces which failure class (the
    routing table for extraction triage)."""
    df = _extracted_df(_scale_for(sf_dir))
    g = (
        df.groupby(["payload_kind", "parse_status"], as_index=False)
        .agg(n_turns=("parse_status", "size"),
             sum_bytes_decoded=("bytes_decoded", "sum"))
        .sort_values(["payload_kind", "parse_status"])
        .reset_index(drop=True)
    )
    g["n_turns"] = g["n_turns"].astype("int64")
    g["sum_bytes_decoded"] = g["sum_bytes_decoded"].astype("int64")
    return g


def _q_extracted_dup_census(sf_dir: str):
    """Exact-duplicate census OVER THE EXTRACTION OUTPUT per payload
    kind — the composed clean->dedup reality check (templated payloads
    collapse to identical visible text; this measures how much).
    Same memoized-pipeline fold shape as extract_metrics: at scale
    this is a (kind, md5(text)) groupby on the output Dataset."""
    import hashlib

    df = _extracted_df(_scale_for(sf_dir)).copy()
    df["h"] = [
        hashlib.md5(t.encode("utf-8")).hexdigest() for t in df["extracted_text"]
    ]
    g = df.groupby(["payload_kind", "h"], as_index=False).agg(c=("h", "size"))
    out = g.groupby("payload_kind", as_index=False).agg(
        n_turns=("c", "sum"),
        n_distinct_texts=("c", "size"),
        n_dup_turns=("c", lambda s: int(s[s > 1].sum())),
    )
    for c in ("n_turns", "n_distinct_texts", "n_dup_turns"):
        out[c] = out[c].astype("int64")
    return out.sort_values("payload_kind").reset_index(drop=True)


def _q_extracted_len_profile(sf_dir: str):
    """Extraction yield profile: per (payload_kind, parse_status),
    turns, total extracted chars, and the largest single extraction —
    the stage-output sizing table (how many clean chars each payload
    class yields per input turn)."""
    df = _extracted_df(_scale_for(sf_dir)).copy()
    df["n_chars"] = df["extracted_text"].str.len().astype("int64")
    out = df.groupby(["payload_kind", "parse_status"], as_index=False).agg(
        n_turns=("n_chars", "size"),
        total_chars=("n_chars", "sum"),
        max_chars=("n_chars", "max"),
    )
    for c in ("n_turns", "total_chars", "max_chars"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["payload_kind", "parse_status"]).reset_index(drop=True)


def _q_extracted_token_stats(sf_dir: str):
    """What extraction feeds the tokenizer: per payload kind, total
    whitespace tokens and corpus-distinct tokens of the extracted
    text (the vocabulary contribution of each payload class)."""
    import re

    import pandas as pd

    # explicit ASCII whitespace class so Python and RE2 split identically
    # (str.split() is Unicode-aware; extracted payload text can carry
    # non-ASCII spacing chars)
    ws_re = re.compile(r"[ \t\n\r\x0b\x0c]+")

    df = _extracted_df(_scale_for(sf_dir))
    rows = []
    for kind, g in df.groupby("payload_kind"):
        toks = 0
        vocab: set = set()
        for t in g["extracted_text"]:
            ws = [w for w in ws_re.split(t) if w]
            toks += len(ws)
            vocab.update(ws)
        rows.append(
            {"payload_kind": kind, "n_tokens": toks, "n_distinct_tokens": len(vocab)}
        )
    out = pd.DataFrame(rows).sort_values("payload_kind").reset_index(drop=True)
    out["n_tokens"] = out["n_tokens"].astype("int64")
    out["n_distinct_tokens"] = out["n_distinct_tokens"].astype("int64")
    return out


def _q_extract_info(sf_dir: str):
    """P7 metadata reader over the modes fixture (actor-pool stage)."""
    from pdfrust_ray.fixtures.corpus import ensure_modes_fixture
    from pdfrust_ray.sources.transcripts import read_transcripts
    from pdfrust_ray.stages.extractors import InfoTurns

    d = ensure_modes_fixture()
    ds = read_transcripts(d)
    out = ds.map_batches(InfoTurns, batch_format="pyarrow", batch_size=8, concurrency=(1, 2))
    return out.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def _q_extract_mode(mode: str):
    def run(sf_dir: str):
        from pdfrust_ray.fixtures.corpus import ensure_modes_fixture
        from pdfrust_ray.pipelines.extract_pipeline import build_extraction
        from pdfrust_ray.sources.transcripts import read_transcripts

        d = ensure_modes_fixture()
        ds = read_transcripts(d)
        out = build_extraction(ds, mode=mode, batch_size=4, concurrency=2)
        return out.select_columns(["conv_id", "turn_idx", "extracted_text", "parse_status"])

    return run


def _q_content_op_census(sf_dir: str):
    """Content-stream operator census: run the raw-content pipeline
    LIVE over the modes fixture, then census operator tokens
    distributed (lexical rule shared with the DuckDB twin, which
    applies it to the frozen golden)."""
    from pdfrust_ray.fixtures.corpus import ensure_modes_fixture
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from pdfrust_ray.pipelines.textops import content_op_lexical_census
    from pdfrust_ray.sources.transcripts import read_transcripts

    d = ensure_modes_fixture()
    ds = read_transcripts(d)
    out = build_extraction(ds, mode="raw-content", batch_size=4, concurrency=2)
    return content_op_lexical_census(out)


def _q_extract_mode_agreement(sf_dir: str):
    """Cross-mode error parity as a first-class query: run the text
    and chars pipelines LIVE over the modes fixture and compare
    per-turn parse_status — the round-2 ADVICE error-order fix
    (content.py TJ emission order) is what keeps these identical, so
    this query pins it under the hash gate."""
    from pdfrust_ray.fixtures.corpus import ensure_modes_fixture
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from pdfrust_ray.sources.transcripts import read_transcripts

    d = ensure_modes_fixture()
    outs = {}
    for mode in ("text", "chars"):
        ds = read_transcripts(d)
        out = build_extraction(ds, mode=mode, batch_size=4, concurrency=2)
        outs[mode] = (
            out.select_columns(["conv_id", "turn_idx", "parse_status"])
            .to_pandas()
            .rename(columns={"parse_status": f"status_{mode}"})
        )
    m = outs["text"].merge(outs["chars"], on=["conv_id", "turn_idx"])
    m["agree"] = (m["status_text"] == m["status_chars"]).astype("int64")
    return (
        m.sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)[
            ["conv_id", "turn_idx", "status_text", "status_chars", "agree"]
        ]
    )


def _q_extract_spec15(sf_dir: str):
    """PDF 1.5 spec-mode pipeline (xref streams / ObjStm / predictors)
    over the spec15 fixture family — the reference cannot read these
    payloads (xref.rs:331-376); golden computed serially."""
    from pdfrust_ray.fixtures.corpus import ensure_spec15_fixture
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from pdfrust_ray.sources.transcripts import read_transcripts

    d = ensure_spec15_fixture()
    ds = read_transcripts(d)
    out = build_extraction(ds, mode="text", batch_size=16, concurrency=2, spec_mode=True)
    return out.select_columns(_EXTRACT_COLS)


def _q_extract_xobj(sf_dir: str):
    """Spec-mode Form XObject recursion (`Do`) over the xobj fixture
    family — the reference parses-and-ignores Do (content.rs:615-620);
    golden computed serially with spec_mode=True."""
    from pdfrust_ray.fixtures.corpus import ensure_xobj_fixture
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from pdfrust_ray.sources.transcripts import read_transcripts

    d = ensure_xobj_fixture()
    ds = read_transcripts(d)
    out = build_extraction(ds, mode="text", batch_size=16, concurrency=2, spec_mode=True)
    return out.select_columns(_EXTRACT_COLS)


def _q_extract_filters(sf_dir: str):
    """Spec-mode stream-filter family (ASCIIHex / ASCII85 / RunLength /
    LZW incl. EarlyChange=0, plus a corrupted ASCII85 stream that must
    become an error row) over the filters fixture family — the
    reference rejects every non-Flate /Filter name (body.rs:47-54);
    golden computed serially with spec_mode=True."""
    from pdfrust_ray.fixtures.corpus import ensure_filters_fixture
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from pdfrust_ray.sources.transcripts import read_transcripts

    d = ensure_filters_fixture()
    ds = read_transcripts(d)
    out = build_extraction(ds, mode="text", batch_size=16, concurrency=2, spec_mode=True)
    return out.select_columns(_EXTRACT_COLS)


def _q_extract_encrypted(sf_dir: str):
    """Spec-mode standard-security-handler decryption (RC4-40/128,
    AES-128 crypt filters, empty user password) over the encrypted
    fixture family — the reference only type-checks the trailer
    /Encrypt entry (xref.rs:136-139); password-protected documents
    stay error:Encrypted rows; golden computed serially."""
    from pdfrust_ray.fixtures.corpus import ensure_encrypted_fixture
    from pdfrust_ray.pipelines.extract_pipeline import build_extraction
    from pdfrust_ray.sources.transcripts import read_transcripts

    d = ensure_encrypted_fixture()
    ds = read_transcripts(d)
    out = build_extraction(ds, mode="text", batch_size=16, concurrency=2, spec_mode=True)
    return out.select_columns(_EXTRACT_COLS)


_PII_SHARDS = f"{_FIXTURE_BASE}/pii/shards/*.parquet"
_FORKS_SHARDS = f"{_FIXTURE_BASE}/forks/shards/*.parquet"


_CHAINS_SHARDS = f"{_FIXTURE_BASE}/chains/shards/*.parquet"


def _q_conv_chain_stitch(sf_dir: str):
    """Continuation stitching over the planted chains fixture family
    (t1/t2 conversations never repeat a head/tail turn)."""
    from pdfrust_ray.fixtures.corpus import ensure_chains_fixture
    from pdfrust_ray.pipelines.conversation import conv_chain_stitch

    return conv_chain_stitch(ensure_chains_fixture())


_UNICODE_SHARDS = f"{_FIXTURE_BASE}/unicode/shards/*.parquet"


def _q_turn_nfc_audit(sf_dir: str):
    """NFC drift audit over the dedicated prose fixture family (t1/t2
    non-ASCII turns are PDF payloads containing NULs, which DuckDB's
    nfc_normalize truncates at — no sound oracle there)."""
    from pdfrust_ray.fixtures.corpus import ensure_unicode_fixture
    from pdfrust_ray.pipelines.conversation import turn_nfc_audit

    return turn_nfc_audit(ensure_unicode_fixture())


def _q_turn_utf8_inflation(sf_dir: str):
    """UTF-8 byte-inflation census over the planted-unicode fixture
    (the only corpus family where multibyte counts are non-vacuous)."""
    from pdfrust_ray.fixtures.corpus import ensure_unicode_fixture
    from pdfrust_ray.pipelines.conversation import turn_utf8_inflation

    return turn_utf8_inflation(ensure_unicode_fixture())


_HOMOGLYPH_SHARDS = f"{_FIXTURE_BASE}/homoglyph/shards/*.parquet"
_INVISIBLE_SHARDS = f"{_FIXTURE_BASE}/invisible/shards/*.parquet"


def _q_turn_invisible_audit(sf_dir: str):
    """Invisible-codepoint audit over the dedicated planted fixture."""
    from pdfrust_ray.fixtures.corpus import ensure_invisible_fixture
    from pdfrust_ray.pipelines.conversation import turn_invisible_chars_audit

    return turn_invisible_chars_audit(ensure_invisible_fixture())


def _q_media_header_audit(sf_dir: str):
    """Decode-vs-metadata audit over the deterministic media corpus
    (real PNG/GIF/JPEG/PPM + video-container decodes)."""
    from pdfrust_ray.stages.multimodal import media_header_audit

    return media_header_audit(sf_dir)


def _q_audio_duration_audit(sf_dir: str):
    """Decoded-duration audit over the audio payloads (PCM16 / mu-law /
    IMA ADPCM / FLAC through the real pure-numpy codecs); the fmt-tag
    codec split over binary payloads has no SQL twin — pinned by the
    all-match pytest."""
    from pdfrust_ray.stages.multimodal import audio_duration_audit

    return audio_duration_audit(sf_dir)


def _q_skeleton_token_collisions(sf_dir: str):
    """Confusable-skeleton collision census over the homoglyph fixture
    (planted mixed-script tokens guarantee >=2-form collisions)."""
    from pdfrust_ray.fixtures.corpus import ensure_homoglyph_fixture
    from pdfrust_ray.pipelines.conversation import skeleton_token_collisions

    return skeleton_token_collisions(ensure_homoglyph_fixture())


def _q_turn_homoglyph_audit(sf_dir: str):
    """Homoglyph audit over the dedicated mixed-script fixture family
    (t1/t2 prose is pure ASCII outside payloads)."""
    from pdfrust_ray.fixtures.corpus import ensure_homoglyph_fixture
    from pdfrust_ray.pipelines.conversation import turn_homoglyph_audit

    return turn_homoglyph_audit(ensure_homoglyph_fixture())


def _q_conv_prefix_forks(sf_dir: str):
    """Fork detection over the dedicated planted-forks fixture family
    (the t1/t2 corpora have no duplicated prefixes, which would make
    the check vacuous)."""
    from pdfrust_ray.fixtures.corpus import ensure_forks_fixture
    from pdfrust_ray.pipelines.conversation import conv_prefix_forks

    return conv_prefix_forks(ensure_forks_fixture())


def _q_dpo_pairs(sf_dir: str):
    """DPO preference-pair mining over the planted-forks fixture (fork
    groups with divergent continuations are the pair source)."""
    from pdfrust_ray.fixtures.corpus import ensure_forks_fixture
    from pdfrust_ray.pipelines.conversation import dpo_pairs

    return dpo_pairs(ensure_forks_fixture())


def _q_cross_conv_turn_dups(sf_dir: str):
    """Turn-level cross-conversation boilerplate census over the forks
    fixture (shared fork prefixes guarantee >=2-conv duplicates)."""
    from pdfrust_ray.fixtures.corpus import ensure_forks_fixture
    from pdfrust_ray.pipelines.conversation import cross_conv_turn_dups

    return cross_conv_turn_dups(ensure_forks_fixture())


def _q_turn_normalize(sf_dir: str):
    """Lowercase/whitespace canonicalization of the plain turns of the
    t2 transcript corpus; DuckDB recomputes from the RAW shards."""
    from pdfrust_ray.fixtures.corpus import ensure_corpus
    from pdfrust_ray.pipelines.textops import turn_normalize

    return turn_normalize(ensure_corpus("t2"))


def _q_html_ld(sf_dir: str):
    """Readability-style link-density HTML extraction over the htmlld
    fixture family (axis B second algorithm); oracle reads the
    serially-computed frozen golden."""
    from pdfrust_ray.fixtures.corpus import ensure_htmlld_fixture
    from pdfrust_ray.pipelines.textops import html_ld_extract

    return html_ld_extract(ensure_htmlld_fixture())


def _q_pii_redact(sf_dir: str):
    """Email/phone redaction over the PII transcript fixture; DuckDB
    recomputes from the RAW shards with the identical RE2 patterns."""
    from pdfrust_ray.fixtures.corpus import ensure_pii_fixture
    from pdfrust_ray.pipelines.textops import pii_redact

    return pii_redact(ensure_pii_fixture())


def queries() -> dict[str, Callable[[str], Any]]:
    # generate fixtures eagerly so oracle_sql's read_parquet targets exist
    from pdfrust_ray.fixtures.corpus import (
        ensure_corpus,
        ensure_encrypted_fixture,
        ensure_filters_fixture,
        ensure_modes_fixture,
        ensure_pii_fixture,
        ensure_spec15_fixture,
        ensure_xobj_fixture,
    )

    ensure_corpus("t2")
    ensure_modes_fixture()
    ensure_spec15_fixture()
    ensure_xobj_fixture()
    ensure_filters_fixture()
    ensure_encrypted_fixture()
    ensure_pii_fixture()

    from pdfrust_ray.pipelines import conversation as cv
    from pdfrust_ray.pipelines import datasetops as dso
    from pdfrust_ray.pipelines import graph
    from pdfrust_ray.pipelines import calibration
    from pdfrust_ray.pipelines import corpusbuild
    from pdfrust_ray.pipelines import llmdata as llm
    from pdfrust_ray.pipelines import mixing
    from pdfrust_ray.pipelines import quality as qual
    from pdfrust_ray.pipelines import relational as rel
    from pdfrust_ray.pipelines import textops
    from pdfrust_ray.stages import dedup, similarity, sketches

    def _q_conv(fn):
        def run(sf_dir: str):
            return fn(ensure_corpus(_scale_for(sf_dir)))

        return run

    def _q_streaming_heavy_hitters(sf_dir: str):
        from pdfrust_ray.stages.streaming import streaming_heavy_hitters

        return streaming_heavy_hitters(sf_dir)

    def _q_heavy_hitters_det(sf_dir: str):
        from pdfrust_ray.stages.streaming import heavy_hitters_det

        return heavy_hitters_det(sf_dir)

    def _q_streaming_sessionize(sf_dir: str):
        from pdfrust_ray.stages.streaming import streaming_sessionize

        return streaming_sessionize(sf_dir)

    def _q_streaming_windowed_dedup(sf_dir: str):
        from pdfrust_ray.stages.streaming import streaming_windowed_dedup

        return streaming_windowed_dedup(sf_dir)

    def media_features_q(sf_dir: str):
        from pdfrust_ray.stages.multimodal import media_features, synthesize_media_table

        return (
            media_features(synthesize_media_table())
            .select_columns(["media_id", "kind", "n_bytes"])
            .to_pandas()
            .sort_values("media_id")
            .reset_index(drop=True)
        )

    def image_phash_dedup_q(sf_dir: str):
        from pdfrust_ray.stages.multimodal import image_phash_dedup

        return image_phash_dedup()

    def video_scene_cuts_q(sf_dir: str):
        from pdfrust_ray.stages.multimodal import video_scene_cuts

        return video_scene_cuts()

    def _q_audio_energy_segments(sf_dir: str):
        from pdfrust_ray.stages.multimodal import audio_energy_segments

        return audio_energy_segments()

    def _q_audio_pitch_estimate(sf_dir: str):
        from pdfrust_ray.stages.multimodal import audio_pitch_estimate

        return audio_pitch_estimate()

    return {
        # --- the reference's own pipeline surface (SURVEY §2 / §3) ---
        "extract_text": _q_extract_text,
        "extract_metrics": _q_extract_metrics,
        "extract_error_locality": _q_extract_error_locality,
        "extract_status_by_payload": _q_extract_status_by_payload,
        "extract_info": _q_extract_info,
        "extract_chars": _q_extract_mode("chars"),
        "extract_mode_agreement": _q_extract_mode_agreement,
        "extract_font": _q_extract_mode("font"),
        "extract_raw_content": _q_extract_mode("raw-content"),
        "content_op_census": _q_content_op_census,
        "extract_text_spec15": _q_extract_spec15,
        "extract_text_xobj": _q_extract_xobj,
        "extract_text_filters": _q_extract_filters,
        "extract_text_encrypted": _q_extract_encrypted,
        # --- training-data ops: dedup ---
        "exact_dedup": lambda sf: dedup.exact_dedup(sf),
        "minhash_dedup": lambda sf: dedup.minhash_lsh_dedup(sf),
        # exact n-gram Jaccard sibling: prefix-filtered inverted index,
        # candidate-complete by the prefix lemma (deterministic recall)
        "ngram_jaccard_dedup": lambda sf: dedup.ngram_jaccard_dedup(sf),
        "simhash_dedup": lambda sf: dedup.simhash_dedup(sf),
        "embedding_dedup": lambda sf: dedup.embedding_dedup(sf),
        "embedding_dedup_ivf": lambda sf: dedup.embedding_dedup_ivf(sf),
        "dedup_clusters": lambda sf: dedup.dedup_clusters(sf),
        # --- similarity search ---
        "ann_topk": lambda sf: similarity.brute_force_topk(sf),
        "matryoshka_recall_curve": lambda sf: similarity.matryoshka_recall_curve(sf),
        "ann_ivf_topk": lambda sf: similarity.ivf_topk(sf),
        # IVF with every bucket probed is EXACT (same tie-break as the
        # brute-force scan) — proves the assign/probe machinery exactly
        "ann_ivf_full_probe": lambda sf: similarity.ivf_topk(sf, n_probe=16),
        # one centroid = one bucket = the exact pair set through the
        # bucketed map_groups path
        "embedding_dedup_ivf_exact": lambda sf: dedup.embedding_dedup_ivf(sf, n_centroids=1),
        # iterative distributed algorithm (Lloyd's rounds); no SQL twin
        "kmeans_embeddings": lambda sf: similarity.kmeans_embeddings(sf),
        # product quantization: raw ADC scan over 32x-compressed codes
        # (approximate by construction; recall pinned by pytest)
        "ann_pq_topk": lambda sf: similarity.pq_topk(sf),
        # PQ shortlist + exact re-rank: deterministic and recall-1.0 at
        # the fixture defaults, so it takes the exact ann_topk oracle
        "ann_pq_rerank_topk": lambda sf: similarity.pq_rerank_topk(sf),
        # --- text analysis ---
        "token_counts": textops.token_counts,
        "bpe_token_counts": textops.bpe_token_counts,
        "fingerprints": textops.fingerprints,
        "language_profile": textops.language_profile,
        "quality_scores": textops.quality_scores,
        "top_bigrams": textops.top_bigrams,
        "top_terms_per_doc": textops.top_terms_per_doc,
        "charset_best_match": textops.charset_best_match,
        "charset_best_match_lsh": textops.charset_best_match_lsh,
        # decontamination: word-13-gram overlap vs a broadcast benchmark set
        "benchmark_contamination": textops.benchmark_contamination,
        # PII scrubbing (email/phone) over the transcript pii fixture
        "pii_redact": _q_pii_redact,
        # --- multimodal plumbing ---
        "media_features": media_features_q,
        # --- mergeable distributed sketches ---
        # exact top-k via Misra-Gries candidates + filtered recount
        "heavy_tokens": lambda sf: sketches.heavy_tokens(sf),
        # HyperLogLog distinct count (deterministic splitmix64 hash);
        # no SQL twin — pinned by the exact-vs-estimate bound pytest
        "hll_distinct_users": lambda sf: sketches.hll_distinct_users(sf),
        # Count-Min probe frequencies: exact SQL twin is valid because
        # the fixture vocab is far below the sketch width (no probe
        # collisions — any collision would hash-mismatch)
        "cms_token_freqs": lambda sf: sketches.cms_token_freqs(sf),
        # --- conversation analytics over the transcript input table ---
        "conv_stats": _q_conv(cv.conv_stats),
        "conv_prefix_echo": _q_conv(cv.conv_prefix_echo),
        "conv_role_latency_asymmetry": _q_conv(cv.conv_role_latency_asymmetry),
        "turn_line_repetition": _q_conv(cv.turn_line_repetition),
        "conv_echo_attribution": _q_conv(cv.conv_echo_attribution),
        "assistant_phrase_census": _q_conv(cv.assistant_phrase_census),
        "assistant_numeric_claim_census": _q_conv(cv.assistant_numeric_claim_census),
        "conv_turnlen_autocorr": _q_conv(cv.conv_turnlen_autocorr),
        "turn_latency": _q_conv(cv.turn_latency),
        "tool_usage": _q_conv(cv.tool_usage),
        "role_transitions": _q_conv(cv.role_transitions),
        "conv_fingerprints": _q_conv(cv.conv_fingerprints),
        # per-conversation rollup of the flagship pipeline's own output
        "conv_extract_stats": lambda sf: cv.conv_extract_stats(
            _run_extract_ds(_scale_for(sf))
        ),
        # --- relational wide-operator demos ---
        "lineitem_agg": rel.lineitem_agg,
        "segment_revenue": rel.segment_revenue,
        "order_priority_revenue": rel.order_priority_revenue,
        "top_parts": rel.top_parts,
        "events_hourly": rel.events_hourly,
        "events_hopping_15m": rel.events_hopping_15m,
        "distinct_mktsegments": rel.distinct_mktsegments,
        "supplier_nation_agg": rel.supplier_nation_agg,
        "orders_rollup": rel.orders_rollup,
        "lineitem_quantiles": rel.lineitem_quantiles,
        "customers_without_orders": rel.customers_without_orders,
        "orders_sample": rel.orders_sample,
        "customer_stratified_sample": rel.customer_stratified_sample,
        "events_value_quartiles": rel.events_value_quartiles,
        "sessionize": rel.sessionize,
        "events_sliding_hour": rel.events_sliding_hour,
        "nation_supplier_names": rel.nation_supplier_names,
        "running_user_totals": rel.running_user_totals,
        "asof_click_before_purchase": rel.asof_click_before_purchase,
        # ranked top-N per group (ROW_NUMBER) with a local top-k combiner
        "top_orders_per_segment": rel.top_orders_per_segment,
        # LEAD window (next-event gap + type per user)
        "user_next_event": rel.user_next_event,
        # set ops (INTERSECT/EXCEPT membership classes)
        "user_funnel_sets": rel.user_funnel_sets,
        # interpolated percentiles (quantile_cont, bit-exact doubles)
        "events_value_percentiles": rel.events_value_percentiles,
        # pivot long->wide via vectorized indicator columns
        "events_daily_pivot": rel.events_daily_pivot,
        # 3-way star-schema dimension chain broadcast
        "region_revenue": rel.region_revenue,
        # FIRST_VALUE/LAST_VALUE window
        "first_last_order_per_customer": rel.first_last_order_per_customer,
        # correlated-subquery filter (integer-exact avg predicate)
        "orders_above_customer_avg": rel.orders_above_customer_avg,
        # per-group mode with deterministic ties
        "user_top_event_type": rel.user_top_event_type,
        # fixed-width histogram
        "events_value_histogram": rel.events_value_histogram,
        # PERCENT_RANK / CUME_DIST (bit-exact doubles)
        "user_value_percent_rank": rel.user_value_percent_rank,
        # broadcast EXISTS semi-join (complement of the anti-join)
        "customers_with_big_orders": rel.customers_with_big_orders,
        # dense grid fill: cross join + LEFT JOIN + zero fill
        "events_dow_grid": rel.events_dow_grid,
        # TPC-H discounted-revenue expression (half-away rounding parity)
        "lineitem_discounted_revenue": rel.lineitem_discounted_revenue,
        # canonicalization pass over plain transcript turns
        "turn_normalize": _q_turn_normalize,
        # distributed BPE vocabulary learning (iterative; no SQL twin)
        "bpe_merges": lambda sf: llm.bpe_train(sf),
        # greedy fixed-budget sequence packing (recursive-CTE oracle)
        "pack_sequences": lambda sf: llm.pack_sequences(sf),
        # data mixing: downsample every language to the smallest one
        "lang_rebalanced_sample": lambda sf: llm.lang_rebalanced_sample(sf),
        # apply the learned BPE vocabulary (train + encode lifecycle)
        "bpe_encode_counts": lambda sf: llm.bpe_encode_counts(sf),
        # ExactSubstr dedup: verbatim shared-window pairs
        "substring_dedup": lambda sf: dedup.substring_dedup(sf),
        # Gopher repetition filters (dup-word frac, top-bigram share)
        "gopher_repetition": lambda sf: qual.gopher_repetition(sf),
        # Okapi BM25 ranked retrieval (nano-quantized integer scores)
        "bm25_topk": lambda sf: qual.bm25_topk(sf),
        # SemDeDup: k-means clusters, within-cluster cosine pairs
        # (approximate by construction — pinned by k=1-exactness,
        # subset-of-exact and planted-duplicate pytests; no SQL twin)
        "semantic_dedup": lambda sf: dedup.semantic_dedup(sf),
        # temperature-based mixture sampling (integer-exact, alpha=0.5)
        "temperature_mix_sample": lambda sf: llm.temperature_mix_sample(sf),
        # global prefix scan (two-phase up-sweep/down-sweep, no key)
        "running_global_total": rel.running_global_total,
        # corpus-trained bigram-LM surprisal (micro-nat integer scores)
        "bigram_lm_scores": lambda sf: qual.bigram_lm_scores(sf),
        # bottom-k hash sketch: uniform k-sample, mergeable, no shuffle
        "bottom_k_sample": rel.bottom_k_sample,
        # string-similarity self-join (prefix-filtered, candidate-complete)
        "name_similarity_join": lambda sf: qual.name_similarity_join(sf),
        # mergeable compactor quantile sketch (approximate; rank-error
        # bound + exact-when-small pytests; no SQL twin)
        "quantile_sketch": lambda sf: sketches.quantile_sketch(sf),
        # deterministically-partitioned sibling whose full compaction
        # schedule is replayed by an exact recursive-CTE twin
        "quantile_sketch_det": lambda sf: sketches.quantile_sketch_det(sf),
        # FULL OUTER of two filtered aggregates (union+indicator groupby)
        "heavy_user_full_outer": rel.heavy_user_full_outer,
        # unpivot: wide pivot melted back to long incl. zero cells
        "events_daily_unpivot": rel.events_daily_unpivot,
        # CUBE grouping lattice from one finest-grain groupby
        "orders_cube": rel.orders_cube,
        # event-time watermark late-data accounting (two-phase prefix-max)
        "late_events_by_day": rel.late_events_by_day,
        # END-TO-END corpus prep: gopher -> dedups -> rebalance -> pack
        "clean_pack_pipeline": lambda sf: llm.clean_pack_pipeline(sf),
        # zlib compressibility quality signal (deterministic integers;
        # no SQL surface for zlib — serial-recompute pytest pins it)
        "compression_ratio_scores": lambda sf: qual.compression_ratio_scores(sf),
        # distributed Gram/second-moment matrix (pico-quantized exact)
        "embedding_second_moment": lambda sf: similarity.embedding_second_moment(sf),
        # PCA spectrum from the exact distributed matrix (driver eigh;
        # trace/PSD/determinism pytests; no SQL eigensolve)
        "embedding_pca_topk": lambda sf: similarity.embedding_pca_topk(sf),
        # link-density HTML main-content variant (axis B, 2nd algorithm)
        "html_ld_extract": _q_html_ld,
        # skyline / Pareto front (two-phase local-front combiner)
        "orders_skyline": rel.orders_skyline,
        # per-group bottom-k sampling (deterministic grouped reservoir)
        "events_per_user_sample": rel.events_per_user_sample,
        # SymSpell deletion-neighborhood edit-distance-1 join
        "name_editdist_join": lambda sf: qual.name_editdist_join(sf),
        # deterministic train/val/test split (md5-bucket, shuffle-free)
        "dataset_split": dso.dataset_split,
        # sliding-window token chunker (RAG / context-window prep)
        "doc_chunks": dso.doc_chunks,
        # inverted-index build (token -> postings, md5-pinned lists)
        "inverted_index_topk": dso.inverted_index_topk,
        # PMI collocation mining (micro-nat-quantized exact doubles)
        "pmi_collocations": dso.pmi_collocations,
        # snapshot-vs-snapshot dedup: Bloom prefilter + exact confirm
        "incremental_dedup": lambda sf: dedup.incremental_dedup(sf),
        # A-ES weighted sampling without replacement (pow-key top-k)
        "weighted_sample": rel.weighted_sample,
        # time-band self-join via tiled windows + halo duplication
        "events_band_join": rel.events_band_join,
        # MAD robust outlier detection (integer-cents exact)
        "events_value_outliers": rel.events_value_outliers,
        # trailing-window stream dedup (at-most-once-per-hour rule)
        "windowed_event_dedup": rel.windowed_event_dedup,
        # JSON property extraction + per-type aggregate
        "props_k_stats": rel.props_k_stats,
        # per-doc unigram entropy (nano-nat-quantized exact)
        "token_entropy": lambda sf: qual.token_entropy(sf),
        # per-type OLS via distributed moment sums (quantized exact)
        "events_value_regression": rel.events_value_regression,
        # EXACT global median by iterative histogram refinement —
        # no sort, no value collection, O(log_B range) streaming passes
        "global_exact_median": rel.global_exact_median,
        # Gini skew diagnostic over per-user activity (quantized exact)
        "user_activity_gini": rel.user_activity_gini,
        # timed conversion funnel (CEP-style sequence match, two-pointer)
        "funnel_within_hour": rel.funnel_within_hour,
        # column-profile pass (count/nulls/exact-distinct/min/max)
        "events_table_profile": rel.events_table_profile,
        # integer PageRank over the customer->supplier purchase graph
        "bipartite_pagerank": graph.bipartite_pagerank,
        # day-grain cohort retention matrix (one user-keyed exchange)
        "cohort_retention": rel.cohort_retention,
        # exact bipartite 4-cycle (butterfly) motif count
        "supplier_butterflies": graph.supplier_butterflies,
        # contrastive pair mining: same-label positives + hard negatives
        "contrastive_pairs": similarity.contrastive_pairs,
        # CDC snapshot diff (added/removed/changed between crawls)
        "snapshot_diff": dso.snapshot_diff,
        # global PERCENT_RANK via bounded-domain CDF broadcast
        "events_value_rank_normalize": rel.events_value_rank_normalize,
        # perceptual-hash image near-dup (real codecs; no SQL on pixels)
        "image_phash_dedup": image_phash_dedup_q,
        # containment (near-superset) dedup — the axis Jaccard misses
        "containment_dedup": lambda sf: dedup.containment_dedup(sf),
        # scale sibling: stop-shingle-capped SSJoin (bounded posting
        # lists; exact verify, recall-only approximation)
        "containment_dedup_dfcap": lambda sf: dedup.containment_dedup_dfcap(sf),
        # soft dedup: 1/cluster_size ppm weights over near-dup clusters
        "soft_dedup_reweight": lambda sf: dedup.soft_dedup_reweight(sf),
        # DSIR hashed-ngram importance resampling (Xie et al. 2023)
        "dsir_select": lambda sf: llm.dsir_select(sf),
        # UniMax epoch-capped budget water-filling (Chung et al. 2023)
        "unimax_allocation": lambda sf: llm.unimax_allocation(sf),
        # CCNet head/middle/tail perplexity tertiles
        "perplexity_buckets": lambda sf: qual.perplexity_buckets(sf),
        # hashed-feature Naive Bayes domain classifier (confusion matrix)
        "nb_source_classifier": lambda sf: qual.nb_source_classifier(sf),
        # CCNet capstone: LM tertiles -> keep head+middle -> soft-dedup
        # weighted per-(lang, tile) training mix
        "ccnet_head_middle_mix": lambda sf: llm.ccnet_head_middle_mix(sf),
        # full curriculum plan: UniMax budgets x perplexity tiles with
        # 3:2:1 weighting, epoch caps and deterministic spill
        "pretrain_mix_plan": lambda sf: llm.pretrain_mix_plan(sf),
        # integer Lloyd: the k-means sibling with an exact recursive twin
        "kmeans_fixedpoint": lambda sf: similarity.kmeans_fixedpoint(sf),
        # integer power iteration: the PCA sibling with an exact twin
        "pca_power_fixedpoint": lambda sf: similarity.pca_power_fixedpoint(sf),
        # integer SemDeDup: clusters AND cosine test exactly oracled
        "semantic_dedup_fixedpoint": lambda sf: similarity.semantic_dedup_fixedpoint(sf),
        # deterministic blocked Misra-Gries heavy hitters (exact twin)
        "heavy_hitters_det": _q_heavy_hitters_det,
        # DPO preference pairs mined from forked conversations
        "dpo_pairs": _q_dpo_pairs,
        # per-language chars-per-BPE-token equity metric
        "tokenizer_fertility": lambda sf: llm.tokenizer_fertility(sf),
        # the (metric, value) dataset card a curation run publishes
        "corpus_datasheet": lambda sf: llm.corpus_datasheet(sf),
        # behavioral event-type trigram mining (what follows what)
        "user_event_trigrams": rel.user_event_trigrams,
        # gaps-and-islands interval-union coverage per user
        "user_active_time": rel.user_active_time,
        # referential-integrity (FK orphan) profiling
        "orders_fk_profile": rel.orders_fk_profile,
        # frequent event-type pair mining (A-priori level-2)
        "user_type_itemsets": rel.user_type_itemsets,
        # MMR diverse subset selection (greedy distributed argmax;
        # rows-only: greedy argmax has no SQL — pinned by serial recompute)
        "mmr_diverse_topk": similarity.mmr_diverse_topk,
        # MDM golden records: editdist-1 clusters + survivorship rule
        "part_golden_records": qual.part_golden_records,
        # incremental stateful streaming: per-bucket session actors fed
        # in ts order; same exact oracle as the batch sessionize
        "streaming_sessionize": _q_streaming_sessionize,
        "streaming_heavy_hitters": _q_streaming_heavy_hitters,
        # TPC-H Q5 shape: multiway join with the customer=supplier
        # nation colocation predicate (big x big shuffle + broadcast dims)
        "local_supplier_revenue": rel.local_supplier_revenue,
        # ROWS-frame sliding extrema window (order-independent doubles)
        "events_rolling_peak": rel.events_rolling_peak,
        # interval sweep-line: peak concurrent sessions per day
        # (two-phase prefix scan over sessionized +1/-1 points)
        "concurrent_sessions_daily_peak": rel.concurrent_sessions_daily_peak,
        # exact triangle count via degree-ordered wedge checks
        "user_triangles": graph.user_triangles,
        # Z-order (Morton) layout zone maps + the pruned-read payoff
        "zorder_layout": dso.zorder_layout,
        "zorder_pruned_count": dso.zorder_pruned_count,
        # classic distinct-aggregate without a two-key hash aggregate
        "events_type_daily_uniques": rel.events_type_daily_uniques,
        # equi-depth decile boundaries via the bounded-domain CDF
        "events_value_equidepth": rel.events_value_equidepth,
        # source-format parity: same operator, CSV ingest path
        "events_hourly_csv": rel.events_hourly_csv,
        # order-independent mergeable integrity checksum (zero shuffle)
        "events_table_checksum": rel.events_table_checksum,
        # windowed COUNT DISTINCT: rolling 7-day active users
        "rolling_wau": rel.rolling_wau,
        # three-step strict-order CEP funnel (vectorized chain test)
        "funnel_three_step": rel.funnel_three_step,
        # global ORDER BY LIMIT via mergeable per-block top-k (no sort)
        "top_value_events": rel.top_value_events,
        # integer-exact inter-event gap moments per user
        "user_gap_stats": rel.user_gap_stats,
        # per-(source, lang) provenance rollup over documents
        "source_quality_rollup": rel.source_quality_rollup,
        # LTV cohort curve: one customer-keyed shuffle, group-local ages
        "customer_ltv_cohorts": rel.customer_ltv_cohorts,
        # ratio-to-report in exact integer parts-per-million
        "nation_revenue_share": rel.nation_revenue_share,
        # bounce rate per session-start day (integer ppm)
        "session_bounce_rate": rel.session_bounce_rate,
        # first-order Markov event-type transition matrix (ppm rows)
        "event_type_transitions": rel.event_type_transitions,
        # per-day discrete p50/p90 (actual data values, bit-exact)
        "events_daily_percentiles": rel.events_daily_percentiles,
        # behavioral journey signatures (first-k event types)
        "user_journey_counts": rel.user_journey_counts,
        # per-user event-type Shannon entropy (exact nano-nats)
        "user_type_entropy": rel.user_type_entropy,
        # time-to-conversion histogram with a censored bucket
        "days_to_first_purchase": rel.days_to_first_purchase,
        # top-decile revenue share via the bounded-domain CDF
        "customer_revenue_concentration": rel.customer_revenue_concentration,
        # per-tool call latency accounting over the transcript table
        "tool_latency": _q_conv(cv.tool_latency),
        # fulfillment latency per priority (second big x big join consumer)
        "fulfillment_latency": rel.fulfillment_latency,
        # SCD type-2 dimension history from two crawl snapshots
        "scd2_history": dso.scd2_history,
        # corpus-wide duplicated-passage removal (RefinedWeb line dedup shape)
        "segment_dedup": llm.segment_dedup,
        # context-window suffix retention accounting over the transcript table
        "context_truncation": _q_conv(cv.context_truncation),
        # TPC-H Q3: segment-filtered big x big join, global revenue top-10
        "tpch_q3": rel.tpch_q3,
        # NTILE(4) balance quartiles per market segment
        "ntile_quartiles": rel.ntile_quartiles,
        # users-to-date curve via the first-touch trick
        "cumulative_distinct_users": rel.cumulative_distinct_users,
        # ORC ingest path + order-independent table checksum parity
        "documents_checksum_orc": dso.documents_checksum_orc,
        # last-touch marketing attribution with a lookback window
        "last_touch_attribution": rel.last_touch_attribution,
        # trailing-7-event robust median per user
        "rolling_median_value": rel.rolling_median_value,
        # incremental materialized-view maintenance (base + CDC delta merge)
        "mv_incremental_daily_revenue": rel.mv_incremental_daily_revenue,
        # A/B readout with deterministic hash assignment, integer-ppm lift
        "experiment_lift": rel.experiment_lift,
        # storage-co-partitioned bucketed join (zero shuffle at query time)
        "bucketed_join_revenue": dso.bucketed_join_revenue,
        # KMV/theta sketch audience overlap (exact below saturation)
        "kmv_type_intersections": sketches.kmv_type_intersections,
        # small-file compaction with integrity checksum gate
        "compact_events_checksum": dso.compact_events_checksum,
        # mixed-schema-version shard read with explicit normalize stage
        "schema_migration_counts": dso.schema_migration_counts,
        # per-role exact length quantiles via bounded-domain frequency fold
        "role_length_quantiles": _q_conv(cv.role_length_quantiles),
        # C4/Gopher-style quality-filter retention funnel
        "filter_funnel": qual.filter_funnel,
        # day-over-day growth per event type in exact integer ppm
        "dod_growth": rel.dod_growth,
        # running COUNT(DISTINCT event_type) per user at every event
        "distinct_types_so_far": rel.distinct_types_so_far,
        # open-order backlog curve (interval deltas + prefix scan)
        "order_backlog_curve": rel.order_backlog_curve,
        # manifest-based snapshot isolation (time travel reads)
        "time_travel_read": dso.time_travel_read,
        # bloom-pushdown join (runtime filter before the exchange)
        "bloom_join_revenue": rel.bloom_join_revenue,
        # winsorized robust aggregate via bounded-domain frequency fold
        "winsorized_mean_value": rel.winsorized_mean_value,
        # month-of-year seasonality over the multi-year orders history
        "monthly_seasonality": rel.monthly_seasonality,
        # point-in-time feature-store snapshot (no post-cutoff leakage)
        "feature_snapshot": rel.feature_snapshot,
        # k-anonymity release audit over (type, day) quasi-identifiers
        "k_anonymity_check": rel.k_anonymity_check,
        # per-dimension embedding profile, integer-quantized exact
        "embedding_dim_stats": rel.embedding_dim_stats,
        # distributed MERGE INTO (co-partitioned upsert/delete apply)
        "merge_upsert": dso.merge_upsert,
        # inter-label centroid similarity matrix (quantized exact)
        "label_centroid_profile": rel.label_centroid_profile,
        # data-contract audit: per-rule violation counts, zero shuffle
        "contract_violations": rel.contract_violations,
        # TPC-H Q13 shape: order-count distribution incl. zero bucket
        "customer_order_distribution": rel.customer_order_distribution,
        # TPC-H Q7 shape: bilateral nation-pair trade over the big join
        "nation_pair_trade": rel.nation_pair_trade,
        # log compaction / QUALIFY rn=1: current state per user
        "latest_event_per_user": rel.latest_event_per_user,
        # point-in-time temporal join against the SCD2 dimension
        "scd2_pit_join": dso.scd2_pit_join,
        # transcript retry detection (user->user consecutive turns)
        "user_retry_rate": _q_conv(cv.user_retry_rate),
        # hashing-trick bag-of-words (vocabulary-free features)
        "feature_hashing": textops.feature_hashing,
        # inverse-frequency language class weights (integer ppm)
        "lang_class_weights": lambda sf: llm.lang_class_weights(sf),
        # recsys negative sampling (deterministic hash-ranked)
        "negative_samples": rel.negative_samples,
        # leave-last-out temporal holdout per user
        "leave_last_out_split": rel.leave_last_out_split,
        # calendar rollup: ISO week x weekday/weekend class
        "events_weekly_weekend": rel.events_weekly_weekend,
        # merge-on-read scan with positional deletion vectors
        "deletion_vector_read": dso.deletion_vector_read,
        # GROUPING SETS lattice from one finest-grain fold
        "events_grouping_sets": rel.events_grouping_sets,
        # integer-exact 2-sigma daily volume anomaly flags
        "daily_count_anomalies": rel.daily_count_anomalies,
        # hot-key salted aggregation (skew pattern, oracle-pinned)
        "type_stats_salted": rel.type_stats_salted,
        # JSONL sink + reader round-trip fidelity checksum
        "documents_jsonl_roundtrip": dso.documents_jsonl_roundtrip,
        # SFT user->assistant pair extraction accounting
        "sft_pairs": _q_conv(cv.sft_pairs),
        # dead-letter split sink (contract-valid vs quarantine)
        "quarantine_split": rel.quarantine_split,
        # two-pass global z-score feature scaling (micro-quantized)
        "events_value_zscore": rel.events_value_zscore,
        # symmetric int8 vector quantization (storage format prep)
        "embedding_int8_quantize": rel.embedding_int8_quantize,
        # agentic tool-chain transition mining over transcripts
        "tool_chain_bigrams": _q_conv(cv.tool_chain_bigrams),
        # categorical codebook build + encode (label encoding)
        "categorical_encode": rel.categorical_encode,
        # keyset/cursor pagination without global sort or OFFSET
        "events_keyset_page": rel.events_keyset_page,
        # retrieval over quantized vectors (exact int64 dot scores)
        "ann_quantized_topk": rel.ann_quantized_topk,
        # lakehouse orphan-file audit (rows-only: filesystem state)
        "orphan_files_audit": dso.orphan_files_audit,
        # incremental stateful stream dedup (per-bucket state actors)
        "streaming_windowed_dedup": _q_streaming_windowed_dedup,
        # tokenizer-coverage OOV audit (build -> broadcast -> apply)
        "oov_rate": lambda sf: qual.oov_rate(sf),
        # sequence-length bucketing + padding-waste report
        "length_bucket_stats": lambda sf: qual.length_bucket_stats(sf),
        # TPC-H Q4 shape: big x big EXISTS via shard-distinct keys
        "returned_order_priority_counts": rel.returned_order_priority_counts,
        # TPC-H Q14 shape: promo revenue share per month (integer ppm)
        "promo_revenue_share": rel.promo_revenue_share,
        # PSI feature-drift monitor (micro-nat exact terms)
        "value_drift_psi": rel.value_drift_psi,
        # per-tool latency SLA percentiles (second-grain exact)
        "tool_latency_quantiles": _q_conv(cv.tool_latency_quantiles),
        # hybrid-search reciprocal-rank fusion (exact integer terms)
        "ann_rrf_fusion": lambda sf: similarity.ann_rrf_fusion(sf),
        # catalog-wide row-count + key-checksum manifest
        "catalog_integrity_report": dso.catalog_integrity_report,
        # keyed pseudonymization preserving joinability
        "pseudonymize_users": rel.pseudonymize_users,
        # pairwise histogram-intersection similarity across types
        "type_value_similarity": rel.type_value_similarity,
        # TPC-H Q10 shape: returned-revenue customer ranking
        "returned_customer_revenue": rel.returned_customer_revenue,
        # TPC-H Q18 shape: HAVING-on-big-aggregate feeding a join
        "large_order_customers": rel.large_order_customers,
        # year-over-year revenue growth (integer ppm)
        "orders_yearly_growth": rel.orders_yearly_growth,
        # per-label least-aligned vectors (exclusive centroid dot)
        "embedding_label_outliers": rel.embedding_label_outliers,
        # distinct catalog coverage per supplier (packed-key distinct)
        "supplier_part_coverage": rel.supplier_part_coverage,
        # (dow x type) independence-lift table (integer ppm)
        "dow_type_lift": rel.dow_type_lift,
        # error taxonomy over the flagship pipeline's own output
        "payload_error_taxonomy": lambda sf: cv.payload_error_taxonomy(
            _run_extract_ds(_scale_for(sf))
        ),
        # epoch-shuffle integrity gate (random_shuffle + invariant)
        "shuffle_integrity": rel.shuffle_integrity,
        # cross-format parquet + CSV union federation checksum
        "multisource_events_union": rel.multisource_events_union,
        # RANK()-with-ties top-k per group (boundary peers kept)
        "top_value_events_with_ties": rel.top_value_events_with_ties,
        # near-dup cluster-size distribution (dedup run report)
        "dedup_cluster_size_histogram": lambda sf: dedup.dedup_cluster_size_histogram(sf),
        # diurnal hour-of-day activity profile
        "hourly_profile": rel.hourly_profile,
        # boilerplate mining: top duplicated passages
        "boilerplate_segments": lambda sf: llm.boilerplate_segments(sf),
        # first-response SLA per conversation
        "conv_first_response_latency": _q_conv(cv.conv_first_response_latency),
        # trailing-window adaptive anomaly flags (exact integer test)
        "rolling_count_anomalies": rel.rolling_count_anomalies,
        # join-fanout cardinality histogram (planner sampling surface)
        "order_fanout_histogram": rel.order_fanout_histogram,
        # TPC-H Q19 shape: OR-of-ANDs predicate revenue
        "dnf_filter_revenue": rel.dnf_filter_revenue,
        # longest consecutive-active-day streak per user
        "user_longest_streak": rel.user_longest_streak,
        # Heaps'-law bigram vocabulary growth (first-touch trick)
        "bigram_vocab_growth": dso.bigram_vocab_growth,
        # ingest lineage via include_paths (per-shard provenance)
        "csv_shard_lineage": dso.csv_shard_lineage,
        # daily share-of-type trend (integer ppm)
        "events_type_share_trend": rel.events_type_share_trend,
        # exact squared-norm histogram (vector intake gate)
        "embedding_norm_histogram": rel.embedding_norm_histogram,
        # Benford first-digit audit with expectation column
        "events_value_benford": rel.events_value_benford,
        # session-depth distribution over the sessionize output
        "session_size_histogram": rel.session_size_histogram,
        # exact weighted percentiles over a bounded domain
        "weighted_median_k": rel.weighted_median_k,
        # cross-split near-dup leakage scan (eval hygiene)
        "split_leakage_scan": lambda sf: dedup.split_leakage_scan(sf),
        # greedy coverage-driven data selection (rows-only: greedy
        # argmax has no SQL — pinned by serial recompute pytest)
        "coverage_selection": lambda sf: llm.coverage_selection(sf),
        # Hive-partitioned sink + partition-pruned read round-trip
        "partitioned_write_pruned_read": dso.partitioned_write_pruned_read,
        "parquet_layout_audit": dso.parquet_layout_audit,
        "rowgroup_pruning_audit": dso.rowgroup_pruning_audit,
        # ANN acceptance report: recall@k of IVF vs exact (rows-only)
        "ann_recall_report": lambda sf: similarity.ann_recall_report(sf),
        # grounding-effect panel: assistant length by tool context
        "assistant_length_by_tool_context": _q_conv(cv.assistant_length_by_tool_context),
        # TPC-H Q8 shape: national market share in integer ppm
        "tpch_q8_market_share": rel.tpch_q8_market_share,
        # TPC-H Q15 shape: top supplier by quarter revenue, with ties
        "tpch_q15_top_supplier": rel.tpch_q15_top_supplier,
        # TPC-H Q17 shape: small-quantity revenue (exact correlated avg)
        "tpch_q17_small_quantity_revenue": rel.tpch_q17_small_quantity_revenue,
        # TPC-H Q21 shape: only-late supplier counts on multi-supplier orders
        "tpch_q21_waiting_suppliers": rel.tpch_q21_waiting_suppliers,
        # TPC-H Q22 shape: above-average idle balances per nation
        "tpch_q22_idle_balance": rel.tpch_q22_idle_balance,
        # leave-one-out target-encoding leakage audit
        "loo_target_encode_audit": rel.loo_target_encode_audit,
        # market-basket: top co-purchased part pairs (packed-pair counts)
        "part_copurchase_pairs": rel.part_copurchase_pairs,
        # repeat-purchase cadence histogram (per-customer gap bands)
        "orders_repeat_interval_histogram": rel.orders_repeat_interval_histogram,
        # exact integer sufficient stats for daily-count autocorrelation
        "daily_count_autocorr_stats": rel.daily_count_autocorr_stats,
        # skew-safe salted repartition join (composite key exchange)
        "salted_repartition_join": rel.salted_repartition_join,
        # GDPR right-to-erasure cascade with post-delete accounting
        "erasure_sweep": dso.erasure_sweep,
        # CDC changelog apply (last-op-wins upsert/delete materialize)
        "cdc_apply": rel.cdc_apply,
        # robust median/MAD outlier gate (two distributed selections)
        "orders_mad_outliers": rel.orders_mad_outliers,
        # churn-risk weekly recency bands
        "user_inactivity_churn": rel.user_inactivity_churn,
        # exact-integer CUSUM changepoint curve on daily revenue
        "daily_revenue_cusum": rel.daily_revenue_cusum,
        # chi-square token-label association (feature selection)
        "token_lang_chi2": textops.token_lang_chi2,
        "source_token_kl": textops.source_token_kl,
        "heaps_law_fit": textops.heaps_law_fit,
        "doc_filter_funnel": textops.doc_filter_funnel,
        "source_len_ks_matrix": textops.source_len_ks_matrix,
        "zipf_slope_fit": textops.zipf_slope_fit,
        "nb_source_confusion": textops.nb_source_confusion,
        "token_adaptation_stats": textops.token_adaptation_stats,
        # calendar densify + forward fill on the daily revenue grid
        "daily_gap_fill": rel.daily_gap_fill,
        # bitmap activity index via custom bitwise-OR AggregateFn
        "user_active_day_bitmap": rel.user_active_day_bitmap,
        # l-diversity privacy audit over (nation, balance-band) QI groups
        "l_diversity_check": rel.l_diversity_check,
        # exact-integer Pearson sufficient stats for the numeric pairs
        "lineitem_corr_stats": rel.lineitem_corr_stats,
        # contrastive hard negatives: exact int-dot argmax vs broadcast pool
        "hard_negative_mining": lambda sf: similarity.hard_negative_mining(sf),
        # Hamilton largest-remainder share allocation (sums to 10000 bps)
        "largest_remainder_allocation": rel.largest_remainder_allocation,
        # md5-partition skew diagnostic (predicts sink file sizes)
        "hash_partition_skew": dso.hash_partition_skew,
        # Arrow IPC stream sink + binary-file source round trip
        "documents_arrow_ipc_roundtrip": dso.documents_arrow_ipc_roundtrip,
        # VAD-style energy segmentation over real WAV codecs (rows-only:
        # burst recovery pinned by pytest against planted ground truth)
        "audio_energy_segments": _q_audio_energy_segments,
        # first-order Markov next-event model, temporal-split backtest
        "markov_backtest": rel.markov_backtest,
        # per-user exact p95 banded histogram (co-located quantiles)
        "user_p95_distribution": rel.user_p95_distribution,
        # distributed Bloom build + no-false-negative / FPR audit
        # (rows-only: hash internals have no SQL twin; invariants pinned
        # by pytest — zero false negatives, FPR near theoretical)
        "bloom_dedup_audit": lambda sf: dedup.bloom_dedup_audit(sf),
        # MOSS winnowing fingerprint near-dup pairs (stop-df capped)
        "winnowing_dedup": lambda sf: dedup.winnowing_dedup(sf),
        # contamination / canary phrase substring census
        "lexicon_match_census": lambda sf: textops.lexicon_match_census(sf),
        # density clustering with exact integer geometry
        "dbscan_embeddings": lambda sf: similarity.dbscan_embeddings(sf),
        # Gonzalez farthest-first coreset (max-min diversity seeds)
        "kcenter_coreset": lambda sf: similarity.kcenter_coreset(sf),
        # submodular facility-location representative selection
        "facility_location_selection": lambda sf: similarity.facility_location_selection(sf),
        # two-pass deterministic-sample hot-key detection + exact recount
        "hot_key_detector": dso.hot_key_detector,
        # quantile-boundary range-sharded sink with round-trip audit
        "range_partitioned_write": dso.range_partitioned_write,
        # co-partitioned merge join over shared range boundaries (no
        # all-to-all: one co-read+join task per shard)
        "range_merge_join": dso.range_merge_join,
        # context-window pressure curve over the transcript corpus
        "context_size_at_turn": _q_conv(cv.context_size_at_turn),
        # RFM quartile cube (per-segment NTILE via map_groups)
        "rfm_segments": rel.rfm_segments,
        # dyadic-exact EWMA of the daily event count (float hash-matches)
        "daily_ewma": rel.daily_ewma,
        # TPC-H Q16 shape: distinct suppliers per part attrs, NOT IN set
        "supplier_cnt_by_part_attrs": rel.supplier_cnt_by_part_attrs,
        # TPC-H Q2 shape: argmax supplier per part via packed-int Max agg
        "best_supplier_per_part": rel.best_supplier_per_part,
        # deterministic hash k-fold split with stratification audit
        "kfold_assignment": lambda sf: llm.kfold_assignment(sf),
        # exact int-dot kNN graph + mutual-edge degree histogram
        "mutual_knn_degree": lambda sf: similarity.mutual_knn_degree(sf),
        # IVF-bucketed scale siblings of the broadcast-pool embedding
        # audits (within-bucket only; no driver read of the table) plus
        # the n_centroids=1 / all-candidates degenerates that push the
        # exact results through the same bucketed machinery
        "mutual_knn_degree_ivf": lambda sf: similarity.mutual_knn_degree_ivf(sf),
        "mutual_knn_degree_ivf_exact": lambda sf: similarity.mutual_knn_degree_ivf(
            sf, n_centroids=1
        ),
        "embedding_pair_distance_histogram_ivf": lambda sf: (
            similarity.embedding_pair_distance_histogram_ivf(sf)
        ),
        "embedding_pair_distance_histogram_ivf_exact": lambda sf: (
            similarity.embedding_pair_distance_histogram_ivf(sf, n_centroids=1)
        ),
        "triplet_margin_violations_ivf": lambda sf: (
            similarity.triplet_margin_violations_ivf(sf)
        ),
        "triplet_margin_violations_ivf_exact": lambda sf: (
            similarity.triplet_margin_violations_ivf(sf, n_centroids=1)
        ),
        "dbscan_embeddings_ivf": lambda sf: similarity.dbscan_embeddings_ivf(sf),
        "dbscan_embeddings_ivf_exact": lambda sf: similarity.dbscan_embeddings_ivf(
            sf, n_centroids=1
        ),
        "facility_location_selection_ivf": lambda sf: (
            similarity.facility_location_selection_ivf(sf)
        ),
        "facility_location_selection_ivf_exact": lambda sf: (
            similarity.facility_location_selection_ivf(sf, all_candidates=True)
        ),
        # purged/embargoed time split (leakage guard)
        "time_embargo_split": rel.time_embargo_split,
        # A/B behaviour set algebra (both / only / neither user counts)
        "event_type_user_sets": rel.event_type_user_sets,
        # ALL-quantifier: every order above segment average (int-exact)
        "consistent_big_spenders": rel.consistent_big_spenders,
        # top-2-per-group window: widest best-vs-runner-up supplier gaps
        "supplier_runnerup_gap": rel.supplier_runnerup_gap,
        # packed (customer, day) double-submit audit per segment
        "same_day_repeat_orders": rel.same_day_repeat_orders,
        # growth accounting: new/retained/resurrected/churned per day
        "user_lifecycle_daily": rel.user_lifecycle_daily,
        # cross-doc chunk-hash duplication histogram (RAG ingest profile)
        "chunk_dedup_stats": lambda sf: dso.chunk_dedup_stats(sf),
        # relational division: users covering EVERY event type
        "users_all_event_types": rel.users_all_event_types,
        # co-partitioned self-agg join: events above the user's own p95
        "events_above_own_p95": rel.events_above_own_p95,
        # gaps-and-islands: same-role run-length histogram per role
        "role_run_lengths": _q_conv(cv.role_run_lengths),
        # iterative distributed BFS over the co-purchase graph
        "part_bfs_levels": graph.part_bfs_levels,
        # token-budget curriculum prefix via two-phase scan on the score key
        "quality_budget_selection": lambda sf: llm.quality_budget_selection(sf),
        # exact distributed NTILE(10) via order-statistic selection, no global sort
        "customer_decile_transition": rel.customer_decile_transition,
        # dyadic-exact exponential time-decay engagement ranking
        "recency_weighted_user_scores": rel.recency_weighted_user_scores,
        # integer-exact Herfindahl supply-concentration index per part
        "supplier_part_herfindahl": rel.supplier_part_herfindahl,
        # shot-boundary detection over real PPM/GIF video codecs
        # (rows-only: pinned by exact planted-cut recovery in pytest)
        "video_scene_cuts": video_scene_cuts_q,
        # exact-integer two-sample KS distance over the bounded cents domain
        "events_ks_statistic": rel.events_ks_statistic,
        # exact Mann-Whitney AUC (tie-corrected, doubled-numerator ints)
        "events_value_auc": rel.events_value_auc,
        # MinHash vs SimHash pair-set agreement (method calibration)
        "dedup_method_overlap": lambda sf: dedup.dedup_method_overlap(sf),
        # exact audience-overlap Jaccard matrix via bitmask histogram
        "event_type_jaccard_matrix": rel.event_type_jaccard_matrix,
        # exact all-pairs dot-product landscape, histogram-sized exchange
        "embedding_pair_distance_histogram": lambda sf: similarity.embedding_pair_distance_histogram(sf),
        # t-closeness release gate: exact integer EMD per QI cell
        "t_closeness_audit": rel.t_closeness_audit,
        # top-p 'nucleus' audience per type (exact threshold arithmetic)
        "revenue_nucleus_users": rel.revenue_nucleus_users,
        # prefix-cluster survivorship dedup (keep highest-quality member)
        "prefix_cluster_keep_best": lambda sf: dedup.prefix_cluster_keep_best(sf),
        # per-user max drawdown via segmented cummax (exact signed cents)
        "user_max_drawdown": rel.user_max_drawdown,
        # sequential A/B monitoring curve (cumulative per-arm, exact ppm)
        "experiment_lift_curve": rel.experiment_lift_curve,
        # transcript abandonment: which role holds the floor at conv end
        "conv_abandonment": _q_conv(cv.conv_abandonment),
        # cross-table financial reconciliation (big x big shuffle join)
        "order_price_reconciliation": rel.order_price_reconciliation,
        # length-vs-quality Pearson sufficient stats (bias audit, int-exact)
        "doc_len_quality_corr": lambda sf: llm.doc_len_quality_corr(sf),
        # response-length drift: first vs last assistant turn per conv
        "assistant_drift": _q_conv(cv.assistant_drift),
        # Zipf-head vocabulary nucleus (tokenizer budget planning)
        "token_nucleus_share": lambda sf: llm.token_nucleus_share(sf),
        # distinct-tools-per-conversation histogram (agentic-ness)
        "conv_tool_diversity": _q_conv(cv.conv_tool_diversity),
        # onboarding first-touch event-type distribution
        "first_event_type_counts": rel.first_event_type_counts,
        # delete-one-block jackknife inputs (user-clustered uncertainty)
        "block_jackknife_stats": rel.block_jackknife_stats,
        # distribution-preserving dedup weights per language
        "dedup_weight_correction": lambda sf: dedup.dedup_weight_correction(sf),
        # vendor-SLA tail: per-supplier exact p90 ship delay, k slowest
        "slowest_suppliers_p90": rel.slowest_suppliers_p90,
        # iterative k-core peeling of the co-purchase graph
        # (rows-only: fixpoint loop has no SQL; pinned by serial peel)
        # ks sit at the sf0.01 co-purchase graph's core phase
        # transition (64: mild peel, 80: 6-round cascade, 96: total
        # collapse) so the fixpoint actually iterates
        "part_kcore_sizes": lambda sf: graph.part_kcore_sizes(sf, ks=(64, 80, 96)),
        # hyperplane sign-LSH near-dup pairs (third embedding path;
        # rows-only: banding is probabilistic — subset-of-exact +
        # recall bound pinned in pytest, theory-matched at 4x4 bands)
        "embedding_sign_lsh_pairs": lambda sf: similarity.embedding_sign_lsh_pairs(sf),
        # daily-count overdispersion (Fano) sufficient stats per type
        "events_burstiness_fano": rel.events_burstiness_fano,
        # hub-hub wiring: bipartite degree-assortativity sufficient stats
        "bipartite_assortativity_stats": graph.bipartite_assortativity_stats,
        # near-dup cluster language purity (label-consistency audit)
        "cluster_lang_purity": lambda sf: dedup.cluster_lang_purity(sf),
        # Spearman rank-correlation sufficient stats (doubled avg ranks)
        "events_spearman_stats": rel.events_spearman_stats,
        # 0-1-loss decision stump threshold (exact integer argmin)
        "stump_threshold_split": rel.stump_threshold_split,
        # Wald-Wolfowitz runs audit around the exact global median
        "events_runs_test": rel.events_runs_test,
        # per-user Theil-Sen median slope as an exact rational
        "user_theil_sen_slope": rel.user_theil_sen_slope,
        # weighted SSSP over the part co-purchase graph (Bellman-Ford rounds)
        "part_weighted_sssp": graph.part_weighted_sssp,
        # longest increasing subsequence per user (patience DP in shards)
        "user_lis_lengths": rel.user_lis_lengths,
        # pairwise SimHash hamming-distance landscape (histogram-sized exchange)
        "simhash_hamming_histogram": lambda sf: dedup.simhash_hamming_histogram(sf),
        # banded scale sibling: LSH-bucketed landscape, bins < n_bands exact
        # by pigeonhole, no driver-side signature materialization
        "simhash_hamming_histogram_banded": lambda sf: dedup.simhash_hamming_histogram_banded(sf),
        # LSH health audit: band-bucket size distribution = the candidate
        # mass / skew readout BEFORE paying a banded shuffle
        "simhash_band_skew_census": lambda sf: dedup.simhash_band_skew_census(sf),
        # DoReMi-shaped Group-DRO domain reweighting, exact integer rounds
        "doremi_fixedpoint": mixing.doremi_fixedpoint,
        # capstone: DoReMi mixture -> epoch-capped token allocation with
        # deterministic excess-ranked spill
        "doremi_mix_plan": lambda sf: mixing.doremi_mix_plan(sf),
        # calibration sweeps: retention curve per candidate cutoff,
        # grid-sized exchanges
        "quality_threshold_sweep": calibration.quality_threshold_sweep,
        "jaccard_threshold_sweep": lambda sf: calibration.jaccard_threshold_sweep(sf),
        # GRAND CAPSTONE: extraction -> quality filter -> exact dedup ->
        # greedy packing, one chained golden-anchored exact twin. Feeds
        # from the process-memoized shared extraction (same amortization
        # as every extract_* query; the full unshared pipeline is pinned
        # by tests/test_corpusbuild.py).
        "transcript_corpus_build": _q_corpus_build,
        # padding-aware dynamic batching (max_len * n_seqs <= budget)
        "length_bucketed_batch_plan": llm.length_bucketed_batch_plan,
        # per-bucket padding-efficiency rollup of the same plan
        "pad_efficiency_report": llm.pad_efficiency_report,
        # whole-conversation SFT context packing (convs never split)
        "conv_context_pack": _q_conv(cv.conv_context_pack),
        # deterministic greedy-bandit policy replay (exact integer argmax)
        "bandit_greedy_replay": rel.bandit_greedy_replay,
        # exact weighted isotonic regression via the minimax rational form
        "isotonic_rate_curve": rel.isotonic_rate_curve,
        # fundamental-period estimation over real WAV codecs (rows-only:
        # decode has no SQL; exact planted-period recovery pinned in pytest)
        "audio_pitch_estimate": _q_audio_pitch_estimate,
        # minimum spanning forest via Boruvka rounds (rows-only: iterative
        # fixpoint like k-core; serial-Kruskal edge-set equality in pytest)
        "part_mst_boruvka": graph.part_mst_boruvka,
        # Pettitt change-point over the value stream (doubled-rank ints)
        "events_pettitt_change": rel.events_pettitt_change,
        # gapped sequential triple patterns (greedy-witness counting)
        "gapped_triple_patterns": rel.gapped_triple_patterns,
        # click->purchase lead-lag cross-correlation profile
        "daily_lead_lag_xcorr": rel.daily_lead_lag_xcorr,
        # assistant self-similarity drift (Levenshtein between adjacent turns)
        "conv_editdist_drift": _q_conv(cv.conv_editdist_drift),
        # Mann-Kendall trend inputs per type (exact S + tie-corrected var18)
        "mann_kendall_daily_trend": rel.mann_kendall_daily_trend,
        # Kendall concordance decomposition per user (tau-b sufficient stats)
        "user_kendall_concordance": rel.user_kendall_concordance,
        # weighted interval scheduling DP per user (exact cents optimum)
        "user_interval_scheduling": rel.user_interval_scheduling,
        # metric-learning triplet violations over labeled embeddings
        "triplet_margin_violations": lambda sf: similarity.triplet_margin_violations(sf),
        # weekday-vs-weekend integrated CDF gap (integer energy distance)
        "events_cdf_l1_gap": rel.events_cdf_l1_gap,
        # MASE denominators: seasonal vs plain naive daily backtest
        "seasonal_naive_backtest": rel.seasonal_naive_backtest,
        # turn-taking alternation per conversation
        "conv_alternation_rate": _q_conv(cv.conv_alternation_rate),
        # multi-pattern lexicon matching (non-overlapping substring counts)
        "dictionary_match_counts": textops.dictionary_match_counts,
        # de Bruijn bigram-graph degree balance (Eulerian-path algebra)
        "event_debruijn_balance": graph.event_debruijn_balance,
        # optimal-stopping secretary-rule replay over daily revenue
        "secretary_rule_replay": rel.secretary_rule_replay,
        # Burrows-Wheeler compressibility audit (rows-only: transform has
        # no SQL; inverse-LF roundtrip pinned in pytest)
        "bwt_compressibility": textops.bwt_compressibility,
        # exact histogram convolution (click + purchase combined cost)
        "value_sum_convolution": rel.value_sum_convolution,
        # leaderboard agreement: top-d intersection profile, two rankings
        "topk_overlap_profile": rel.topk_overlap_profile,
        # iterated-skyline (onion) depth decomposition of the part cloud
        "part_onion_layers": rel.part_onion_layers,
        # Gale-Shapley stable matching (rows-only: proposal fixpoint;
        # serial equality + no-blocking-pair brute pinned in pytest)
        "supplier_part_stable_matching": rel.supplier_part_stable_matching,
        # Kadane max-subarray burst per user (prefix-min identity)
        "user_max_burst": rel.user_max_burst,
        # fairness-capped global leaderboard (<=3 per user, top-100)
        "capped_top_events": rel.capped_top_events,
        # consistent-hashing ring routing + rebalance-movement audit
        "consistent_hash_ring": dso.consistent_hash_ring,
        # posting-list varint delta encoding cost audit
        "varint_delta_size_audit": rel.varint_delta_size_audit,
        "rice_param_audit": rel.rice_param_audit,
        "position_attribution": rel.position_attribution,
        "hourly_emd_matrix": rel.hourly_emd_matrix,
        "duplicate_payment_pairs": rel.duplicate_payment_pairs,
        "priority_inversion_census": rel.priority_inversion_census,
        "selectivity_estimate_audit": rel.selectivity_estimate_audit,
        "capacity_waterfill_allocation": rel.capacity_waterfill_allocation,
        "embedding_split_half_drift": rel.embedding_split_half_drift,
        "nation_revenue_theil": rel.nation_revenue_theil,
        "user_value_msd_median": rel.user_value_msd_median,
        "custbal_revenue_kendall": rel.custbal_revenue_kendall,
        "hourly_acf_spectrum": rel.hourly_acf_spectrum,
        "session_entry_exit_matrix": rel.session_entry_exit_matrix,
        "cosupplier_degree_histogram": rel.cosupplier_degree_histogram,
        "orders_monthly_bridge": rel.orders_monthly_bridge,
        "type_sojourn_time": rel.type_sojourn_time,
        "type_above_median_runs": rel.type_above_median_runs,
        "boundary_timestamp_audit": rel.boundary_timestamp_audit,
        "user_activity_lorenz": rel.user_activity_lorenz,
        "order_brand_simpson": rel.order_brand_simpson,
        "type_halfmass_time": rel.type_halfmass_time,
        "type_gini_mean_diff": rel.type_gini_mean_diff,
        "returns_pchart_audit": rel.returns_pchart_audit,
        "user_daily_periodicity": rel.user_daily_periodicity,
        "value_sortedness_audit": rel.value_sortedness_audit,
        "daily_revenue_max_surge": rel.daily_revenue_max_surge,
        # Merkle root over daily revenue partitions (replica diff primitive)
        "daily_merkle_root": rel.daily_merkle_root,
        # integer Haar wavelet decomposition of daily revenue
        "daily_haar_coeffs": rel.daily_haar_coeffs,
        # exclusion funnel: signup-then-purchase with no error between
        "signup_to_purchase_clean": rel.signup_to_purchase_clean,
        # minimum interval stabbing via the optimal greedy
        "min_audit_points": rel.min_audit_points,
        # single-server queue replay (closed-form cummax recurrence)
        "queue_sim_wait_times": rel.queue_sim_wait_times,
        # Cohen's kappa sufficient stats between derived labelers
        "label_agreement_kappa": rel.label_agreement_kappa,
        # Shannon-Fano-Elias code lengths via pure bit arithmetic
        "sfe_code_lengths": rel.sfe_code_lengths,
        # Mann-Whitney U via doubled midranks over the cents domain
        "events_mannwhitney_u": rel.events_mannwhitney_u,
        # D'Hondt highest-averages apportionment, exact quotient order
        "dhondt_allocation": rel.dhondt_allocation,
        # parametric binary search for the tightest service time
        "min_service_rate": rel.min_service_rate,
        # per-nation vs pooled covariance sign (hugeint-exact)
        "simpson_paradox_audit": rel.simpson_paradox_audit,
        # daily candles + Donchian-channel breakout flags
        "daily_ohlc_donchian": rel.daily_ohlc_donchian,
        # KMP smallest period of each user's type sequence
        "user_type_period": rel.user_type_period,
        # Hungarian k x k assignment vs 720-permutation oracle
        "min_cost_assignment": rel.min_cost_assignment,
        # Booth minimal-rotation necklace canonical form
        "user_type_min_rotation": rel.user_type_min_rotation,
        # (s,S) inventory replay over the daily demand spine
        "inventory_policy_replay": rel.inventory_policy_replay,
        # blocked all-pairs argmin in embedding space (ids only)
        "embedding_closest_pair": rel.embedding_closest_pair,
        # isqrt-exact population-sd numerator per type
        "type_value_sd_floor": rel.type_value_sd_floor,
        # suffix-automaton distinct window count vs O(n^2) slice oracle
        "user_distinct_subseq_count": rel.user_distinct_subseq_count,
        # LCS of the two most-active users, list-carried DP oracle
        "events_lcs_top2": rel.events_lcs_top2,
        # strict hull of daily sums, Caratheodory membership oracle
        "daily_value_convex_hull": rel.daily_value_convex_hull,
        # inversion + tie pair counts per user value stream
        "user_value_inversions": rel.user_value_inversions,
        # Huffman optimum vs Kraft-enumeration certificate
        "huffman_total_bits": rel.huffman_total_bits,
        # integer-scored 2-state Viterbi over user streams
        "user_viterbi_score": rel.user_viterbi_score,
        # monotonic-stack largest rectangle vs window enumeration
        "daily_hist_max_rectangle": rel.daily_hist_max_rectangle,
        # best rational approximation of the purchase rate
        "best_rational_rate": rel.best_rational_rate,
        # meet-in-the-middle balanced partition of top-16 orders
        "orders_balanced_partition": rel.orders_balanced_partition,
        # trailing-24h distinct-type streaming feature per event
        "user_trailing_distinct_types": rel.user_trailing_distinct_types,
        # instant-runoff consensus winner over ranked ballots
        "type_irv_winner": rel.type_irv_winner,
        # first-fit-decreasing compaction plan, list-carried oracle
        "compaction_ffd_plan": rel.compaction_ffd_plan,
        # sort+LCP trie size vs DISTINCT-prefix enumeration
        "part_prefix_trie_stats": rel.part_prefix_trie_stats,
        # integer-exact threshold-sweep PR curve
        "events_pr_curve": rel.events_pr_curve,
        # uncertainty-aware segment ranking (Wilson lower bound)
        "type_wilson_bounds": rel.type_wilson_bounds,
        # A/B Welch t-test from integer-cent sufficient stats
        "events_welch_ttest": rel.events_welch_ttest,
        # Kaplan-Meier time-to-second-purchase risk table
        "purchase_km_table": rel.purchase_km_table,
        # integer-exact Brier / reliability-diagram audit
        "score_brier_calibration": rel.score_brier_calibration,
        # chi-square type x dow independence sufficient stats
        "events_type_dow_independence": rel.events_type_dow_independence,
        # Damerau-Levenshtein canonical-vocabulary matching
        "part_word_canonical_match": rel.part_word_canonical_match,
        # Luhn checksum identifier-integrity audit
        "custkey_luhn_audit": rel.custkey_luhn_audit,
        # dictionary-encoding layout-planning audit
        "string_dictionary_audit": rel.string_dictionary_audit,
        # forked-conversation (shared first-k-turns) detection
        "conv_prefix_forks": _q_conv_prefix_forks,
        # per-doc distinct-n-gram novelty vs all earlier docs
        "doc_ngram_novelty": textops.doc_ngram_novelty,
        # streaming watermark / late-arrival audit (block-stitched scan)
        "late_event_audit": dso.late_event_audit,
        # Hopcroft-Karp max matching with König cover certificate
        "part_supplier_max_matching": graph.part_supplier_max_matching,
        # Adler-32-style per-doc integrity checksum (closed form)
        "doc_adler32_audit": textops.doc_adler32_audit,
        # Efraimidis-Spirakis reproducible weighted sample
        "orders_weighted_sample": rel.orders_weighted_sample,
        # deterministic Poisson bootstrap replica moments
        "poisson_bootstrap_stats": dso.poisson_bootstrap_stats,
        # roaring-style bitmap-index container sizing
        "bitmap_index_audit": dso.bitmap_index_audit,
        # LSH banding S-curve planning table
        "lsh_plan_table": dedup.lsh_plan_table,
        # Holt linear-trend smoothing, bit-identical recursive twin
        "daily_holt_linear": rel.daily_holt_linear,
        # entity-resolution blocking-key quality audit
        "blocking_plan_audit": rel.blocking_plan_audit,
        # int8 scalar-quantization reconstruction-error audit
        "embedding_int8_quant_audit": similarity.embedding_int8_quant_audit,
        # JSON props schema-discovery audit
        "event_props_json_audit": rel.event_props_json_audit,
        # within-brand -> global quantile normalization
        "price_quantile_normalize": rel.price_quantile_normalize,
        # micro-quantized DFT periodogram of daily volume
        "daily_periodogram": rel.daily_periodogram,
        # encoding-hygiene audit over raw transcript turns
        "turn_encoding_audit": _q_conv(cv.turn_encoding_audit),
        # prefix-rule payload census for pool sizing
        "payload_sniff_stats": _q_conv(cv.payload_sniff_stats),
        # exact order-statistic winsorization
        "acctbal_winsorize": rel.acctbal_winsorize,
        # per-user streaming running median
        "user_running_median": rel.user_running_median,
        # JL ±1-projection distance-preservation audit
        "jl_projection_audit": similarity.jl_projection_audit,
        # (w,k)-minimizer document sketches
        "doc_minimizer_sketch": textops.doc_minimizer_sketch,
        # continuation-chain stitching over split sessions
        "conv_chain_stitch": _q_conv_chain_stitch,
        # per-language script census
        "doc_script_census": textops.doc_script_census,
        # articulation-point single-point-of-failure analysis
        "part_supplier_articulation": graph.part_supplier_articulation,
        # Unicode NFC normalization drift audit (prose fixture: DuckDB's
        # nfc_normalize truncates at NUL, so payload turns can't oracle)
        "turn_nfc_audit": _q_turn_nfc_audit,
        # rendezvous (HRW) routing + scale-out movement audit
        "rendezvous_hash_audit": dso.rendezvous_hash_audit,
        # optimal 0/1-knapsack token-budget curve (max-plus shard DP)
        "doc_knapsack_curve": llm.doc_knapsack_curve,
        # union-coverage (gaps-and-islands busy time) per user
        "user_interval_union": rel.user_interval_union,
        # EDF backlog schedulability audit (Jackson's rule)
        "cust_edf_lateness": rel.cust_edf_lateness,
        # trigram LIKE-index selectivity planning
        "part_trigram_selectivity": dso.part_trigram_selectivity,
        # Neyman stratified allocation (exact integer largest-remainder)
        "neyman_allocation": rel.neyman_allocation,
        # Hoover inequality index as an exact integer fraction
        "type_hoover_index": rel.type_hoover_index,
        # functional-dependency / candidate-key discovery profiling
        "fd_discovery_audit": dso.fd_discovery_audit,
        # ABC Pareto stock classification via the two-phase scan
        "part_abc_classification": rel.part_abc_classification,
        # optimizer join-cardinality estimate vs exact audit
        "join_cardinality_audit": dso.join_cardinality_audit,
        # naive sentence-segmentation census
        "doc_sentence_census": textops.doc_sentence_census,
        # mixed-script homoglyph token audit (planted fixture)
        "turn_homoglyph_audit": _q_turn_homoglyph_audit,
        # LRU stack-distance cache-hit replay (exact SQL twin)
        "user_lru_hit_audit": rel.user_lru_hit_audit,
        # greedy max-coverage doc selection (rows-only; iterative state)
        "vocab_cover_greedy": llm.vocab_cover_greedy,
        # ANALYZE-style catalog statistics collection
        "table_stats_profile": dso.table_stats_profile,
        # Belady OPT vs LRU cache replay (rows-only; future-knowledge state)
        "belady_opt_cache_audit": rel.belady_opt_cache_audit,
        # physical shard-spread census (reader provenance + conv shuffle)
        "conv_shard_spread_audit": _q_conv(cv.conv_shard_spread_audit),
        # keyspace fragmentation after logical deletes (compaction trigger)
        "orderkey_fragmentation_audit": dso.orderkey_fragmentation_audit,
        # near-miss duplicate submission census (dedup-window sizing)
        "event_nearmiss_dups": rel.event_nearmiss_dups,
        # minimax contiguous range-shard planning (rows-only; binary search)
        "daily_range_shard_plan": rel.daily_range_shard_plan,
        # invisible-codepoint audit (planted fixture)
        "turn_invisible_chars_audit": _q_turn_invisible_audit,
        # trailing-digit uniformity (fraud complement of Benford)
        "value_trailing_digit_audit": rel.value_trailing_digit_audit,
        # agent-loop tool-burst window profile
        "conv_tool_burst": _q_conv(cv.conv_tool_burst),
        # HTML markup profile (boilerplate-stripper tag weights input)
        "html_tag_census": _q_conv(cv.html_tag_census),
        # outlink / frontier-dedup href profile
        "html_href_census": _q_conv(cv.html_href_census),
        # PDF structure census on decoded payload bytes (rows-only)
        "pdf_object_census": _q_conv(cv.pdf_object_census),
        # composed extraction-output metrics (golden-parquet oracles)
        "extracted_dup_census": _q_extracted_dup_census,
        "extracted_len_profile": _q_extracted_len_profile,
        "extracted_token_stats": _q_extracted_token_stats,
        # dialogue-grammar protocol validation
        "conv_protocol_violations": _q_conv(cv.conv_protocol_violations),
        # TPC-H Q11 shape: global-share threshold filter
        "important_parts_q11": rel.important_parts_q11,
        # top-k global inactivity gaps (block-stitched time scan)
        "events_idle_gaps_topk": rel.events_idle_gaps_topk,
        # aggregate-before-join inequality EXISTS (Q4 variant)
        "late_ship_orders": rel.late_ship_orders,
        # row-level referential time-sanity audit
        "impossible_ship_audit": rel.impossible_ship_audit,
        # hierarchical two-level re-aggregation pricing spread
        "part_supplier_price_spread": rel.part_supplier_price_spread,
        # time-axis uniformity audit (60-row bounded exchange)
        "events_minute_skew": rel.events_minute_skew,
        # 2-D contingency mix with broadcast dimension probe
        "segment_priority_mix": rel.segment_priority_mix,
        # HDR power-of-two value histogram (bounded ~40-row exchange)
        "orders_price_log2_histogram": rel.orders_price_log2_histogram,
        # inter-event gap census in log2-second buckets
        "events_gap_log2_histogram": rel.events_gap_log2_histogram,
        # exact-rational Simpson language concentration per source
        "source_lang_simpson": rel.source_lang_simpson,
        # per-user first->last event-type bookend census
        "user_bookend_types": rel.user_bookend_types,
        # conformed-dimension two-fact balance sheet
        "nation_balance_sheet": rel.nation_balance_sheet,
        # UTF-8 byte-inflation census per language
        "doc_utf8_inflation": rel.doc_utf8_inflation,
        # UTF-8 inflation over planted-unicode turns (non-vacuous)
        "turn_utf8_inflation": _q_turn_utf8_inflation,
        # engagement pyramid: users in power-of-two activity bands
        "user_activity_log2_bands": rel.user_activity_log2_bands,
        # position-normalized (early/mid/late) role mix
        "conv_position_role_mix": _q_conv(cv.conv_position_role_mix),
        # RLE retry/stutter profile of per-user event streams
        "user_type_run_histogram": rel.user_type_run_histogram,
        # customer-side region x year market-mix matrix
        "region_year_order_matrix": rel.region_year_order_matrix,
        # cent-grid quantization artifact detector
        "value_quantization_audit": rel.value_quantization_audit,
        # template-opening first-token census
        "doc_first_token_census": rel.doc_first_token_census,
        # T5 span-corruption budget plan (integer-exact)
        "t5_span_mask_plan": textops.t5_span_mask_plan,
        # turn-level cross-conversation boilerplate census
        "cross_conv_turn_dups": _q_cross_conv_turn_dups,
        # churn-reactivation win-back census
        "customer_reactivation_census": rel.customer_reactivation_census,
        # exact V-optimal optimizer-statistics histogram (DP, no SQL)
        "v_optimal_daily_histogram": rel.v_optimal_daily_histogram,
        # block-stitched prefix scan: stream-balance discrepancy
        "source_prefix_discrepancy": rel.source_prefix_discrepancy,
        # Walker/Vose alias table with exact integer mass (no SQL)
        "type_alias_sampling_table": rel.type_alias_sampling_table,
        # never-average-shard-percentiles bias audit (exact order stats)
        "percentile_stitch_bias_audit": rel.percentile_stitch_bias_audit,
        # per-type peak-hour argmax reduction
        "events_type_peak_hour": rel.events_type_peak_hour,
        # confusable-skeleton collision census (dedup's blind spot)
        "skeleton_token_collisions": _q_skeleton_token_collisions,
        # conditional reply length by prompt-length decile
        "reply_length_by_prompt_decile": _q_conv(cv.reply_length_by_prompt_decile),
        # 2-D dominance (Pareto-rank) counts via Fenwick sweep
        "daily_dominance_counts": rel.daily_dominance_counts,
        # weekend-premium difference-in-differences, exact integers
        "event_value_did": rel.event_value_did,
        # gap-robust cohort persistence (half/full-strength offsets)
        "cohort_persistence": rel.cohort_persistence,
        # Hilbert vs Z-order vs row-major locality shoot-out (no SQL)
        "curve_locality_audit": dso.curve_locality_audit,
        # cross-source shared-5-gram contamination matrix
        "cross_source_contamination": llm.cross_source_contamination,
        # within-customer order-value sign-test sufficient stats
        "order_value_sign_test": rel.order_value_sign_test,
        # A/A harness: salted md5 split arm-balance audit
        "aa_split_invariance": rel.aa_split_invariance,
        # day-over-day type-mix drift as exact weighted Jaccard
        "daily_type_mix_drift": rel.daily_type_mix_drift,
        # mergeable HDR log-linear quantile sketch (bit-exact twin)
        "hdr_quantile_sketch": rel.hdr_quantile_sketch,
        # discount x return odds contingency, integer cross-products
        "discount_return_contingency": rel.discount_return_contingency,
        # exact-integer maximum-inner-product top-k
        "mips_topk": similarity.mips_topk,
        # line-number 1..n contiguity fingerprint audit
        "linenumber_contiguity_audit": rel.linenumber_contiguity_audit,
        # session-count-vs-timeout sensitivity curve
        "session_timeout_sensitivity": rel.session_timeout_sensitivity,
        # per-language char-bigram language-ID fingerprint
        "lang_char_bigram_fingerprint": rel.lang_char_bigram_fingerprint,
        # exact-rational RBO between cosine and MIPS rankings (no SQL)
        "rbo_ranking_overlap": similarity.rbo_ranking_overlap,
        # event-type lifecycle catalog (first/last seen, occupancy)
        "type_lifecycle": rel.type_lifecycle,
        # delimiter-balance extraction-QA audit
        "bracket_balance_audit": rel.bracket_balance_audit,
        # dialogue role-shape census
        "conv_shape_census": _q_conv(cv.conv_shape_census),
        # calendar-aware weekday-peer extremes
        "weekday_extremes": rel.weekday_extremes,
        # first-vs-last order power-of-two growth bands
        "customer_growth_bands": rel.customer_growth_bands,
        # automated join-key discovery census (exact)
        "key_joinability_census": rel.key_joinability_census,
        # KMV-sketch joinability estimate (scale path, no SQL)
        "kmv_joinability_estimate": rel.kmv_joinability_estimate,
        # per-brand integer least-squares price-size slope
        "brand_price_size_regression": rel.brand_price_size_regression,
        # bot-regularity pyramid: top-weekday concentration bands
        "user_dow_concentration_bands": rel.user_dow_concentration_bands,
        # in-order subsequence motif prevalence over dialogue shapes
        "conv_motif_census": _q_conv(cv.conv_motif_census),
        # cross-table order-status vs return-mix consistency
        "order_status_return_mix": rel.order_status_return_mix,
        # Hill tail-index heavy-tail detector (nano-nat quantized)
        "value_tail_hill": rel.value_tail_hill,
        # SFT-mix turn-format classifier census
        "turn_format_census": _q_conv(cv.turn_format_census),
        # real-codec decode-vs-metadata dimension audit
        "media_header_audit": _q_media_header_audit,
        # audio decode-duration audit across 4 codecs (no SQL)
        "audio_duration_audit": _q_audio_duration_audit,
    }


# Every queries() entry WITHOUT an oracle_sql() twin must be justified
# here — the registry meta-test enforces it, so a new rows-only query
# cannot slip in silently. Categories:
#   approximation — the op is approximate by construction; its contract
#     is a measured bound (recall/error tests), not value equality
#   binary-codec  — decodes image/audio/video/PDF bytes; SQL cannot
#   float-iterative — float fixpoint whose last-ulp rounding path SQL
#     cannot reproduce bit-stably
#   engine-artifact — audits engine-written files/layouts, not tables
#   sequential-state — per-item mutable state over the stream order
#     (simulating 10^4+ steps in recursive SQL is not tractable)
NO_ORACLE_JUSTIFICATIONS: dict = {
    "ann_ivf_topk": "approximation — probe-pruned IVF; recall>=0.9-vs-exact pytest",
    "ann_pq_topk": "approximation — PQ-compressed scores; recall pytest vs exact",
    "ann_recall_report": "approximation — the query IS the measured recall report",
    "audio_duration_audit": "binary-codec — PCM16/mu-law/ADPCM/FLAC decode",
    "audio_energy_segments": "binary-codec — PCM frame energy over WAV bytes",
    "audio_pitch_estimate": "binary-codec — autocorrelation over decoded PCM",
    "charset_best_match_lsh": "approximation — bucketed sibling; exact variant has a bit-exact oracle",
    "containment_dedup_dfcap": "approximation — df-capped SSJoin + banded-MinHash hybrid scale sibling (recall-only; exact verify on both sources); subset+recall pytests vs the exact variant, which carries a bit-exact oracle; sf1 curve in BENCH/BASELINE.md",
    "compression_ratio_scores": "binary-codec — zlib ratios; SQL has no DEFLATE",
    "curve_locality_audit": "engine-artifact — audits the engine's Hilbert layout files",
    "daily_range_shard_plan": "engine-artifact — plans engine shard boundaries",
    "dbscan_embeddings_ivf": "approximation — within-bucket eps graph; n_centroids=1 degenerate carries the exact oracle",
    "embedding_dedup_ivf": "approximation — bucketed sibling; exact variant has a value-exact oracle",
    "embedding_pair_distance_histogram_ivf": "approximation — within-bucket pairs only; n_centroids=1 degenerate carries the exact oracle",
    "facility_location_selection_ivf": "approximation — bucket-representative candidates; all-candidates degenerate carries the exact oracle",
    "mutual_knn_degree_ivf": "approximation — within-bucket neighbours; n_centroids=1 degenerate carries the exact oracle",
    "triplet_margin_violations_ivf": "approximation — within-bucket neighbours; n_centroids=1 degenerate carries the exact oracle",
    "embedding_pca_topk": "float-iterative — power-iteration eigenvectors; the fixed-point sibling pca_power_fixedpoint carries an exact recursive-CTE twin",
    "image_phash_dedup": "binary-codec — perceptual hash over decoded pixels",
    "kmeans_embeddings": "float-iterative — Lloyd rounds accumulate float sums batch-wise; the fixed-point sibling kmeans_fixedpoint carries an exact recursive-CTE twin",
    "media_features": "binary-codec — PPM/WAV decode + resize/frame-sample",
    "orphan_files_audit": "engine-artifact — audits engine-written manifests",
    "part_supplier_max_matching": "sequential-state — augmenting-path search; pinned by Konig-bound pytest",
    "pdf_object_census": "binary-codec — parses PDF object streams",
    "quantile_sketch": "approximation — partials depend on Ray block boundaries, invisible to SQL; rank-error-bound pytest; the det-partitioned sibling quantile_sketch_det carries an exact recursive-CTE twin",
    "semantic_dedup": "float-iterative — consumes kmeans_embeddings centroids; the fixed-point sibling semantic_dedup_fixedpoint carries an exact recursive-CTE twin end-to-end",
    "streaming_heavy_hitters": "sequential-state — SpaceSaving replay whose per-bucket feed order inherits Ray's ts-sort tie order; the deterministic sibling heavy_hitters_det carries an exact recursive-CTE twin",
    "type_alias_sampling_table": "engine-artifact — audits the engine's alias tables",
    "video_scene_cuts": "binary-codec — frame-delta energy over packed video bytes",
}


def oracle_sql() -> dict[str, str]:
    from pdfrust_ray.stages.streaming import heavy_hitters_det_sql as _hh_det_sql

    from pdfrust_ray.pipelines import conversation as cv
    from pdfrust_ray.pipelines import datasetops as dso
    from pdfrust_ray.pipelines import graph
    from pdfrust_ray.pipelines import calibration
    from pdfrust_ray.pipelines import corpusbuild
    from pdfrust_ray.pipelines import llmdata as llm
    from pdfrust_ray.pipelines import calibration as calibration_mod
    from pdfrust_ray.pipelines import corpusbuild as corpusbuild_mod
    from pdfrust_ray.pipelines import mixing as mixing_mod
    from pdfrust_ray.pipelines import quality as qual
    from pdfrust_ray.pipelines import relational as rel
    from pdfrust_ray.stages import dedup as dedup_mod
    from pdfrust_ray.stages import multimodal as mm_mod
    from pdfrust_ray.stages import similarity as similarity_mod
    from pdfrust_ray.stages import sketches
    from pdfrust_ray.pipelines import textops
    from pdfrust_ray.stages.dedup import (
        dedup_clusters_sql,
        embedding_dedup_sql,
        minhash_lsh_dedup_sql,
        simhash_dedup_sql,
    )

    return {
        "extract_text": f"""
            SELECT conv_id, turn_idx, payload_kind, extracted_text,
                   parse_status, n_pages, bytes_decoded, error
            FROM read_parquet('{_T2_GOLDEN}')
            ORDER BY conv_id, turn_idx
        """,
        "extract_error_locality": f"""
            WITH e AS (
                SELECT conv_id, turn_idx,
                       CASE WHEN parse_status <> 'ok' THEN 1 ELSE 0 END AS err,
                       LAG(CASE WHEN parse_status <> 'ok' THEN 1 ELSE 0 END)
                           OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev
                FROM read_parquet('{_T2_GOLDEN}')
            ), runs AS (
                SELECT conv_id, turn_idx, err,
                       SUM(CASE WHEN err = 1 AND COALESCE(prev, 0) = 0
                                THEN 1 ELSE 0 END)
                           OVER (PARTITION BY conv_id ORDER BY turn_idx)
                           AS run_id
                FROM e
            ), per_run AS (
                SELECT conv_id, run_id, CAST(COUNT(*) AS BIGINT) AS len
                FROM runs WHERE err = 1 GROUP BY 1, 2
            ), agg AS (
                SELECT conv_id,
                       CAST(COUNT(*) AS BIGINT) AS n_err_runs,
                       CAST(MAX(len) AS BIGINT) AS max_err_run,
                       CAST(SUM(len) AS BIGINT) AS n_err
                FROM per_run GROUP BY 1
            ), base AS (
                SELECT conv_id, CAST(COUNT(*) AS BIGINT) AS n_turns
                FROM read_parquet('{_T2_GOLDEN}') GROUP BY 1
            )
            SELECT b.conv_id, b.n_turns,
                   COALESCE(a.n_err, 0) AS n_err,
                   COALESCE(a.n_err_runs, 0) AS n_err_runs,
                   COALESCE(a.max_err_run, 0) AS max_err_run
            FROM base b LEFT JOIN agg a USING (conv_id)
            ORDER BY b.conv_id
        """,
        "extract_status_by_payload": f"""
            SELECT payload_kind, parse_status,
                   COUNT(*) AS n_turns,
                   CAST(SUM(bytes_decoded) AS BIGINT) AS sum_bytes_decoded
            FROM read_parquet('{_T2_GOLDEN}')
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "extract_metrics": f"""
            SELECT parse_status, COUNT(*) AS n_turns,
                   CAST(SUM(bytes_decoded) AS BIGINT) AS sum_bytes_decoded
            FROM read_parquet('{_T2_GOLDEN}')
            GROUP BY parse_status ORDER BY parse_status
        """,
        "extract_info": f"""
            SELECT conv_id, turn_idx, title, author, creator, producer,
                   creation_date, mod_date, parse_status
            FROM read_parquet('{_INFO_GOLDEN}')
            ORDER BY conv_id, turn_idx
        """,
        "extract_mode_agreement": f"""
            SELECT t.conv_id, t.turn_idx,
                   t.parse_status AS status_text,
                   c.parse_status AS status_chars,
                   CAST(CASE WHEN t.parse_status = c.parse_status
                             THEN 1 ELSE 0 END AS BIGINT) AS agree
            FROM read_parquet('{_MODES_GOLDEN}') t
            JOIN read_parquet('{_MODES_GOLDEN}') c
              ON t.conv_id = c.conv_id AND t.turn_idx = c.turn_idx
             AND t.mode = 'text' AND c.mode = 'chars'
            ORDER BY t.conv_id, t.turn_idx
        """,
        "extract_chars": f"""
            SELECT conv_id, turn_idx, extracted_text, parse_status
            FROM read_parquet('{_MODES_GOLDEN}') WHERE mode = 'chars'
            ORDER BY conv_id, turn_idx
        """,
        "extract_font": f"""
            SELECT conv_id, turn_idx, extracted_text, parse_status
            FROM read_parquet('{_MODES_GOLDEN}') WHERE mode = 'font'
            ORDER BY conv_id, turn_idx
        """,
        "extract_raw_content": f"""
            SELECT conv_id, turn_idx, extracted_text, parse_status
            FROM read_parquet('{_MODES_GOLDEN}') WHERE mode = 'raw-content'
            ORDER BY conv_id, turn_idx
        """,
        "content_op_census": textops.content_op_census_sql(_MODES_GOLDEN),
        "extract_text_spec15": f"""
            SELECT conv_id, turn_idx, payload_kind, extracted_text,
                   parse_status, n_pages, bytes_decoded, error
            FROM read_parquet('{_SPEC15_GOLDEN}')
            ORDER BY conv_id, turn_idx
        """,
        "extract_text_xobj": f"""
            SELECT conv_id, turn_idx, payload_kind, extracted_text,
                   parse_status, n_pages, bytes_decoded, error
            FROM read_parquet('{_XOBJ_GOLDEN}')
            ORDER BY conv_id, turn_idx
        """,
        "extract_text_filters": f"""
            SELECT conv_id, turn_idx, payload_kind, extracted_text,
                   parse_status, n_pages, bytes_decoded, error
            FROM read_parquet('{_FILTERS_GOLDEN}')
            ORDER BY conv_id, turn_idx
        """,
        "extract_text_encrypted": f"""
            SELECT conv_id, turn_idx, payload_kind, extracted_text,
                   parse_status, n_pages, bytes_decoded, error
            FROM read_parquet('{_ENC_GOLDEN}')
            ORDER BY conv_id, turn_idx
        """,
        "exact_dedup": """
            SELECT md5(text) AS text_hash,
                   MIN(doc_id) AS doc_id,
                   COUNT(*) AS dup_count
            FROM documents GROUP BY md5(text) ORDER BY text_hash
        """,
        "matryoshka_recall_curve": similarity_mod.matryoshka_recall_curve_sql(),
        "kmv_joinability_estimate": rel.kmv_joinability_estimate_sql(),
        "hll_distinct_users": sketches.hll_distinct_users_sql(),
        "quantile_sketch_det": sketches.quantile_sketch_det_sql(),
        "language_profile": textops.language_profile_sql(),
        "ann_topk": """
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe
                FROM embeddings WHERE vec_id IN (0,1,2,3,4)
            ), s AS (
                SELECT q.query_id, e.vec_id,
                       list_cosine_similarity(e.embedding, q.qe) AS cosine
                FROM embeddings e CROSS JOIN q
            ), r AS (
                SELECT query_id, vec_id, cosine,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY cosine DESC, vec_id) AS rank
                FROM s
            )
            SELECT query_id, rank, vec_id
            FROM r WHERE rank <= 10 ORDER BY query_id, rank
        """,
        "ann_ivf_full_probe": """
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe
                FROM embeddings WHERE vec_id IN (0,1,2,3,4)
            ), s AS (
                SELECT q.query_id, e.vec_id,
                       list_cosine_similarity(e.embedding, q.qe) AS cosine
                FROM embeddings e CROSS JOIN q
            ), r AS (
                SELECT query_id, vec_id, cosine,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY cosine DESC, vec_id) AS rank
                FROM s
            )
            SELECT query_id, rank, vec_id
            FROM r WHERE rank <= 10 ORDER BY query_id, rank
        """,
        # PQ shortlist + exact re-rank: deterministic, measured recall
        # 1.0 at the fixture -> same exact oracle as ann_topk
        "ann_pq_rerank_topk": """
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe
                FROM embeddings WHERE vec_id IN (0,1,2,3,4)
            ), s AS (
                SELECT q.query_id, e.vec_id,
                       list_cosine_similarity(e.embedding, q.qe) AS cosine
                FROM embeddings e CROSS JOIN q
            ), r AS (
                SELECT query_id, vec_id, cosine,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY cosine DESC, vec_id) AS rank
                FROM s
            )
            SELECT query_id, rank, vec_id
            FROM r WHERE rank <= 10 ORDER BY query_id, rank
        """,
        "embedding_dedup": embedding_dedup_sql(),
        "embedding_dedup_ivf_exact": embedding_dedup_sql(),
        # exact shingle-Jaccard pair set — verifies the whole LSH path
        # (banding, distributed verify, exact-dup expansion) value-exactly
        "minhash_dedup": minhash_lsh_dedup_sql(),
        # same exact pair-set oracle: the prefix-filter path must
        # reproduce it deterministically (LSH matches it probabilistically)
        "ngram_jaccard_dedup": minhash_lsh_dedup_sql(),
        # exact hamming-<=3 pair set (simhash64 is md5-based so the
        # signature itself is SQL-reproducible)
        "simhash_dedup": simhash_dedup_sql(),
        # recursive-CTE min-label closure over the exact pair set
        "dedup_clusters": dedup_clusters_sql(),
        "charset_best_match": textops.charset_best_match_sql(),
        "benchmark_contamination": textops.benchmark_contamination_sql(),
        "pii_redact": textops.pii_redact_sql(_PII_SHARDS),
        "token_counts": textops.token_counts_sql(),
        # float-op-order-exact SQL twin of the quality heuristic
        "quality_scores": textops.quality_scores_sql(),
        "top_bigrams": textops.top_bigrams_sql(),
        "top_terms_per_doc": textops.top_terms_per_doc_sql(),
        "bpe_token_counts": textops.bpe_token_counts_sql(),
        "fingerprints": textops.fingerprints_sql(),
        "lineitem_agg": rel.lineitem_agg_sql(),
        "segment_revenue": rel.segment_revenue_sql(),
        # big x big hash-partitioned shuffle join (Dataset.join)
        "order_priority_revenue": rel.order_priority_revenue_sql(),
        "top_parts": rel.top_parts_sql(),
        "events_hourly": rel.events_hourly_sql(),
        "events_hopping_15m": rel.events_hopping_15m_sql(),
        "distinct_mktsegments": rel.distinct_mktsegments_sql(),
        "supplier_nation_agg": rel.supplier_nation_agg_sql(),
        "orders_rollup": rel.orders_rollup_sql(),
        "lineitem_quantiles": rel.lineitem_quantiles_sql(),
        "customers_without_orders": rel.customers_without_orders_sql(),
        "orders_sample": rel.orders_sample_sql(),
        "customer_stratified_sample": rel.customer_stratified_sample_sql(),
        "events_value_quartiles": rel.events_value_quartiles_sql(),
        "sessionize": rel.sessionize_sql(),
        "events_sliding_hour": rel.events_sliding_hour_sql(),
        "nation_supplier_names": rel.nation_supplier_names_sql(),
        "running_user_totals": rel.running_user_totals_sql(),
        "asof_click_before_purchase": rel.asof_click_before_purchase_sql(),
        "top_orders_per_segment": rel.top_orders_per_segment_sql(),
        "user_next_event": rel.user_next_event_sql(),
        "user_funnel_sets": rel.user_funnel_sets_sql(),
        "events_value_percentiles": rel.events_value_percentiles_sql(),
        "events_daily_pivot": rel.events_daily_pivot_sql(),
        "region_revenue": rel.region_revenue_sql(),
        "first_last_order_per_customer": rel.first_last_order_per_customer_sql(),
        "orders_above_customer_avg": rel.orders_above_customer_avg_sql(),
        "user_top_event_type": rel.user_top_event_type_sql(),
        "events_value_histogram": rel.events_value_histogram_sql(),
        "user_value_percent_rank": rel.user_value_percent_rank_sql(),
        "customers_with_big_orders": rel.customers_with_big_orders_sql(),
        "events_dow_grid": rel.events_dow_grid_sql(),
        "lineitem_discounted_revenue": rel.lineitem_discounted_revenue_sql(),
        "turn_normalize": textops.turn_normalize_sql(_T2_SHARDS),
        "pack_sequences": llm.pack_sequences_sql(),
        "lang_rebalanced_sample": llm.lang_rebalanced_sample_sql(),
        "substring_dedup": dedup_mod.substring_dedup_sql(),
        "heavy_tokens": sketches.heavy_tokens_sql(),
        "cms_token_freqs": sketches.cms_token_freqs_sql(),
        "gopher_repetition": qual.gopher_repetition_sql(),
        "bm25_topk": qual.bm25_topk_sql(),
        "temperature_mix_sample": llm.temperature_mix_sample_sql(),
        "running_global_total": rel.running_global_total_sql(),
        "bigram_lm_scores": qual.bigram_lm_scores_sql(),
        "bottom_k_sample": rel.bottom_k_sample_sql(),
        "name_similarity_join": qual.name_similarity_join_sql(),
        "heavy_user_full_outer": rel.heavy_user_full_outer_sql(),
        "events_daily_unpivot": rel.events_daily_unpivot_sql(),
        "orders_cube": rel.orders_cube_sql(),
        "late_events_by_day": rel.late_events_by_day_sql(),
        "clean_pack_pipeline": llm.clean_pack_pipeline_sql(),
        "embedding_second_moment": similarity_mod.embedding_second_moment_sql(),
        "orders_skyline": rel.orders_skyline_sql(),
        "name_editdist_join": qual.name_editdist_join_sql(),
        "events_per_user_sample": rel.events_per_user_sample_sql(),
        "html_ld_extract": textops.html_ld_extract_sql(
            f"{_FIXTURE_BASE}/htmlld/golden.parquet"
        ),
        # conversation analytics: DuckDB recomputes from the RAW
        # transcript shards (a genuinely independent oracle, not a
        # golden readback)
        "conv_stats": cv.conv_stats_sql(_T2_SHARDS),
        "conv_prefix_echo": cv.conv_prefix_echo_sql(_T2_SHARDS),
        "conv_role_latency_asymmetry": cv.conv_role_latency_asymmetry_sql(_T2_SHARDS),
        "turn_line_repetition": cv.turn_line_repetition_sql(_T2_SHARDS),
        "conv_echo_attribution": cv.conv_echo_attribution_sql(_T2_SHARDS),
        "assistant_phrase_census": cv.assistant_phrase_census_sql(_T2_SHARDS),
        "assistant_numeric_claim_census": cv.assistant_numeric_claim_census_sql(_T2_SHARDS),
        "conv_turnlen_autocorr": cv.conv_turnlen_autocorr_sql(_T2_SHARDS),
        "turn_latency": cv.turn_latency_sql(_T2_SHARDS),
        "tool_usage": cv.tool_usage_sql(_T2_SHARDS),
        "role_transitions": cv.role_transitions_sql(_T2_SHARDS),
        "conv_fingerprints": cv.conv_fingerprints_sql(_T2_SHARDS),
        "conv_extract_stats": cv.conv_extract_stats_sql(_T2_GOLDEN),
        # dataset-construction ops
        "dataset_split": dso.dataset_split_sql(),
        "doc_chunks": dso.doc_chunks_sql(),
        "inverted_index_topk": dso.inverted_index_topk_sql(),
        "pmi_collocations": dso.pmi_collocations_sql(),
        "incremental_dedup": dedup_mod.incremental_dedup_sql(),
        "weighted_sample": rel.weighted_sample_sql(),
        "events_band_join": rel.events_band_join_sql(),
        "events_value_outliers": rel.events_value_outliers_sql(),
        "windowed_event_dedup": rel.windowed_event_dedup_sql(),
        "props_k_stats": rel.props_k_stats_sql(),
        "token_entropy": qual.token_entropy_sql(),
        "events_value_regression": rel.events_value_regression_sql(),
        "global_exact_median": rel.global_exact_median_sql(),
        "user_activity_gini": rel.user_activity_gini_sql(),
        "funnel_within_hour": rel.funnel_within_hour_sql(),
        "events_table_profile": rel.events_table_profile_sql(),
        "bipartite_pagerank": graph.bipartite_pagerank_sql(),
        "cohort_retention": rel.cohort_retention_sql(),
        "supplier_butterflies": graph.supplier_butterflies_sql(),
        "contrastive_pairs": similarity_mod.contrastive_pairs_sql(),
        "snapshot_diff": dso.snapshot_diff_sql(),
        "events_value_rank_normalize": rel.events_value_rank_normalize_sql(),
        "containment_dedup": dedup_mod.containment_dedup_sql(),
        "soft_dedup_reweight": dedup_mod.soft_dedup_reweight_sql(),
        "dsir_select": llm.dsir_select_sql(),
        "unimax_allocation": llm.unimax_allocation_sql(),
        "perplexity_buckets": qual.perplexity_buckets_sql(),
        "nb_source_classifier": qual.nb_source_classifier_sql(),
        "ccnet_head_middle_mix": llm.ccnet_head_middle_mix_sql(),
        "pretrain_mix_plan": llm.pretrain_mix_plan_sql(),
        "kmeans_fixedpoint": similarity_mod.kmeans_fixedpoint_sql(),
        "pca_power_fixedpoint": similarity_mod.pca_power_fixedpoint_sql(),
        "semantic_dedup_fixedpoint": similarity_mod.semantic_dedup_fixedpoint_sql(),
        "heavy_hitters_det": _hh_det_sql(),
        "bwt_compressibility": textops.bwt_compressibility_sql(),
        "belady_opt_cache_audit": rel.belady_opt_cache_audit_sql(),
        "user_event_trigrams": rel.user_event_trigrams_sql(),
        "user_active_time": rel.user_active_time_sql(),
        "orders_fk_profile": rel.orders_fk_profile_sql(),
        "user_type_itemsets": rel.user_type_itemsets_sql(),
        "part_golden_records": qual.part_golden_records_sql(),
        # the streaming replay must reproduce the batch operator's result
        "streaming_sessionize": rel.sessionize_sql(),
        "local_supplier_revenue": rel.local_supplier_revenue_sql(),
        "events_rolling_peak": rel.events_rolling_peak_sql(),
        "concurrent_sessions_daily_peak": rel.concurrent_sessions_daily_peak_sql(),
        "user_triangles": graph.user_triangles_sql(),
        "zorder_layout": dso.zorder_layout_sql(),
        "zorder_pruned_count": dso.zorder_pruned_count_sql(),
        "events_type_daily_uniques": rel.events_type_daily_uniques_sql(),
        "events_value_equidepth": rel.events_value_equidepth_sql(),
        # the CSV path must reproduce the parquet operator's result
        "events_hourly_csv": rel.events_hourly_sql(),
        "events_table_checksum": rel.events_table_checksum_sql(),
        "rolling_wau": rel.rolling_wau_sql(),
        "funnel_three_step": rel.funnel_three_step_sql(),
        "top_value_events": rel.top_value_events_sql(),
        "user_gap_stats": rel.user_gap_stats_sql(),
        "source_quality_rollup": rel.source_quality_rollup_sql(),
        "customer_ltv_cohorts": rel.customer_ltv_cohorts_sql(),
        "nation_revenue_share": rel.nation_revenue_share_sql(),
        "session_bounce_rate": rel.session_bounce_rate_sql(),
        "event_type_transitions": rel.event_type_transitions_sql(),
        "events_daily_percentiles": rel.events_daily_percentiles_sql(),
        "user_journey_counts": rel.user_journey_counts_sql(),
        "user_type_entropy": rel.user_type_entropy_sql(),
        "days_to_first_purchase": rel.days_to_first_purchase_sql(),
        "customer_revenue_concentration": rel.customer_revenue_concentration_sql(),
        "tool_latency": cv.tool_latency_sql(_T2_SHARDS),
        "fulfillment_latency": rel.fulfillment_latency_sql(),
        "scd2_history": dso.scd2_history_sql(),
        "segment_dedup": llm.segment_dedup_sql(),
        "context_truncation": cv.context_truncation_sql(_T2_SHARDS),
        "tpch_q3": rel.tpch_q3_sql(),
        "ntile_quartiles": rel.ntile_quartiles_sql(),
        "cumulative_distinct_users": rel.cumulative_distinct_users_sql(),
        "documents_checksum_orc": dso.documents_checksum_orc_sql(),
        "last_touch_attribution": rel.last_touch_attribution_sql(),
        "rolling_median_value": rel.rolling_median_value_sql(),
        "mv_incremental_daily_revenue": rel.mv_incremental_daily_revenue_sql(),
        "experiment_lift": rel.experiment_lift_sql(),
        "bucketed_join_revenue": dso.bucketed_join_revenue_sql(),
        "kmv_type_intersections": sketches.kmv_type_intersections_sql(),
        "compact_events_checksum": dso.compact_events_checksum_sql(),
        "schema_migration_counts": dso.schema_migration_counts_sql(),
        "role_length_quantiles": cv.role_length_quantiles_sql(_T2_SHARDS),
        "filter_funnel": qual.filter_funnel_sql(),
        "dod_growth": rel.dod_growth_sql(),
        "distinct_types_so_far": rel.distinct_types_so_far_sql(),
        "order_backlog_curve": rel.order_backlog_curve_sql(),
        "time_travel_read": dso.time_travel_read_sql(),
        "bloom_join_revenue": rel.bloom_join_revenue_sql(),
        "winsorized_mean_value": rel.winsorized_mean_value_sql(),
        "monthly_seasonality": rel.monthly_seasonality_sql(),
        "feature_snapshot": rel.feature_snapshot_sql(),
        "k_anonymity_check": rel.k_anonymity_check_sql(),
        "embedding_dim_stats": rel.embedding_dim_stats_sql(),
        "merge_upsert": dso.merge_upsert_sql(),
        "label_centroid_profile": rel.label_centroid_profile_sql(),
        "contract_violations": rel.contract_violations_sql(),
        "customer_order_distribution": rel.customer_order_distribution_sql(),
        "nation_pair_trade": rel.nation_pair_trade_sql(),
        "latest_event_per_user": rel.latest_event_per_user_sql(),
        "scd2_pit_join": dso.scd2_pit_join_sql(),
        "user_retry_rate": cv.user_retry_rate_sql(_T2_SHARDS),
        "feature_hashing": textops.feature_hashing_sql(),
        "lang_class_weights": llm.lang_class_weights_sql(),
        "negative_samples": rel.negative_samples_sql(),
        "leave_last_out_split": rel.leave_last_out_split_sql(),
        "events_weekly_weekend": rel.events_weekly_weekend_sql(),
        "deletion_vector_read": dso.deletion_vector_read_sql(),
        "events_grouping_sets": rel.events_grouping_sets_sql(),
        "daily_count_anomalies": rel.daily_count_anomalies_sql(),
        "type_stats_salted": rel.type_stats_salted_sql(),
        "documents_jsonl_roundtrip": dso.documents_jsonl_roundtrip_sql(),
        "sft_pairs": cv.sft_pairs_sql(_T2_SHARDS),
        "quarantine_split": rel.quarantine_split_sql(),
        "events_value_zscore": rel.events_value_zscore_sql(),
        "embedding_int8_quantize": rel.embedding_int8_quantize_sql(),
        "tool_chain_bigrams": cv.tool_chain_bigrams_sql(_T2_SHARDS),
        "categorical_encode": rel.categorical_encode_sql(),
        "events_keyset_page": rel.events_keyset_page_sql(),
        "ann_quantized_topk": rel.ann_quantized_topk_sql(),
        # orphan_files_audit: rows-only (filesystem audit, no SQL surface)
        # the streaming replay must reproduce the batch dedup exactly
        "streaming_windowed_dedup": rel.windowed_event_dedup_sql(),
        "oov_rate": qual.oov_rate_sql(),
        "length_bucket_stats": qual.length_bucket_stats_sql(),
        "returned_order_priority_counts": rel.returned_order_priority_counts_sql(),
        "promo_revenue_share": rel.promo_revenue_share_sql(),
        "value_drift_psi": rel.value_drift_psi_sql(),
        "tool_latency_quantiles": cv.tool_latency_quantiles_sql(_T2_SHARDS),
        "ann_rrf_fusion": similarity_mod.ann_rrf_fusion_sql(),
        "catalog_integrity_report": dso.catalog_integrity_report_sql(),
        "pseudonymize_users": rel.pseudonymize_users_sql(),
        "type_value_similarity": rel.type_value_similarity_sql(),
        "returned_customer_revenue": rel.returned_customer_revenue_sql(),
        "large_order_customers": rel.large_order_customers_sql(),
        "orders_yearly_growth": rel.orders_yearly_growth_sql(),
        "embedding_label_outliers": rel.embedding_label_outliers_sql(),
        "supplier_part_coverage": rel.supplier_part_coverage_sql(),
        "dow_type_lift": rel.dow_type_lift_sql(),
        "payload_error_taxonomy": cv.payload_error_taxonomy_sql(_T2_GOLDEN),
        "shuffle_integrity": rel.shuffle_integrity_sql(),
        "multisource_events_union": rel.multisource_events_union_sql(),
        "top_value_events_with_ties": rel.top_value_events_with_ties_sql(),
        "dedup_cluster_size_histogram": dedup_mod.dedup_cluster_size_histogram_sql(),
        "hourly_profile": rel.hourly_profile_sql(),
        "boilerplate_segments": llm.boilerplate_segments_sql(),
        "conv_first_response_latency": cv.conv_first_response_latency_sql(_T2_SHARDS),
        "rolling_count_anomalies": rel.rolling_count_anomalies_sql(),
        "order_fanout_histogram": rel.order_fanout_histogram_sql(),
        "dnf_filter_revenue": rel.dnf_filter_revenue_sql(),
        "user_longest_streak": rel.user_longest_streak_sql(),
        "bigram_vocab_growth": dso.bigram_vocab_growth_sql(),
        "csv_shard_lineage": dso.csv_shard_lineage_sql(),
        "events_type_share_trend": rel.events_type_share_trend_sql(),
        "embedding_norm_histogram": rel.embedding_norm_histogram_sql(),
        "events_value_benford": rel.events_value_benford_sql(),
        "session_size_histogram": rel.session_size_histogram_sql(),
        "weighted_median_k": rel.weighted_median_k_sql(),
        "split_leakage_scan": dedup_mod.split_leakage_scan_sql(),
        "partitioned_write_pruned_read": dso.partitioned_write_pruned_read_sql(),
        "parquet_layout_audit": dso.parquet_layout_audit_sql("/root/testdata/sf0.01"),
        "rowgroup_pruning_audit": dso.rowgroup_pruning_audit_sql("/root/testdata/sf0.01"),
        "assistant_length_by_tool_context": cv.assistant_length_by_tool_context_sql(
            _T2_SHARDS
        ),
        "tpch_q8_market_share": rel.tpch_q8_market_share_sql(),
        "tpch_q15_top_supplier": rel.tpch_q15_top_supplier_sql(),
        "tpch_q17_small_quantity_revenue": rel.tpch_q17_small_quantity_revenue_sql(),
        "tpch_q21_waiting_suppliers": rel.tpch_q21_waiting_suppliers_sql(),
        "tpch_q22_idle_balance": rel.tpch_q22_idle_balance_sql(),
        "loo_target_encode_audit": rel.loo_target_encode_audit_sql(),
        "part_copurchase_pairs": rel.part_copurchase_pairs_sql(),
        "orders_repeat_interval_histogram": rel.orders_repeat_interval_histogram_sql(),
        "daily_count_autocorr_stats": rel.daily_count_autocorr_stats_sql(),
        "salted_repartition_join": rel.salted_repartition_join_sql(),
        "erasure_sweep": dso.erasure_sweep_sql(),
        "cdc_apply": rel.cdc_apply_sql(),
        "orders_mad_outliers": rel.orders_mad_outliers_sql(),
        "user_inactivity_churn": rel.user_inactivity_churn_sql(),
        "daily_revenue_cusum": rel.daily_revenue_cusum_sql(),
        "token_lang_chi2": textops.token_lang_chi2_sql(),
        "source_token_kl": textops.source_token_kl_sql(),
        "heaps_law_fit": textops.heaps_law_fit_sql(),
        "doc_filter_funnel": textops.doc_filter_funnel_sql(),
        "source_len_ks_matrix": textops.source_len_ks_matrix_sql(),
        "zipf_slope_fit": textops.zipf_slope_fit_sql(),
        "nb_source_confusion": textops.nb_source_confusion_sql(),
        "token_adaptation_stats": textops.token_adaptation_stats_sql(),
        "daily_gap_fill": rel.daily_gap_fill_sql(),
        "user_active_day_bitmap": rel.user_active_day_bitmap_sql(),
        "l_diversity_check": rel.l_diversity_check_sql(),
        "lineitem_corr_stats": rel.lineitem_corr_stats_sql(),
        "hard_negative_mining": similarity_mod.hard_negative_mining_sql(),
        "largest_remainder_allocation": rel.largest_remainder_allocation_sql(),
        "hash_partition_skew": dso.hash_partition_skew_sql(),
        "documents_arrow_ipc_roundtrip": dso.documents_arrow_ipc_roundtrip_sql(),
        "markov_backtest": rel.markov_backtest_sql(),
        "user_p95_distribution": rel.user_p95_distribution_sql(),
        "hot_key_detector": dso.hot_key_detector_sql(),
        "range_partitioned_write": dso.range_partitioned_write_sql(),
        "range_merge_join": dso.range_merge_join_sql(),
        "context_size_at_turn": cv.context_size_at_turn_sql(_T2_SHARDS),
        "rfm_segments": rel.rfm_segments_sql(),
        "daily_ewma": rel.daily_ewma_sql(),
        "supplier_cnt_by_part_attrs": rel.supplier_cnt_by_part_attrs_sql(),
        "best_supplier_per_part": rel.best_supplier_per_part_sql(),
        "kfold_assignment": llm.kfold_assignment_sql(),
        "mutual_knn_degree": similarity_mod.mutual_knn_degree_sql(),
        "time_embargo_split": rel.time_embargo_split_sql(),
        "event_type_user_sets": rel.event_type_user_sets_sql(),
        "consistent_big_spenders": rel.consistent_big_spenders_sql(),
        "supplier_runnerup_gap": rel.supplier_runnerup_gap_sql(),
        "same_day_repeat_orders": rel.same_day_repeat_orders_sql(),
        "user_lifecycle_daily": rel.user_lifecycle_daily_sql(),
        "chunk_dedup_stats": dso.chunk_dedup_stats_sql(),
        "users_all_event_types": rel.users_all_event_types_sql(),
        "events_above_own_p95": rel.events_above_own_p95_sql(),
        "role_run_lengths": cv.role_run_lengths_sql(_T2_SHARDS),
        "part_bfs_levels": graph.part_bfs_levels_sql(),
        "quality_budget_selection": llm.quality_budget_selection_sql(),
        "customer_decile_transition": rel.customer_decile_transition_sql(),
        "recency_weighted_user_scores": rel.recency_weighted_user_scores_sql(),
        "supplier_part_herfindahl": rel.supplier_part_herfindahl_sql(),
        "events_ks_statistic": rel.events_ks_statistic_sql(),
        "events_value_auc": rel.events_value_auc_sql(),
        "dedup_method_overlap": dedup_mod.dedup_method_overlap_sql(),
        "bloom_dedup_audit": dedup_mod.bloom_dedup_audit_sql(),
        "part_kcore_sizes": graph.part_kcore_sizes_sql(ks=(64, 80, 96)),
        "rbo_ranking_overlap": similarity_mod.rbo_ranking_overlap_sql(),
        "vocab_cover_greedy": llm.vocab_cover_greedy_sql(),
        "mmr_diverse_topk": similarity_mod.mmr_diverse_topk_sql(),
        "coverage_selection": llm.coverage_selection_sql(),
        "embedding_sign_lsh_pairs": similarity_mod.embedding_sign_lsh_pairs_sql(),
        "v_optimal_daily_histogram": rel.v_optimal_daily_histogram_sql(),
        "supplier_part_stable_matching": rel.supplier_part_stable_matching_sql(),
        "part_mst_boruvka": graph.part_mst_boruvka_sql(),
        "winnowing_dedup": dedup_mod.winnowing_dedup_sql(),
        "lexicon_match_census": textops.lexicon_match_census_sql(),
        "dbscan_embeddings": similarity_mod.dbscan_embeddings_sql(),
        "kcenter_coreset": similarity_mod.kcenter_coreset_sql(),
        "facility_location_selection": similarity_mod.facility_location_selection_sql(),
        # the *_ivf_exact degenerates reproduce the exact variants
        # through the bucketed machinery, so they carry the same twins
        "mutual_knn_degree_ivf_exact": similarity_mod.mutual_knn_degree_sql(),
        "embedding_pair_distance_histogram_ivf_exact": (
            similarity_mod.embedding_pair_distance_histogram_sql()
        ),
        "triplet_margin_violations_ivf_exact": (
            similarity_mod.triplet_margin_violations_sql()
        ),
        "dbscan_embeddings_ivf_exact": similarity_mod.dbscan_embeddings_sql(),
        "facility_location_selection_ivf_exact": (
            similarity_mod.facility_location_selection_sql()
        ),
        "bpe_merges": llm.bpe_train_sql(),
        "bpe_encode_counts": llm.bpe_encode_counts_sql(),
        "part_supplier_articulation": graph.part_supplier_articulation_sql(),
        "event_type_jaccard_matrix": rel.event_type_jaccard_matrix_sql(),
        "embedding_pair_distance_histogram": similarity_mod.embedding_pair_distance_histogram_sql(),
        "t_closeness_audit": rel.t_closeness_audit_sql(),
        "revenue_nucleus_users": rel.revenue_nucleus_users_sql(),
        "prefix_cluster_keep_best": dedup_mod.prefix_cluster_keep_best_sql(),
        "user_max_drawdown": rel.user_max_drawdown_sql(),
        "experiment_lift_curve": rel.experiment_lift_curve_sql(),
        "conv_abandonment": cv.conv_abandonment_sql(_T2_SHARDS),
        "order_price_reconciliation": rel.order_price_reconciliation_sql(),
        "doc_len_quality_corr": llm.doc_len_quality_corr_sql(),
        "assistant_drift": cv.assistant_drift_sql(_T2_SHARDS),
        "token_nucleus_share": llm.token_nucleus_share_sql(),
        "conv_tool_diversity": cv.conv_tool_diversity_sql(_T2_SHARDS),
        "first_event_type_counts": rel.first_event_type_counts_sql(),
        "block_jackknife_stats": rel.block_jackknife_stats_sql(),
        "dedup_weight_correction": dedup_mod.dedup_weight_correction_sql(),
        "slowest_suppliers_p90": rel.slowest_suppliers_p90_sql(),
        "events_burstiness_fano": rel.events_burstiness_fano_sql(),
        "bipartite_assortativity_stats": graph.bipartite_assortativity_stats_sql(),
        "cluster_lang_purity": dedup_mod.cluster_lang_purity_sql(),
        "events_spearman_stats": rel.events_spearman_stats_sql(),
        "stump_threshold_split": rel.stump_threshold_split_sql(),
        "events_runs_test": rel.events_runs_test_sql(),
        "user_theil_sen_slope": rel.user_theil_sen_slope_sql(),
        "part_weighted_sssp": graph.part_weighted_sssp_sql(),
        "user_lis_lengths": rel.user_lis_lengths_sql(),
        "simhash_hamming_histogram": dedup_mod.simhash_hamming_histogram_sql(),
        "simhash_hamming_histogram_banded": dedup_mod.simhash_hamming_histogram_banded_sql(),
        "simhash_band_skew_census": dedup_mod.simhash_band_skew_census_sql(),
        "doremi_fixedpoint": mixing_mod.doremi_fixedpoint_sql(),
        "doremi_mix_plan": mixing_mod.doremi_mix_plan_sql(),
        "quality_threshold_sweep": calibration_mod.quality_threshold_sweep_sql(),
        "jaccard_threshold_sweep": calibration_mod.jaccard_threshold_sweep_sql(),
        "transcript_corpus_build": corpusbuild_mod.transcript_corpus_build_sql(_T2_GOLDEN),
        "length_bucketed_batch_plan": llm.length_bucketed_batch_plan_sql(),
        "pad_efficiency_report": llm.pad_efficiency_report_sql(),
        "conv_context_pack": cv.conv_context_pack_sql(_T2_SHARDS),
        "bandit_greedy_replay": rel.bandit_greedy_replay_sql(),
        "isotonic_rate_curve": rel.isotonic_rate_curve_sql(),
        "events_pettitt_change": rel.events_pettitt_change_sql(),
        "gapped_triple_patterns": rel.gapped_triple_patterns_sql(),
        "daily_lead_lag_xcorr": rel.daily_lead_lag_xcorr_sql(),
        "conv_editdist_drift": cv.conv_editdist_drift_sql(_T2_SHARDS),
        "mann_kendall_daily_trend": rel.mann_kendall_daily_trend_sql(),
        "user_kendall_concordance": rel.user_kendall_concordance_sql(),
        "user_interval_scheduling": rel.user_interval_scheduling_sql(),
        "triplet_margin_violations": similarity_mod.triplet_margin_violations_sql(),
        "events_cdf_l1_gap": rel.events_cdf_l1_gap_sql(),
        "seasonal_naive_backtest": rel.seasonal_naive_backtest_sql(),
        "conv_alternation_rate": cv.conv_alternation_rate_sql(_T2_SHARDS),
        "dictionary_match_counts": textops.dictionary_match_counts_sql(),
        "event_debruijn_balance": graph.event_debruijn_balance_sql(),
        "secretary_rule_replay": rel.secretary_rule_replay_sql(),
        "value_sum_convolution": rel.value_sum_convolution_sql(),
        "topk_overlap_profile": rel.topk_overlap_profile_sql(),
        "part_onion_layers": rel.part_onion_layers_sql(),
        "user_max_burst": rel.user_max_burst_sql(),
        "capped_top_events": rel.capped_top_events_sql(),
        "consistent_hash_ring": dso.consistent_hash_ring_sql(),
        "varint_delta_size_audit": rel.varint_delta_size_audit_sql(),
        "rice_param_audit": rel.rice_param_audit_sql(),
        "position_attribution": rel.position_attribution_sql(),
        "hourly_emd_matrix": rel.hourly_emd_matrix_sql(),
        "duplicate_payment_pairs": rel.duplicate_payment_pairs_sql(),
        "priority_inversion_census": rel.priority_inversion_census_sql(),
        "selectivity_estimate_audit": rel.selectivity_estimate_audit_sql(),
        "capacity_waterfill_allocation": rel.capacity_waterfill_allocation_sql(),
        "embedding_split_half_drift": rel.embedding_split_half_drift_sql(),
        "nation_revenue_theil": rel.nation_revenue_theil_sql(),
        "user_value_msd_median": rel.user_value_msd_median_sql(),
        "custbal_revenue_kendall": rel.custbal_revenue_kendall_sql(),
        "hourly_acf_spectrum": rel.hourly_acf_spectrum_sql(),
        "session_entry_exit_matrix": rel.session_entry_exit_matrix_sql(),
        "cosupplier_degree_histogram": rel.cosupplier_degree_histogram_sql(),
        "orders_monthly_bridge": rel.orders_monthly_bridge_sql(),
        "type_sojourn_time": rel.type_sojourn_time_sql(),
        "type_above_median_runs": rel.type_above_median_runs_sql(),
        "boundary_timestamp_audit": rel.boundary_timestamp_audit_sql(),
        "user_activity_lorenz": rel.user_activity_lorenz_sql(),
        "order_brand_simpson": rel.order_brand_simpson_sql(),
        "type_halfmass_time": rel.type_halfmass_time_sql(),
        "type_gini_mean_diff": rel.type_gini_mean_diff_sql(),
        "returns_pchart_audit": rel.returns_pchart_audit_sql(),
        "user_daily_periodicity": rel.user_daily_periodicity_sql(),
        "value_sortedness_audit": rel.value_sortedness_audit_sql(),
        "daily_revenue_max_surge": rel.daily_revenue_max_surge_sql(),
        "daily_merkle_root": rel.daily_merkle_root_sql(),
        "daily_haar_coeffs": rel.daily_haar_coeffs_sql(),
        "signup_to_purchase_clean": rel.signup_to_purchase_clean_sql(),
        "min_audit_points": rel.min_audit_points_sql(),
        "queue_sim_wait_times": rel.queue_sim_wait_times_sql(),
        "label_agreement_kappa": rel.label_agreement_kappa_sql(),
        "sfe_code_lengths": rel.sfe_code_lengths_sql(),
        "events_mannwhitney_u": rel.events_mannwhitney_u_sql(),
        "dhondt_allocation": rel.dhondt_allocation_sql(),
        "min_service_rate": rel.min_service_rate_sql(),
        "simpson_paradox_audit": rel.simpson_paradox_audit_sql(),
        "daily_ohlc_donchian": rel.daily_ohlc_donchian_sql(),
        "user_type_period": rel.user_type_period_sql(),
        "min_cost_assignment": rel.min_cost_assignment_sql(),
        "user_type_min_rotation": rel.user_type_min_rotation_sql(),
        "inventory_policy_replay": rel.inventory_policy_replay_sql(),
        "embedding_closest_pair": rel.embedding_closest_pair_sql(),
        "type_value_sd_floor": rel.type_value_sd_floor_sql(),
        "user_distinct_subseq_count": rel.user_distinct_subseq_count_sql(),
        "events_lcs_top2": rel.events_lcs_top2_sql(),
        "daily_value_convex_hull": rel.daily_value_convex_hull_sql(),
        "user_value_inversions": rel.user_value_inversions_sql(),
        "huffman_total_bits": rel.huffman_total_bits_sql(),
        "user_viterbi_score": rel.user_viterbi_score_sql(),
        "daily_hist_max_rectangle": rel.daily_hist_max_rectangle_sql(),
        "best_rational_rate": rel.best_rational_rate_sql(),
        "orders_balanced_partition": rel.orders_balanced_partition_sql(),
        "user_trailing_distinct_types": rel.user_trailing_distinct_types_sql(),
        "type_irv_winner": rel.type_irv_winner_sql(),
        "compaction_ffd_plan": rel.compaction_ffd_plan_sql(),
        "part_prefix_trie_stats": rel.part_prefix_trie_stats_sql(),
        "events_pr_curve": rel.events_pr_curve_sql(),
        "type_wilson_bounds": rel.type_wilson_bounds_sql(),
        "events_welch_ttest": rel.events_welch_ttest_sql(),
        "purchase_km_table": rel.purchase_km_table_sql(),
        "score_brier_calibration": rel.score_brier_calibration_sql(),
        "events_type_dow_independence": rel.events_type_dow_independence_sql(),
        "part_word_canonical_match": rel.part_word_canonical_match_sql(),
        "custkey_luhn_audit": rel.custkey_luhn_audit_sql(),
        "string_dictionary_audit": rel.string_dictionary_audit_sql(),
        "conv_prefix_forks": cv.conv_prefix_forks_sql(_FORKS_SHARDS),
        "dpo_pairs": cv.dpo_pairs_sql(_FORKS_SHARDS),
        "tokenizer_fertility": llm.tokenizer_fertility_sql(),
        "corpus_datasheet": llm.corpus_datasheet_sql(),
        "doc_ngram_novelty": textops.doc_ngram_novelty_sql(),
        "late_event_audit": dso.late_event_audit_sql(),
        "doc_adler32_audit": textops.doc_adler32_audit_sql(),
        "orders_weighted_sample": rel.orders_weighted_sample_sql(),
        "poisson_bootstrap_stats": dso.poisson_bootstrap_stats_sql(),
        "bitmap_index_audit": dso.bitmap_index_audit_sql(),
        "lsh_plan_table": dedup_mod.lsh_plan_table_sql(),
        "daily_holt_linear": rel.daily_holt_linear_sql(),
        "blocking_plan_audit": rel.blocking_plan_audit_sql(),
        "embedding_int8_quant_audit": similarity_mod.embedding_int8_quant_audit_sql(),
        "event_props_json_audit": rel.event_props_json_audit_sql(),
        "price_quantile_normalize": rel.price_quantile_normalize_sql(),
        "daily_periodogram": rel.daily_periodogram_sql(),
        "turn_encoding_audit": cv.turn_encoding_audit_sql(_T2_SHARDS),
        "payload_sniff_stats": cv.payload_sniff_stats_sql(_T2_SHARDS),
        "acctbal_winsorize": rel.acctbal_winsorize_sql(),
        "user_running_median": rel.user_running_median_sql(),
        "jl_projection_audit": similarity_mod.jl_projection_audit_sql(),
        "doc_minimizer_sketch": textops.doc_minimizer_sketch_sql(),
        "conv_chain_stitch": cv.conv_chain_stitch_sql(_CHAINS_SHARDS),
        "doc_script_census": textops.doc_script_census_sql(),
        "turn_nfc_audit": cv.turn_nfc_audit_sql(_UNICODE_SHARDS),
        "rendezvous_hash_audit": dso.rendezvous_hash_audit_sql(),
        "doc_knapsack_curve": llm.doc_knapsack_curve_sql(),
        "user_interval_union": rel.user_interval_union_sql(),
        "cust_edf_lateness": rel.cust_edf_lateness_sql(),
        "part_trigram_selectivity": dso.part_trigram_selectivity_sql(),
        "neyman_allocation": rel.neyman_allocation_sql(),
        "type_hoover_index": rel.type_hoover_index_sql(),
        "fd_discovery_audit": dso.fd_discovery_audit_sql(),
        "part_abc_classification": rel.part_abc_classification_sql(),
        "join_cardinality_audit": dso.join_cardinality_audit_sql(),
        "doc_sentence_census": textops.doc_sentence_census_sql(),
        "turn_homoglyph_audit": cv.turn_homoglyph_audit_sql(_HOMOGLYPH_SHARDS),
        "user_lru_hit_audit": rel.user_lru_hit_audit_sql(),
        "table_stats_profile": dso.table_stats_profile_sql(),
        "conv_shard_spread_audit": cv.conv_shard_spread_audit_sql(_T2_SHARDS),
        "orderkey_fragmentation_audit": dso.orderkey_fragmentation_audit_sql(),
        "event_nearmiss_dups": rel.event_nearmiss_dups_sql(),
        "turn_invisible_chars_audit": cv.turn_invisible_chars_audit_sql(_INVISIBLE_SHARDS),
        "value_trailing_digit_audit": rel.value_trailing_digit_audit_sql(),
        "conv_tool_burst": cv.conv_tool_burst_sql(_T2_SHARDS),
        "conv_protocol_violations": cv.conv_protocol_violations_sql(_T2_SHARDS),
        "important_parts_q11": rel.important_parts_q11_sql(),
        "events_idle_gaps_topk": rel.events_idle_gaps_topk_sql(),
        "late_ship_orders": rel.late_ship_orders_sql(),
        "impossible_ship_audit": rel.impossible_ship_audit_sql(),
        "part_supplier_price_spread": rel.part_supplier_price_spread_sql(),
        "events_minute_skew": rel.events_minute_skew_sql(),
        "segment_priority_mix": rel.segment_priority_mix_sql(),
        "orders_price_log2_histogram": rel.orders_price_log2_histogram_sql(),
        "events_gap_log2_histogram": rel.events_gap_log2_histogram_sql(),
        "source_lang_simpson": rel.source_lang_simpson_sql(),
        "user_bookend_types": rel.user_bookend_types_sql(),
        "nation_balance_sheet": rel.nation_balance_sheet_sql(),
        "doc_utf8_inflation": rel.doc_utf8_inflation_sql(),
        "turn_utf8_inflation": cv.turn_utf8_inflation_sql(_UNICODE_SHARDS),
        "user_activity_log2_bands": rel.user_activity_log2_bands_sql(),
        "conv_position_role_mix": cv.conv_position_role_mix_sql(_T2_SHARDS),
        "user_type_run_histogram": rel.user_type_run_histogram_sql(),
        "region_year_order_matrix": rel.region_year_order_matrix_sql(),
        "value_quantization_audit": rel.value_quantization_audit_sql(),
        "doc_first_token_census": rel.doc_first_token_census_sql(),
        "t5_span_mask_plan": textops.t5_span_mask_plan_sql(),
        "cross_conv_turn_dups": cv.cross_conv_turn_dups_sql(_FORKS_SHARDS),
        "customer_reactivation_census": rel.customer_reactivation_census_sql(),
        "source_prefix_discrepancy": rel.source_prefix_discrepancy_sql(),
        "percentile_stitch_bias_audit": rel.percentile_stitch_bias_audit_sql(),
        "events_type_peak_hour": rel.events_type_peak_hour_sql(),
        "skeleton_token_collisions": cv.skeleton_token_collisions_sql(
            _HOMOGLYPH_SHARDS
        ),
        "reply_length_by_prompt_decile": cv.reply_length_by_prompt_decile_sql(
            _T2_SHARDS
        ),
        "daily_dominance_counts": rel.daily_dominance_counts_sql(),
        "event_value_did": rel.event_value_did_sql(),
        "cohort_persistence": rel.cohort_persistence_sql(),
        "cross_source_contamination": llm.cross_source_contamination_sql(),
        "order_value_sign_test": rel.order_value_sign_test_sql(),
        "aa_split_invariance": rel.aa_split_invariance_sql(),
        "daily_type_mix_drift": rel.daily_type_mix_drift_sql(),
        "hdr_quantile_sketch": rel.hdr_quantile_sketch_sql(),
        "discount_return_contingency": rel.discount_return_contingency_sql(),
        "mips_topk": similarity_mod.mips_topk_sql(),
        "linenumber_contiguity_audit": rel.linenumber_contiguity_audit_sql(),
        "session_timeout_sensitivity": rel.session_timeout_sensitivity_sql(),
        "lang_char_bigram_fingerprint": rel.lang_char_bigram_fingerprint_sql(),
        "type_lifecycle": rel.type_lifecycle_sql(),
        "bracket_balance_audit": rel.bracket_balance_audit_sql(),
        "conv_shape_census": cv.conv_shape_census_sql(_T2_SHARDS),
        "weekday_extremes": rel.weekday_extremes_sql(),
        "customer_growth_bands": rel.customer_growth_bands_sql(),
        "key_joinability_census": rel.key_joinability_census_sql(),
        "brand_price_size_regression": rel.brand_price_size_regression_sql(),
        "user_dow_concentration_bands": rel.user_dow_concentration_bands_sql(),
        "conv_motif_census": cv.conv_motif_census_sql(_T2_SHARDS),
        "order_status_return_mix": rel.order_status_return_mix_sql(),
        "value_tail_hill": rel.value_tail_hill_sql(),
        "turn_format_census": cv.turn_format_census_sql(_T2_SHARDS),
        "media_header_audit": mm_mod.media_header_audit_sql(),
        "html_tag_census": cv.html_tag_census_sql(_T2_SHARDS),
        "html_href_census": cv.html_href_census_sql(_T2_SHARDS),
        "extracted_dup_census": f"""
            WITH h AS (
                SELECT payload_kind, md5(extracted_text) AS h
                FROM read_parquet('{_T2_GOLDEN}')
            ),
            g AS (SELECT payload_kind, h, COUNT(*) AS c FROM h GROUP BY 1, 2)
            SELECT payload_kind,
                   CAST(SUM(c) AS BIGINT) AS n_turns,
                   CAST(COUNT(*) AS BIGINT) AS n_distinct_texts,
                   CAST(COALESCE(SUM(c) FILTER (WHERE c > 1), 0) AS BIGINT)
                       AS n_dup_turns
            FROM g GROUP BY payload_kind ORDER BY payload_kind
        """,
        "extracted_len_profile": f"""
            SELECT payload_kind, parse_status,
                   CAST(COUNT(*) AS BIGINT) AS n_turns,
                   CAST(SUM(length(extracted_text)) AS BIGINT) AS total_chars,
                   CAST(MAX(length(extracted_text)) AS BIGINT) AS max_chars
            FROM read_parquet('{_T2_GOLDEN}')
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "extracted_token_stats": rf"""
            WITH tok AS (
                SELECT payload_kind,
                       unnest(list_filter(
                           string_split_regex(extracted_text,
                                              '[ \t\n\r\x0b\x0c]+'),
                           w -> w <> '')) AS w
                FROM read_parquet('{_T2_GOLDEN}')
            )
            SELECT payload_kind,
                   CAST(COUNT(*) AS BIGINT) AS n_tokens,
                   CAST(COUNT(DISTINCT w) AS BIGINT) AS n_distinct_tokens
            FROM tok GROUP BY payload_kind ORDER BY payload_kind
        """,
        # rows-only (no SQL equivalent): simhash_dedup (signatures need
        # blake2b, pinned instead by the exact-Hamming side-table pytest),
        # ann_ivf_topk, language_profile, media_features
    }
