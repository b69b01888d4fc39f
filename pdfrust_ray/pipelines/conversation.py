"""Conversation-level analytics over the transcript input table.

The graft input (conv_id, turn_idx, role, text, tool, ts) is more than
an extraction source: a real transcript pipeline also needs per-
conversation rollups, turn-gap latency windows, tool-usage accounting,
role-sequence statistics and conversation-level dedup. Each operator
here is SQL-oracled (DuckDB reads the same raw shards) and shaped for
10^12 turns.

Key-shuffle shape: Ray's groupby dispatches Python per group AND its
named aggregates loop per (group, aggregator) — measured 11.6s for an
8-aggregator groupby over just 20k conversations. All operators here
therefore shuffle on a COARSE bucket key (md5(conv_id) % 64, same
trick as stages/dedup.py's shard grouping): the sort co-locates every
turn of a conversation inside one bucket group, and the per-bucket
callable does the real work vectorized (pyarrow TableGroupBy / pandas
boundary masks) over the whole bucket at C speed. Python dispatch cost
is O(64), not O(conversations); the exchange volume is unchanged.

Timestamps travel as epoch microseconds (int64) so the value-hash
comparison against DuckDB's epoch_us() is exact.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Count, Min, Sum

_SEP = "\x1f"  # unit separator: cannot appear in fixture texts
_N_BUCKETS = 64


def _coalesced(ds: "rd.Dataset") -> "rd.Dataset":
    """Coalesce to ~one block per core before the bucket shuffle.

    Ray's sort-based groupby materializes partitions^2 intermediate
    objects, so a parquet read that produced hundreds of small blocks
    makes the shuffle object-count-bound, not data-bound (measured on
    the 800k-turn bench corpus: the same bucket groupby takes 4.9s from
    256 blocks, 0.9s after repartition(32)). On a multi-node cluster
    the same rule holds with cores = cluster cores."""
    from .extract_pipeline import _cluster_cpus

    return ds.repartition(max(8, min(64, _cluster_cpus())))


def _bucket_of(ids: "pa.ChunkedArray") -> "pa.Array":
    """md5-based bucket per conversation id, vectorized via the md5
    lanes in functions/md5vec."""
    from pdfrust_ray.functions.md5vec import md5_prefix_u32

    h = md5_prefix_u32([s.encode("utf-8") for s in ids.to_pylist()])
    return pa.array((h % _N_BUCKETS).astype(np.int64), pa.int64())


def _epoch_us(ts: "pa.ChunkedArray") -> "pa.ChunkedArray":
    return pc.cast(ts, pa.int64())


def conv_stats(corpus_dir: str) -> pd.DataFrame:
    """Per-conversation rollup: turn counts by role, total text chars,
    tool-call count, first/last timestamp and duration.

    Shape: vectorized per-row derivation -> ONE bucket-keyed shuffle ->
    per-bucket pyarrow TableGroupBy (C++ hash aggregation) -> tiny
    result union. The exchange carries 7 int64s + the id per turn; the
    text stays in the map stage."""
    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "role", "text", "tool", "ts"]
    )

    def derive(t: pa.Table) -> pa.Table:
        role = t["role"]
        one = pa.scalar(1, pa.int64())
        zero = pa.scalar(0, pa.int64())

        def flag(mask):
            return pc.if_else(mask, one, zero)

        return pa.table(
            {
                "bucket": _bucket_of(t["conv_id"]),
                "conv_id": t["conv_id"],
                "is_user": flag(pc.equal(role, "user")),
                "is_assistant": flag(pc.equal(role, "assistant")),
                "is_tool_role": flag(pc.equal(role, "tool")),
                "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
                "has_tool": flag(pc.not_equal(t["tool"], "")),
                "ts_us": _epoch_us(t["ts"]),
            }
        )

    def per_bucket(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t.drop_columns(["bucket"]), "conv_id").aggregate(
            [
                ("is_user", "count"),
                ("is_user", "sum"),
                ("is_assistant", "sum"),
                ("is_tool_role", "sum"),
                ("n_chars", "sum"),
                ("has_tool", "sum"),
                ("ts_us", "min"),
                ("ts_us", "max"),
            ]
        )
        dur = pc.subtract(g["ts_us_max"], g["ts_us_min"])
        return pa.table(
            {
                "conv_id": g["conv_id"],
                "n_turns": pc.cast(g["is_user_count"], pa.int64()),
                "n_user_turns": g["is_user_sum"],
                "n_assistant_turns": g["is_assistant_sum"],
                "n_tool_turns": g["is_tool_role_sum"],
                "total_chars": g["n_chars_sum"],
                "n_tool_calls": g["has_tool_sum"],
                "first_ts_us": g["ts_us_min"],
                "last_ts_us": g["ts_us_max"],
                "duration_us": dur,
            }
        )

    out = (
        _coalesced(ds.map_batches(derive, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .to_pandas()
    )
    for c in out.columns:
        if c != "conv_id":
            out[c] = out[c].astype("int64")
    return out.sort_values("conv_id").reset_index(drop=True)


def conv_stats_sql(shards_glob: str) -> str:
    return f"""
        SELECT conv_id,
               COUNT(*) AS n_turns,
               CAST(SUM(CASE WHEN role = 'user' THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_user_turns,
               CAST(SUM(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_assistant_turns,
               CAST(SUM(CASE WHEN role = 'tool' THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_tool_turns,
               CAST(SUM(length(text)) AS BIGINT) AS total_chars,
               CAST(SUM(CASE WHEN tool <> '' THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_tool_calls,
               MIN(epoch_us(ts)) AS first_ts_us,
               MAX(epoch_us(ts)) AS last_ts_us,
               MAX(epoch_us(ts)) - MIN(epoch_us(ts)) AS duration_us
        FROM read_parquet('{shards_glob}')
        GROUP BY conv_id ORDER BY conv_id
    """


def _with_bucket(t: pa.Table) -> pa.Table:
    return t.append_column("bucket", _bucket_of(t["conv_id"]))


def turn_latency(corpus_dir: str) -> pd.DataFrame:
    """LAG window: per turn, microseconds since the previous turn of the
    same conversation (-1 for the opening turn).

    One bucket-keyed shuffle co-locates conversations; inside a bucket
    a single (conv_id, turn_idx) sort + numpy diff computes every
    conversation's gaps at once, with a boundary mask resetting the
    first turn — no per-conversation dispatch."""
    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role", "ts"]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
        us = g["ts"].astype("int64").to_numpy()
        gap = np.empty(len(us), dtype=np.int64)
        if len(us):
            gap[0] = -1
            gap[1:] = us[1:] - us[:-1]
            conv = g["conv_id"].to_numpy()
            gap[np.r_[True, conv[1:] != conv[:-1]]] = -1
        return pd.DataFrame(
            {
                "conv_id": g["conv_id"],
                "turn_idx": g["turn_idx"].astype("int64"),
                "role": g["role"],
                "gap_us": gap,
            }
        )

    out = (
        _coalesced(ds.map_batches(_with_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def turn_latency_sql(shards_glob: str) -> str:
    return f"""
        SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx, role,
               COALESCE(epoch_us(ts) - LAG(epoch_us(ts))
                            OVER (PARTITION BY conv_id ORDER BY turn_idx),
                        -1) AS gap_us
        FROM read_parquet('{shards_glob}')
        ORDER BY conv_id, turn_idx
    """


def tool_usage(corpus_dir: str) -> pd.DataFrame:
    """Per-tool accounting over tool-call turns (tool <> ''): call
    count, distinct conversations, total payload chars.

    Distinct-conv needs (tool, conv) granularity first: per-batch
    pyarrow partials collapse to one row per (tool, conv) per block,
    the bucket shuffle merges them per conversation bucket, and the
    final per-tool aggregate runs over |tools| groups — cheap even via
    Ray's named-aggregate path."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "tool", "text"])

    def partials(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["tool"], ""))
        tbl = pa.table(
            {
                "tool": t["tool"],
                "conv_id": t["conv_id"],
                "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
            }
        )
        g = pa.TableGroupBy(tbl, ["tool", "conv_id"]).aggregate(
            [("n_chars", "count"), ("n_chars", "sum")]
        )
        out = pa.table(
            {
                "tool": g["tool"],
                "conv_id": g["conv_id"],
                "n_calls": pc.cast(g["n_chars_count"], pa.int64()),
                "n_chars": g["n_chars_sum"],
            }
        )
        return _with_bucket(out)

    def merge_bucket(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t.drop_columns(["bucket"]), ["tool", "conv_id"]).aggregate(
            [("n_calls", "sum"), ("n_chars", "sum")]
        )
        return pa.table(
            {
                "tool": g["tool"],
                "n_calls": g["n_calls_sum"],
                "n_chars": g["n_chars_sum"],
            }
        )

    out = (
        _coalesced(ds.map_batches(partials, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(merge_bucket, batch_format="pyarrow")
        .groupby("tool")
        .aggregate(
            Sum("n_calls", alias_name="n_calls"),
            Count(alias_name="n_convs"),
            Sum("n_chars", alias_name="total_chars"),
        )
        .to_pandas()
    )
    for c in ("n_calls", "n_convs", "total_chars"):
        out[c] = out[c].astype("int64")
    return out.sort_values("tool").reset_index(drop=True)


def tool_usage_sql(shards_glob: str) -> str:
    return f"""
        SELECT tool,
               COUNT(*) AS n_calls,
               CAST(COUNT(DISTINCT conv_id) AS BIGINT) AS n_convs,
               CAST(SUM(length(text)) AS BIGINT) AS total_chars
        FROM read_parquet('{shards_glob}')
        WHERE tool <> ''
        GROUP BY tool ORDER BY tool
    """


def role_transitions(corpus_dir: str) -> pd.DataFrame:
    """Corpus-wide role-bigram counts: how often does role A hand off
    to role B within a conversation.

    Bucket shuffle + one vectorized shift per bucket (boundary-masked),
    partial pair counts per bucket, then a global merge over at most
    |roles|^2 x buckets rows."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
        if len(g) < 2:
            return pd.DataFrame({"prev_role": [], "role": [], "n": []})
        conv = g["conv_id"].to_numpy()
        same = conv[1:] == conv[:-1]
        pairs = pd.DataFrame(
            {"prev_role": g["role"].to_numpy()[:-1][same], "role": g["role"].to_numpy()[1:][same]}
        )
        out = pairs.groupby(["prev_role", "role"], as_index=False).size()
        return out.rename(columns={"size": "n"})

    out = (
        _coalesced(ds.map_batches(_with_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .groupby(["prev_role", "role"])
        .aggregate(Sum("n", alias_name="n_transitions"))
        .to_pandas()
    )
    out["n_transitions"] = out["n_transitions"].astype("int64")
    return out.sort_values(["prev_role", "role"]).reset_index(drop=True)


def role_transitions_sql(shards_glob: str) -> str:
    return f"""
        SELECT prev_role, role, COUNT(*) AS n_transitions
        FROM (
            SELECT LAG(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
                       AS prev_role,
                   role
            FROM read_parquet('{shards_glob}')
        )
        WHERE prev_role IS NOT NULL
        GROUP BY prev_role, role
        ORDER BY prev_role, role
    """


def conv_fingerprints(corpus_dir: str) -> pd.DataFrame:
    """Conversation-level exact dedup: fingerprint = md5 over the
    turn-ordered concatenation of PER-TURN md5 digests (US-separated),
    grouped to (fingerprint, n_convs, first_conv).

    Hashing each turn in the map stage means the conversation shuffle
    moves 32-byte digests — the text NEVER crosses an exchange, so at
    10^12 turns the sort handles ~3% of the corpus bytes. Two identical
    conversations collide iff every per-turn digest matches in order
    (md5-collision-exact, same dedup semantics as hashing the raw
    concatenation). The dedup merge runs on a SECOND bucket key derived
    from the fingerprint, so identical conversations from different
    conv-buckets still meet."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "text"])

    def digest_turns(t: pa.Table) -> pa.Table:
        td = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in t["text"].to_pylist()]
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "turn_md5": pa.array(td, pa.string()),
            }
        )
        return _with_bucket(out)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable")
        agg = g.groupby("conv_id", sort=False)["turn_md5"].agg(_SEP.join)
        fps = [hashlib.md5(b.encode("utf-8")).hexdigest() for b in agg]
        out = pd.DataFrame({"fingerprint": fps, "conv_id": agg.index})
        out["fp_bucket"] = [int(f[:8], 16) % _N_BUCKETS for f in fps]
        return out

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = (
            g.groupby("fingerprint", sort=False)
            .agg(n_convs=("conv_id", "size"), first_conv=("conv_id", "min"))
            .reset_index()
        )
        m["n_convs"] = m["n_convs"].astype("int64")
        return m[["fingerprint", "n_convs", "first_conv"]]

    out = (
        _coalesced(ds.map_batches(digest_turns, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .groupby("fp_bucket")
        .map_groups(merge_bucket, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("fingerprint").reset_index(drop=True)


def conv_fingerprints_sql(shards_glob: str) -> str:
    return f"""
        SELECT fingerprint, COUNT(*) AS n_convs, MIN(conv_id) AS first_conv
        FROM (
            SELECT conv_id,
                   md5(string_agg(md5(text), chr(31) ORDER BY turn_idx))
                       AS fingerprint
            FROM read_parquet('{shards_glob}')
            GROUP BY conv_id
        )
        GROUP BY fingerprint ORDER BY fingerprint
    """


def conv_extract_stats(extract_ds) -> pd.DataFrame:
    """Per-conversation extraction rollup over the flagship pipeline's
    OUTPUT surface: turn count, ok/error split, PDF-vs-HTML payload
    mix, total decoded bytes and extracted characters.

    Takes the extraction Dataset (conv_id, payload_kind, parse_status,
    bytes_decoded, extracted_text, ...) and applies the same
    coarse-bucket shuffle as the raw-table rollups — the quality
    dashboard a 10^12-turn extraction run needs for triage, computed
    without a second pass over the input payloads."""

    def derive(t: pa.Table) -> pa.Table:
        one = pa.scalar(1, pa.int64())
        zero = pa.scalar(0, pa.int64())

        def flag(mask):
            return pc.if_else(mask, one, zero)

        return pa.table(
            {
                "bucket": _bucket_of(t["conv_id"]),
                "conv_id": t["conv_id"],
                "is_ok": flag(pc.equal(t["parse_status"], "ok")),
                "is_err": flag(pc.not_equal(t["parse_status"], "ok")),
                "is_pdf": flag(pc.equal(t["payload_kind"], "pdf")),
                "is_html": flag(pc.equal(t["payload_kind"], "html")),
                "bytes_decoded": pc.cast(t["bytes_decoded"], pa.int64()),
                "n_chars_out": pc.cast(pc.utf8_length(t["extracted_text"]), pa.int64()),
            }
        )

    def per_bucket(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t.drop_columns(["bucket"]), "conv_id").aggregate(
            [
                ("is_ok", "count"),
                ("is_ok", "sum"),
                ("is_err", "sum"),
                ("is_pdf", "sum"),
                ("is_html", "sum"),
                ("bytes_decoded", "sum"),
                ("n_chars_out", "sum"),
            ]
        )
        return pa.table(
            {
                "conv_id": g["conv_id"],
                "n_turns": pc.cast(g["is_ok_count"], pa.int64()),
                "n_ok": g["is_ok_sum"],
                "n_err": g["is_err_sum"],
                "n_pdf": g["is_pdf_sum"],
                "n_html": g["is_html_sum"],
                "sum_bytes_decoded": g["bytes_decoded_sum"],
                "sum_chars_out": g["n_chars_out_sum"],
            }
        )

    out = (
        _coalesced(extract_ds.map_batches(derive, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
        .to_pandas()
    )
    for c in out.columns:
        if c != "conv_id":
            out[c] = out[c].astype("int64")
    return out.sort_values("conv_id").reset_index(drop=True)


def conv_extract_stats_sql(golden_path: str) -> str:
    return f"""
        SELECT conv_id,
               COUNT(*) AS n_turns,
               CAST(SUM(CASE WHEN parse_status = 'ok' THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_ok,
               CAST(SUM(CASE WHEN parse_status <> 'ok' THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_err,
               CAST(SUM(CASE WHEN payload_kind = 'pdf' THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_pdf,
               CAST(SUM(CASE WHEN payload_kind = 'html' THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_html,
               CAST(SUM(bytes_decoded) AS BIGINT) AS sum_bytes_decoded,
               CAST(SUM(length(extracted_text)) AS BIGINT) AS sum_chars_out
        FROM read_parquet('{golden_path}')
        GROUP BY conv_id ORDER BY conv_id
    """


def tool_latency(corpus_dir: str) -> pd.DataFrame:
    """Per-tool latency accounting: for every tool turn, the gap from
    the previous turn of the same conversation (the time the tool call
    took to come back); per tool the call count, total and max latency
    in exact microseconds.

    Same one-bucket-shuffle shape as turn_latency — gaps for ALL
    conversations in a bucket come from one sort + numpy diff with a
    conversation-boundary mask; per-tool (count, sum, max) partials
    fold on the driver over |tools| x |buckets| rows."""
    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role", "tool", "ts"]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
        us = g["ts"].astype("int64").to_numpy()
        if not len(us):
            return pd.DataFrame(
                {
                    "tool": pd.Series([], dtype="object"),
                    "n_calls": pd.Series([], dtype="int64"),
                    "sum_latency_us": pd.Series([], dtype="int64"),
                    "max_latency_us": pd.Series([], dtype="int64"),
                }
            )
        gap = np.empty(len(us), dtype=np.int64)
        gap[0] = -1
        gap[1:] = us[1:] - us[:-1]
        conv = g["conv_id"].to_numpy()
        opening = np.r_[True, conv[1:] != conv[:-1]]
        gap[opening] = -1
        mask = (g["role"].to_numpy() == "tool") & ~opening
        df = pd.DataFrame({"tool": g["tool"].to_numpy()[mask], "gap": gap[mask]})
        agg = df.groupby("tool")["gap"].agg(["size", "sum", "max"]).reset_index()
        return pd.DataFrame(
            {
                "tool": agg["tool"],
                "n_calls": agg["size"].astype("int64"),
                "sum_latency_us": agg["sum"].astype("int64"),
                "max_latency_us": agg["max"].astype("int64"),
            }
        )

    parts = (
        _coalesced(ds.map_batches(_with_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    out = (
        parts.groupby("tool", as_index=False)
        .agg(
            n_calls=("n_calls", "sum"),
            sum_latency_us=("sum_latency_us", "sum"),
            max_latency_us=("max_latency_us", "max"),
        )
        .sort_values("tool")
        .reset_index(drop=True)
    )
    for c in ("n_calls", "sum_latency_us", "max_latency_us"):
        out[c] = out[c].astype("int64")
    return out


def tool_latency_sql(shards_glob: str) -> str:
    return f"""
        WITH l AS (
            SELECT role, tool,
                   epoch_us(ts) - LAG(epoch_us(ts))
                       OVER (PARTITION BY conv_id ORDER BY turn_idx) AS gap_us
            FROM read_parquet('{shards_glob}')
        )
        SELECT tool,
               CAST(COUNT(*) AS BIGINT) AS n_calls,
               CAST(SUM(gap_us) AS BIGINT) AS sum_latency_us,
               CAST(MAX(gap_us) AS BIGINT) AS max_latency_us
        FROM l
        WHERE role = 'tool' AND gap_us IS NOT NULL
        GROUP BY tool
        ORDER BY tool
    """


def context_truncation(corpus_dir: str, budget: int = 256) -> pd.DataFrame:
    """Context-window accounting: per conversation, the longest SUFFIX
    of turns whose total whitespace-token count fits a fixed budget —
    the turn set an LLM serving stack would actually keep when the
    conversation exceeds its context window (most-recent-first
    retention). Reports kept/dropped turn counts, tokens kept, and the
    first retained turn_idx (-1 when even the final turn overflows).

    One coarse-bucket shuffle co-locates conversations; inside a
    bucket one (conv_id, turn_idx) sort + reversed cumulative sums
    handle every conversation vectorized. Token splitting uses an
    EXPLICIT ASCII whitespace class on both sides — Python re's \\s
    also matches U+0085/U+00A0-style unicode whitespace that RE2's \\s
    does not, and the transcript payloads contain such bytes."""
    import re

    ws = re.compile(r"[ \t\n\x0b\x0c\r]+")

    def token_count(text: str) -> int:
        return len(ws.split(text))

    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "text"]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
        if not len(g):
            return pd.DataFrame(
                {
                    "conv_id": pd.Series([], dtype="object"),
                    "n_turns": pd.Series([], dtype="int64"),
                    "n_kept": pd.Series([], dtype="int64"),
                    "tokens_total": pd.Series([], dtype="int64"),
                    "tokens_kept": pd.Series([], dtype="int64"),
                    "first_kept_idx": pd.Series([], dtype="int64"),
                }
            )
        tok = np.fromiter(
            (token_count(t) for t in g["text"]), dtype=np.int64, count=len(g)
        )
        conv = g["conv_id"].to_numpy()
        opening = np.r_[True, conv[1:] != conv[:-1]]
        grp = np.cumsum(opening) - 1  # 0..n_convs-1, contiguous
        totals = np.bincount(grp, weights=tok).astype(np.int64)
        # inclusive prefix sum within each conversation
        csum = np.cumsum(tok)
        base = np.zeros(len(tok), dtype=np.int64)
        starts = np.nonzero(opening)[0]
        base[starts] = csum[starts] - tok[starts]
        prefix_incl = csum - np.maximum.accumulate(base)
        # suffix total INCLUDING this turn = conv total - prefix + own
        suffix = totals[grp] - prefix_incl + tok
        kept = suffix <= budget
        n_kept = np.bincount(grp[kept], minlength=len(totals)).astype(np.int64)
        tokens_kept = np.bincount(
            grp[kept], weights=tok[kept], minlength=len(totals)
        ).astype(np.int64)
        idx = g["turn_idx"].to_numpy().astype(np.int64)
        first_kept = np.full(len(totals), -1, dtype=np.int64)
        # rows are sorted by turn_idx, so the first kept row per group wins
        kept_rows = np.nonzero(kept)[0]
        if len(kept_rows):
            kg = grp[kept_rows]
            first_of = np.r_[True, kg[1:] != kg[:-1]]
            first_kept[kg[first_of]] = idx[kept_rows[first_of]]
        n_turns = np.bincount(grp, minlength=len(totals)).astype(np.int64)
        return pd.DataFrame(
            {
                "conv_id": conv[starts],
                "n_turns": n_turns,
                "n_kept": n_kept,
                "tokens_total": totals,
                "tokens_kept": tokens_kept,
                "first_kept_idx": first_kept,
            }
        )

    out = (
        _coalesced(ds.map_batches(_with_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
        .sort_values("conv_id")
        .reset_index(drop=True)
    )
    for c in out.columns:
        if c != "conv_id":
            out[c] = out[c].astype("int64")
    return out


def context_truncation_sql(shards_glob: str, budget: int = 256) -> str:
    return f"""
        WITH t AS (
            SELECT conv_id, turn_idx,
                   length(string_split_regex(text, '[ \\t\\n\\x0b\\x0c\\r]+')) AS tok,
                   SUM(length(string_split_regex(text,
                       '[ \\t\\n\\x0b\\x0c\\r]+'))) OVER (
                       PARTITION BY conv_id ORDER BY turn_idx DESC
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
                   ) AS suffix_tok
            FROM read_parquet('{shards_glob}')
        )
        SELECT conv_id,
               CAST(COUNT(*) AS BIGINT) AS n_turns,
               CAST(SUM(CASE WHEN suffix_tok <= {budget} THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_kept,
               CAST(SUM(tok) AS BIGINT) AS tokens_total,
               CAST(COALESCE(MAX(suffix_tok)
                    FILTER (WHERE suffix_tok <= {budget}), 0) AS BIGINT)
                   AS tokens_kept,
               CAST(COALESCE(MIN(turn_idx)
                    FILTER (WHERE suffix_tok <= {budget}), -1) AS BIGINT)
                   AS first_kept_idx
        FROM t GROUP BY conv_id ORDER BY conv_id
    """


def role_length_quantiles(corpus_dir: str) -> pd.DataFrame:
    """Per-role payload-size profile over the transcript table: exact
    discrete p25/p50/p75/p90 of text length (rank floor((n-1)*q), the
    repo-wide equidepth convention) plus counts.

    Medians don't merge, but LENGTHS are a bounded domain — so the
    exact distributed form is a frequency fold: per-batch (role,
    length, count) partials (thousands of distinct lengths, not rows),
    a driver fold over the tiny frequency table, and quantile lookup
    by cumulative count. No shuffle at all."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["role", "text"])

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "role": t["role"].to_pylist(),
                "length": pc.cast(pc.utf8_length(t["text"]), pa.int64()).to_pandas(),
            }
        )
        agg = df.groupby(["role", "length"], sort=False).size().reset_index(name="n")
        return pa.Table.from_pandas(agg, preserve_index=False)

    parts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .groupby(["role", "length"], as_index=False)["n"]
        .sum()
    )
    rows = []
    for role, g in parts.groupby("role"):
        g = g.sort_values("length")
        lens = g["length"].to_numpy()
        cnt = g["n"].to_numpy()
        cum = cnt.cumsum()
        n = int(cum[-1])
        qs = {}
        for p in (25, 50, 75, 90):
            rank = (n - 1) * p // 100  # 0-based
            qs[p] = int(lens[np.searchsorted(cum, rank + 1)])
        rows.append((role, n, qs[25], qs[50], qs[75], qs[90]))
    out = pd.DataFrame(
        rows, columns=["role", "n_turns", "p25", "p50", "p75", "p90"]
    ).sort_values("role").reset_index(drop=True)
    for c in ("n_turns", "p25", "p50", "p75", "p90"):
        out[c] = out[c].astype("int64")
    return out


def role_length_quantiles_sql(shards_glob: str) -> str:
    return f"""
        WITH ord AS (
            SELECT role, length(text) AS len,
                   ROW_NUMBER() OVER (PARTITION BY role ORDER BY length(text))
                       AS rn,
                   COUNT(*) OVER (PARTITION BY role) AS n
            FROM read_parquet('{shards_glob}')
        )
        SELECT role,
               CAST(MAX(n) AS BIGINT) AS n_turns,
               CAST(MAX(CASE WHEN rn = (n - 1) * 25 // 100 + 1 THEN len END)
                    AS BIGINT) AS p25,
               CAST(MAX(CASE WHEN rn = (n - 1) * 50 // 100 + 1 THEN len END)
                    AS BIGINT) AS p50,
               CAST(MAX(CASE WHEN rn = (n - 1) * 75 // 100 + 1 THEN len END)
                    AS BIGINT) AS p75,
               CAST(MAX(CASE WHEN rn = (n - 1) * 90 // 100 + 1 THEN len END)
                    AS BIGINT) AS p90
        FROM ord GROUP BY role ORDER BY role
    """


def user_retry_rate(corpus_dir: str) -> pd.DataFrame:
    """Per-conversation retry detection: a user turn immediately
    followed by another user turn means the user re-prompted without an
    assistant reply in between (correction / retry / impatience) — a
    core transcript-quality signal when mining conversations for
    training pairs. Same shape as role_transitions (bucket shuffle +
    one boundary-masked vectorized shift per bucket) but keeps the
    per-conversation grain: conv_id, user-turn count, retry count."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
        conv = g["conv_id"].to_numpy()
        role = g["role"].to_numpy()
        is_user = role == "user"
        retry = np.zeros(len(g), dtype=np.int64)
        if len(g) > 1:
            retry[1:] = (
                (conv[1:] == conv[:-1]) & is_user[1:] & is_user[:-1]
            ).astype(np.int64)
        out = pd.DataFrame(
            {"conv_id": conv, "u": is_user.astype(np.int64), "r": retry}
        )
        return (
            out.groupby("conv_id", as_index=False)
            .agg(n_user_turns=("u", "sum"), n_retries=("r", "sum"))
        )

    out = (
        _coalesced(ds.map_batches(_with_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
        .sort_values("conv_id")
        .reset_index(drop=True)
    )
    for c in ("n_user_turns", "n_retries"):
        out[c] = out[c].astype("int64")
    return out


def user_retry_rate_sql(shards_glob: str) -> str:
    return f"""
        SELECT conv_id,
               CAST(SUM(CASE WHEN role = 'user' THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_user_turns,
               CAST(SUM(CASE WHEN role = 'user' AND prev_role = 'user'
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_retries
        FROM (
            SELECT conv_id, role,
                   LAG(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
                       AS prev_role
            FROM read_parquet('{shards_glob}')
        )
        GROUP BY conv_id ORDER BY conv_id
    """


def sft_pairs(corpus_dir: str) -> pd.DataFrame:
    """SFT training-pair extraction accounting: per conversation, the
    number of adjacent user->assistant turn pairs (the rows an
    instruction-tuning dataset builder would emit) and the total
    characters across both sides of those pairs. Bucket shuffle + one
    boundary-masked vectorized shift — identical exchange to
    role_transitions; the pair payloads themselves would stream to a
    partitioned sink at scale, the query surfaces the accounting."""
    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role", "text"]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
        conv = g["conv_id"].to_numpy()
        role = g["role"].to_numpy()
        chars = g["text"].str.len().to_numpy()
        pair = np.zeros(len(g), dtype=np.int64)
        pchars = np.zeros(len(g), dtype=np.int64)
        if len(g) > 1:
            hit = (conv[1:] == conv[:-1]) & (role[:-1] == "user") & (role[1:] == "assistant")
            pair[:-1] = hit.astype(np.int64)
            pchars[:-1] = np.where(hit, chars[:-1] + chars[1:], 0)
        out = pd.DataFrame({"conv_id": conv, "p": pair, "c": pchars})
        return out.groupby("conv_id", as_index=False).agg(
            n_pairs=("p", "sum"), sum_pair_chars=("c", "sum")
        )

    out = (
        _coalesced(ds.map_batches(_with_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
        .sort_values("conv_id")
        .reset_index(drop=True)
    )
    for c in ("n_pairs", "sum_pair_chars"):
        out[c] = out[c].astype("int64")
    return out


def sft_pairs_sql(shards_glob: str) -> str:
    return f"""
        SELECT conv_id,
               CAST(SUM(CASE WHEN role = 'user' AND next_role = 'assistant'
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_pairs,
               CAST(SUM(CASE WHEN role = 'user' AND next_role = 'assistant'
                             THEN length(text) + length(next_text)
                             ELSE 0 END) AS BIGINT) AS sum_pair_chars
        FROM (
            SELECT conv_id, role, text,
                   LEAD(role) OVER w AS next_role,
                   LEAD(text) OVER w AS next_text
            FROM read_parquet('{shards_glob}')
            WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
        )
        GROUP BY conv_id ORDER BY conv_id
    """


def tool_chain_bigrams(corpus_dir: str) -> pd.DataFrame:
    """Tool-chain mining: corpus-wide counts of consecutive tool-call
    pairs within a conversation (which tool follows which — the
    transition structure of agentic workflows). Non-tool turns are
    dropped BEFORE the exchange, so the bucket shuffle carries only
    tool-call rows; one boundary-masked shift per bucket then a tiny
    |tools|^2 fold."""
    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "tool"]
    )

    def keep_tools(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["tool"], ""))
        return _with_bucket(t)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
        if len(g) < 2:
            return pd.DataFrame({"prev_tool": [], "tool": [], "n": []})
        conv = g["conv_id"].to_numpy()
        tool = g["tool"].to_numpy()
        same = conv[1:] == conv[:-1]
        pairs = pd.DataFrame(
            {"prev_tool": tool[:-1][same], "tool": tool[1:][same]}
        )
        return pairs.groupby(["prev_tool", "tool"], as_index=False).size().rename(
            columns={"size": "n"}
        )

    out = (
        _coalesced(ds.map_batches(keep_tools, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .groupby(["prev_tool", "tool"])
        .aggregate(Sum("n", alias_name="n_chains"))
        .to_pandas()
    )
    out["n_chains"] = out["n_chains"].astype("int64")
    return out.sort_values(["prev_tool", "tool"]).reset_index(drop=True)


def tool_chain_bigrams_sql(shards_glob: str) -> str:
    return f"""
        SELECT prev_tool, tool, COUNT(*) AS n_chains
        FROM (
            SELECT LAG(tool) OVER (PARTITION BY conv_id ORDER BY turn_idx)
                       AS prev_tool,
                   tool
            FROM read_parquet('{shards_glob}')
            WHERE tool <> ''
        )
        WHERE prev_tool IS NOT NULL
        GROUP BY prev_tool, tool
        ORDER BY prev_tool, tool
    """


def tool_latency_quantiles(corpus_dir: str) -> pd.DataFrame:
    """Per-tool latency SLA profile: exact discrete p50/p95 of the
    tool-turn gap (rank floor((n-1)*q), the repo-wide convention) at
    whole-second grain. Latencies quantize to floor seconds, making
    the domain bounded, so the exact distributed form is the same
    frequency fold as role_length_quantiles: per-bucket (tool,
    latency_s, count) partials, driver fold, cumulative-count lookup.
    Gap definition matches tool_latency (previous turn of the same
    conversation)."""
    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role", "tool", "ts"]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
        us = g["ts"].astype("int64").to_numpy()
        if not len(us):
            return pd.DataFrame(
                {
                    "tool": pd.Series([], dtype="object"),
                    "lat_s": pd.Series([], dtype="int64"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        gap = np.empty(len(us), dtype=np.int64)
        gap[0] = -1
        gap[1:] = us[1:] - us[:-1]
        conv = g["conv_id"].to_numpy()
        opening = np.r_[True, conv[1:] != conv[:-1]]
        gap[opening] = -1
        mask = (g["role"].to_numpy() == "tool") & ~opening
        df = pd.DataFrame(
            {"tool": g["tool"].to_numpy()[mask], "lat_s": gap[mask] // 1_000_000}
        )
        return df.groupby(["tool", "lat_s"], sort=False).size().reset_index(name="n")

    parts = (
        _coalesced(ds.map_batches(_with_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
        .groupby(["tool", "lat_s"], as_index=False)["n"]
        .sum()
    )
    rows = []
    for tool, g in parts.groupby("tool"):
        g = g.sort_values("lat_s")
        vals = g["lat_s"].to_numpy()
        cum = g["n"].to_numpy().cumsum()
        n = int(cum[-1])
        qs = {}
        for p in (50, 95):
            rank = (n - 1) * p // 100
            qs[p] = int(vals[np.searchsorted(cum, rank + 1)])
        rows.append((tool, n, qs[50], qs[95]))
    out = pd.DataFrame(rows, columns=["tool", "n_calls", "p50_s", "p95_s"])
    out = out.sort_values("tool").reset_index(drop=True)
    for c in ("n_calls", "p50_s", "p95_s"):
        out[c] = out[c].astype("int64")
    return out


def tool_latency_quantiles_sql(shards_glob: str) -> str:
    return f"""
        WITH l AS (
            SELECT role, tool,
                   (epoch_us(ts) - LAG(epoch_us(ts))
                       OVER (PARTITION BY conv_id ORDER BY turn_idx))
                       // 1000000 AS lat_s
            FROM read_parquet('{shards_glob}')
        ), t AS (
            SELECT tool, lat_s,
                   ROW_NUMBER() OVER (PARTITION BY tool ORDER BY lat_s) AS rn,
                   COUNT(*) OVER (PARTITION BY tool) AS n
            FROM l WHERE role = 'tool' AND lat_s IS NOT NULL
        )
        SELECT tool,
               CAST(MAX(n) AS BIGINT) AS n_calls,
               CAST(MAX(CASE WHEN rn = (n - 1) * 50 // 100 + 1 THEN lat_s END)
                    AS BIGINT) AS p50_s,
               CAST(MAX(CASE WHEN rn = (n - 1) * 95 // 100 + 1 THEN lat_s END)
                    AS BIGINT) AS p95_s
        FROM t GROUP BY tool ORDER BY tool
    """


def payload_error_taxonomy(extract_ds) -> pd.DataFrame:
    """Error-taxonomy report over the flagship pipeline's OUTPUT: per
    (payload_kind, parse_status) the turn count and decoded-byte sum —
    the triage table that tells a 10^12-turn extraction run which
    error class dominates which format. Pure partial fold over the
    output stream; the lattice is |kinds| x |statuses|."""

    def partial(t: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "payload_kind": t["payload_kind"].to_pylist(),
                "parse_status": t["parse_status"].to_pylist(),
                "bytes_decoded": pc.cast(t["bytes_decoded"], pa.int64()).to_numpy(),
            }
        )
        return df.groupby(["payload_kind", "parse_status"], as_index=False).agg(
            n_turns=("bytes_decoded", "size"), sum_bytes=("bytes_decoded", "sum")
        )

    out = (
        extract_ds.map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .groupby(["payload_kind", "parse_status"], as_index=False)[["n_turns", "sum_bytes"]]
        .sum()
        .sort_values(["payload_kind", "parse_status"])
        .reset_index(drop=True)
    )
    for c in ("n_turns", "sum_bytes"):
        out[c] = out[c].astype("int64")
    return out


def payload_error_taxonomy_sql(golden_path: str) -> str:
    return f"""
        SELECT payload_kind, parse_status,
               COUNT(*) AS n_turns,
               CAST(SUM(bytes_decoded) AS BIGINT) AS sum_bytes
        FROM read_parquet('{golden_path}')
        GROUP BY 1, 2 ORDER BY 1, 2
    """


def conv_first_response_latency(corpus_dir: str) -> pd.DataFrame:
    """First-response SLA per conversation: the gap between the first
    user turn and the first assistant turn, in exact microseconds —
    the responsiveness metric a serving dashboard tracks (turn_latency
    is per-turn; this is per-conversation). One bucket shuffle; per
    bucket a vectorized two-min fold."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "role", "ts"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["us"] = g["ts"].astype("int64")
        u = g[g["role"] == "user"].groupby("conv_id")["us"].min()
        a = g[g["role"] == "assistant"].groupby("conv_id")["us"].min()
        j = pd.concat([u.rename("first_user_us"), a.rename("first_assistant_us")], axis=1)
        j = j.dropna().reset_index()
        j["latency_us"] = (j["first_assistant_us"] - j["first_user_us"]).astype("int64")
        return j[["conv_id", "latency_us"]]

    out = (
        _coalesced(ds.map_batches(_with_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
        .sort_values("conv_id")
        .reset_index(drop=True)
    )
    out["latency_us"] = out["latency_us"].astype("int64")
    return out


def conv_first_response_latency_sql(shards_glob: str) -> str:
    return f"""
        SELECT conv_id,
               MIN(CASE WHEN role = 'assistant' THEN epoch_us(ts) END)
               - MIN(CASE WHEN role = 'user' THEN epoch_us(ts) END)
                   AS latency_us
        FROM read_parquet('{shards_glob}')
        GROUP BY conv_id
        HAVING MIN(CASE WHEN role = 'assistant' THEN epoch_us(ts) END) IS NOT NULL
           AND MIN(CASE WHEN role = 'user' THEN epoch_us(ts) END) IS NOT NULL
        ORDER BY conv_id
    """


def assistant_length_by_tool_context(corpus_dir: str) -> pd.DataFrame:
    """Does tool context make answers longer? Assistant turns split by
    whether the immediately preceding turn was a tool result: per
    class, turn count and total characters — the grounding-effect
    panel. Bucket shuffle + one boundary-masked shift."""
    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role", "text"]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
        conv = g["conv_id"].to_numpy()
        role = g["role"].to_numpy()
        chars = g["text"].str.len().to_numpy()
        prev_tool = np.zeros(len(g), dtype=bool)
        if len(g) > 1:
            prev_tool[1:] = (conv[1:] == conv[:-1]) & (role[:-1] == "tool")
        mask = role == "assistant"
        df = pd.DataFrame(
            {"after_tool": prev_tool[mask], "chars": chars[mask]}
        )
        return df.groupby("after_tool", as_index=False).agg(
            n_turns=("chars", "size"), sum_chars=("chars", "sum")
        )

    out = (
        _coalesced(ds.map_batches(_with_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
        .groupby("after_tool", as_index=False)[["n_turns", "sum_chars"]]
        .sum()
        .sort_values("after_tool")
        .reset_index(drop=True)
    )
    out["after_tool"] = out["after_tool"].astype(bool)
    for c in ("n_turns", "sum_chars"):
        out[c] = out[c].astype("int64")
    return out


def assistant_length_by_tool_context_sql(shards_glob: str) -> str:
    return f"""
        SELECT COALESCE(prev_role = 'tool', FALSE) AS after_tool,
               COUNT(*) AS n_turns,
               CAST(SUM(length(text)) AS BIGINT) AS sum_chars
        FROM (
            SELECT role, text,
                   LAG(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
                       AS prev_role
            FROM read_parquet('{shards_glob}')
        )
        WHERE role = 'assistant'
        GROUP BY 1 ORDER BY 1
    """


def context_size_at_turn(corpus_dir: str) -> pd.DataFrame:
    """Context-window pressure curve: at each turn index, across every
    conversation that reaches it, the count and the total CUMULATIVE
    character size of the transcript so far — the curve that decides
    where a context-length budget starts truncating multi-turn agent
    sessions (the 'how big is the prompt by turn k' question).

    Distributed plan: per-conversation running sums need the turns of a
    conversation co-located and ordered, so conversations shard by the
    md5 bucket (one exchange of (bucket, conv_id, turn_idx, n_chars) —
    the text never moves); each bucket sorts locally and folds its
    (turn_idx, n, sum_cum) partial; the final exchange is a
    max-turn-count-row groupby."""
    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "text"]
    )

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": _bucket_of(t["conv_id"]),
                "conv_id": t["conv_id"],
                "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        cum = g.groupby("conv_id")["n_chars"].cumsum().to_numpy()
        out = pd.DataFrame({"turn_idx": g["turn_idx"].to_numpy(), "cum": cum})
        p = out.groupby("turn_idx", as_index=False).agg(
            n_convs=("cum", "size"), sum_cum_chars=("cum", "sum")
        )
        p["n_convs"] = p["n_convs"].astype("int64")
        p["sum_cum_chars"] = p["sum_cum_chars"].astype("int64")
        return p

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(derive, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .groupby("turn_idx")
        .aggregate(
            Sum("n_convs", alias_name="n_convs"),
            Sum("sum_cum_chars", alias_name="sum_cum_chars"),
        )
        .to_pandas()
        .sort_values("turn_idx")
        .reset_index(drop=True)
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def context_size_at_turn_sql(shards_glob: str) -> str:
    return f"""
        WITH c AS (
            SELECT turn_idx,
                   SUM(length(text)) OVER (PARTITION BY conv_id
                                           ORDER BY turn_idx) AS cum
            FROM read_parquet('{shards_glob}')
        )
        SELECT CAST(turn_idx AS BIGINT) AS turn_idx,
               CAST(COUNT(*) AS BIGINT) AS n_convs,
               CAST(SUM(cum) AS BIGINT) AS sum_cum_chars
        FROM c GROUP BY 1 ORDER BY 1
    """


def role_run_lengths(corpus_dir: str) -> pd.DataFrame:
    """Gaps-and-islands over the role sequence: the histogram of
    consecutive same-role run lengths per role (how long do user
    monologues / assistant chains / tool bursts run before the floor
    changes) — the turn-taking texture profile that separates chat
    logs from agentic tool-loop traces.

    Distributed plan: same bucket shuffle as role_transitions; each
    bucket finds run boundaries with ONE vectorized mask over the
    (conv, turn)-sorted frame and emits (role, run_len, partial_n)
    rows; the finalize sums a histogram-sized table."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
        conv = g["conv_id"].to_numpy()
        role = g["role"].to_numpy()
        new_run = np.r_[True, (conv[1:] != conv[:-1]) | (role[1:] != role[:-1])]
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.r_[starts, len(g)])
        out = pd.DataFrame({"role": role[starts], "run_len": lens.astype("int64")})
        return (
            out.groupby(["role", "run_len"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    out = (
        _coalesced(ds.map_batches(_with_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .groupby(["role", "run_len"])
        .aggregate(Sum("n", alias_name="n_runs"))
        .to_pandas()
        .sort_values(["role", "run_len"])
        .reset_index(drop=True)
    )
    for c in ("run_len", "n_runs"):
        out[c] = out[c].astype("int64")
    return out


def role_run_lengths_sql(shards_glob: str) -> str:
    return f"""
        WITH runs AS (
            SELECT conv_id, role,
                   ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY turn_idx)
                   - ROW_NUMBER() OVER (PARTITION BY conv_id, role
                                        ORDER BY turn_idx) AS grp
            FROM read_parquet('{shards_glob}')
        ), islands AS (
            SELECT role, COUNT(*) AS run_len
            FROM runs GROUP BY conv_id, role, grp
        )
        SELECT role, CAST(run_len AS BIGINT) AS run_len,
               CAST(COUNT(*) AS BIGINT) AS n_runs
        FROM islands GROUP BY 1, 2 ORDER BY 1, 2
    """


def conv_abandonment(corpus_dir: str) -> pd.DataFrame:
    """Abandonment audit: which role holds the floor when a
    conversation ENDS — ending on 'user' means an unanswered prompt
    (abandonment / truncation), ending on 'tool' means a dangling
    call; the distribution is a transcript-corpus health gate before
    SFT-pair mining. Output: (last_role, n_convs).

    Distributed plan: same bucket shuffle as role_transitions; each
    bucket takes the (conv, turn)-sorted last row per conversation
    with one boundary mask and emits role partial counts."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
        conv = g["conv_id"].to_numpy()
        last = np.r_[conv[1:] != conv[:-1], True]
        out = pd.DataFrame({"last_role": g["role"].to_numpy()[last]})
        return out.groupby("last_role", as_index=False).size().rename(columns={"size": "n"})

    out = (
        _coalesced(ds.map_batches(_with_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .groupby("last_role")
        .aggregate(Sum("n", alias_name="n_convs"))
        .to_pandas()
        .sort_values("last_role")
        .reset_index(drop=True)
    )
    out["n_convs"] = out["n_convs"].astype("int64")
    return out


def conv_abandonment_sql(shards_glob: str) -> str:
    return f"""
        WITH last AS (
            SELECT conv_id, arg_max(role, turn_idx) AS last_role
            FROM read_parquet('{shards_glob}')
            GROUP BY 1
        )
        SELECT last_role, CAST(COUNT(*) AS BIGINT) AS n_convs
        FROM last GROUP BY 1 ORDER BY 1
    """


def assistant_drift(corpus_dir: str) -> pd.DataFrame:
    """Response-length drift: per conversation, the character length of
    the FIRST vs LAST assistant turn and their difference — does the
    assistant get terser or more verbose as a conversation ages, the
    style-drift signal SFT curations balance for. One row per
    conversation with >= 1 assistant turn.

    Distributed plan: bucket shuffle; inside each bucket the
    (conv, turn)-sorted assistant rows yield first/last via two
    boundary masks — no window dispatch."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role", "text"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["role"] == "assistant"]
        if not len(g):
            return pd.DataFrame(
                {
                    "conv_id": pd.Series([], dtype="str"),
                    "first_len": pd.Series([], dtype="int64"),
                    "last_len": pd.Series([], dtype="int64"),
                    "drift": pd.Series([], dtype="int64"),
                }
            )
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
        conv = g["conv_id"].to_numpy()
        ln = g["text"].str.len().to_numpy().astype("int64")
        first = np.r_[True, conv[1:] != conv[:-1]]
        last = np.r_[first[1:], True]
        return pd.DataFrame(
            {
                "conv_id": conv[first],
                "first_len": ln[first],
                "last_len": ln[last],
                "drift": ln[last] - ln[first],
            }
        )

    out = (
        _coalesced(ds.map_batches(_with_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
        .sort_values("conv_id")
        .reset_index(drop=True)
    )
    for c in ("first_len", "last_len", "drift"):
        out[c] = out[c].astype("int64")
    return out


def assistant_drift_sql(shards_glob: str) -> str:
    return f"""
        SELECT conv_id,
               CAST(arg_min(length(text), turn_idx) AS BIGINT) AS first_len,
               CAST(arg_max(length(text), turn_idx) AS BIGINT) AS last_len,
               CAST(arg_max(length(text), turn_idx)
                    - arg_min(length(text), turn_idx) AS BIGINT) AS drift
        FROM read_parquet('{shards_glob}')
        WHERE role = 'assistant'
        GROUP BY conv_id ORDER BY conv_id
    """


def conv_tool_diversity(corpus_dir: str) -> pd.DataFrame:
    """Tool-diversity histogram: how many DISTINCT tools does a
    conversation touch (0 for pure chat) — separates single-tool
    lookups from multi-tool agentic sessions. Output:
    (n_distinct_tools, n_convs).

    Distributed plan: per-batch distinct (conv, tool) pairs shrink the
    exchange; the bucket shuffle finishes the distinct + per-conv
    nunique vectorized; all-conv coverage (including tool-less ones)
    comes from a distinct-conv count folded in the same pass."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "tool"])

    def pairs(t: pa.Table) -> pa.Table:
        d = (
            pa.table({"conv_id": t["conv_id"], "tool": t["tool"]})
            .group_by(["conv_id", "tool"])
            .aggregate([])
        )
        return _with_bucket(d)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["conv_id", "tool"])
        has_tool = g[g["tool"].notna() & (g["tool"] != "")]
        n_tools = has_tool.groupby("conv_id")["tool"].nunique()
        all_convs = pd.Index(g["conv_id"].unique())
        counts = n_tools.reindex(all_convs, fill_value=0)
        hist = counts.value_counts().sort_index()
        return pd.DataFrame(
            {"n_distinct_tools": hist.index.astype("int64"), "n": hist.to_numpy()}
        )

    out = (
        _coalesced(ds.map_batches(pairs, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .groupby("n_distinct_tools")
        .aggregate(Sum("n", alias_name="n_convs"))
        .to_pandas()
        .sort_values("n_distinct_tools")
        .reset_index(drop=True)
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def conv_tool_diversity_sql(shards_glob: str) -> str:
    return f"""
        WITH per_conv AS (
            SELECT conv_id,
                   COUNT(DISTINCT CASE WHEN tool IS NOT NULL AND tool <> ''
                                       THEN tool END) AS n_distinct_tools
            FROM read_parquet('{shards_glob}')
            GROUP BY 1
        )
        SELECT CAST(n_distinct_tools AS BIGINT) AS n_distinct_tools,
               CAST(COUNT(*) AS BIGINT) AS n_convs
        FROM per_conv GROUP BY 1 ORDER BY 1
    """


def _levenshtein(a: str, b: str) -> int:
    """Vectorized-row edit distance over UTF-8 BYTES (DuckDB's
    levenshtein() is byte-oriented, so the oracle and the engine must
    agree on the unit): the insertion relax cur[j] = min(cur[j],
    cur[j-1]+1) is a prefix-min of cur[j]-j, so each DP row is three
    numpy ops — no per-cell Python loop."""
    ab = a.encode("utf-8")
    bb = b.encode("utf-8")
    if not ab:
        return len(bb)
    if not bb:
        return len(ab)
    bv = np.frombuffer(bb, dtype=np.uint8)
    prev = np.arange(len(bv) + 1, dtype=np.int64)
    idx = np.arange(len(bv) + 1, dtype=np.int64)
    for ch in ab:
        cost = (bv != ch).astype(np.int64)
        cur = np.empty_like(prev)
        cur[0] = prev[0] + 1
        cur[1:] = np.minimum(prev[1:] + 1, prev[:-1] + cost)
        cur = np.minimum.accumulate(cur - idx) + idx
        prev = cur
    return int(prev[-1])


def conv_editdist_drift(corpus_dir: str) -> pd.DataFrame:
    """Self-similarity drift of the assistant voice: per conversation,
    the Levenshtein distance between each assistant turn and the
    PREVIOUS assistant turn — the canned-response / template-collapse
    detector (near-zero distances mean the model is repeating itself).
    Output per conversation with >= 2 assistant turns: pair count, sum
    and max edit distance.  DuckDB ships levenshtein(), so the LAG
    window twin is exact.

    Distributed plan: conv-keyed groupby; the O(len^2) DP runs only
    between ADJACENT assistant turns inside one conversation (the
    per-entity quadratic bound again), with each DP row vectorized."""
    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role", "text"]
    )

    def prep(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["role"], "assistant")).drop_columns(["role"])

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("turn_idx")
        texts = g["text"].tolist()
        if len(texts) < 2:
            return pd.DataFrame(
                {"conv_id": pd.Series([], dtype="object")}
            ).reindex(columns=["conv_id", "n_pairs", "sum_editdist", "max_editdist"])
        dists = [_levenshtein(a, b) for a, b in zip(texts, texts[1:])]
        return pd.DataFrame(
            {
                "conv_id": [g["conv_id"].iloc[0]],
                "n_pairs": [len(dists)],
                "sum_editdist": [int(sum(dists))],
                "max_editdist": [int(max(dists))],
            }
        )

    out = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("conv_id")
        .map_groups(fold, batch_format="pandas")
        .to_pandas()
        .sort_values("conv_id")
        .reset_index(drop=True)
    )
    for c in ("n_pairs", "sum_editdist", "max_editdist"):
        out[c] = out[c].astype("int64")
    return out


def conv_editdist_drift_sql(shards_glob: str) -> str:
    return f"""
        WITH a AS (
            SELECT conv_id, turn_idx, text
            FROM read_parquet('{shards_glob}') WHERE role = 'assistant'
        ),
        p AS (
            SELECT conv_id, text,
                   LAG(text) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev
            FROM a
        )
        SELECT conv_id,
               CAST(COUNT(*) AS BIGINT) AS n_pairs,
               CAST(SUM(levenshtein(text, prev)) AS BIGINT) AS sum_editdist,
               CAST(MAX(levenshtein(text, prev)) AS BIGINT) AS max_editdist
        FROM p WHERE prev IS NOT NULL
        GROUP BY conv_id ORDER BY conv_id
    """


def conv_alternation_rate(corpus_dir: str) -> pd.DataFrame:
    """Turn-taking structure per conversation: of the adjacent turn
    pairs, how many switch role — low switch counts flag monologue or
    tool-loop transcripts that SFT curations usually drop.  Output per
    conversation: n_adjacent_pairs, n_role_switches.

    Distributed plan: conv-keyed groupby; one vectorized shift-compare
    inside each sorted group."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role"])

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("turn_idx")
        r = g["role"].to_numpy()
        return pd.DataFrame(
            {
                "conv_id": [g["conv_id"].iloc[0]],
                "n_adjacent_pairs": [max(len(r) - 1, 0)],
                "n_role_switches": [int((r[1:] != r[:-1]).sum())],
            }
        )

    out = (
        ds.groupby("conv_id")
        .map_groups(fold, batch_format="pandas")
        .to_pandas()
        .sort_values("conv_id")
        .reset_index(drop=True)
    )
    for c in ("n_adjacent_pairs", "n_role_switches"):
        out[c] = out[c].astype("int64")
    return out


def conv_alternation_rate_sql(shards_glob: str) -> str:
    return f"""
        WITH p AS (
            SELECT conv_id, role,
                   LAG(role) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev
            FROM read_parquet('{shards_glob}')
        )
        SELECT conv_id,
               CAST(COUNT(prev) AS BIGINT) AS n_adjacent_pairs,
               CAST(COALESCE(SUM(CASE WHEN role <> prev THEN 1 ELSE 0 END), 0)
                    AS BIGINT) AS n_role_switches
        FROM p GROUP BY conv_id ORDER BY conv_id
    """


def conv_prefix_forks(corpus_dir: str, k: int = 3) -> pd.DataFrame:
    """Forked-conversation detection: conversations that share the
    exact same first-k turns (prefix fingerprint = md5 over the
    US-joined per-turn md5s of turn_idx < k) are branches of one
    session — the retry/regenerate pattern an agent-transcript corpus
    is full of.  Per shared prefix (n_convs >= 2) we report the group
    size, the representative (min conv_id) and the branching factor:
    how many DISTINCT turn-k continuations the group has.

    Distributed plan: same digest-in-map / shuffle-32-byte-hashes
    shape as conv_fingerprints — text never crosses an exchange; the
    fork merge runs on a second prefix-fingerprint bucket key."""
    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "text"]
    ).filter(expr=f"turn_idx <= {k}")

    def digest_turns(t: pa.Table) -> pa.Table:
        td = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in t["text"].to_pylist()]
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "turn_md5": pa.array(td, pa.string()),
            }
        )
        return _with_bucket(out)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable")
        pre = g[g["turn_idx"] < k]
        agg = pre.groupby("conv_id", sort=False)["turn_md5"].agg(_SEP.join)
        fps = [hashlib.md5(b.encode("utf-8")).hexdigest() for b in agg]
        nxt = g[g["turn_idx"] == k].set_index("conv_id")["turn_md5"]
        out = pd.DataFrame({"fingerprint": fps, "conv_id": agg.index})
        out["next_md5"] = out["conv_id"].map(nxt)
        out["fp_bucket"] = [int(f[:8], 16) % _N_BUCKETS for f in fps]
        return out

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        m = (
            g.groupby("fingerprint", sort=False)
            .agg(
                n_convs=("conv_id", "size"),
                first_conv=("conv_id", "min"),
                n_branches=("next_md5", "nunique"),
            )
            .reset_index()
        )
        m = m[m["n_convs"] >= 2]
        m["n_convs"] = m["n_convs"].astype("int64")
        m["n_branches"] = m["n_branches"].astype("int64")
        return m[["fingerprint", "n_convs", "first_conv", "n_branches"]]

    out = (
        _coalesced(ds.map_batches(digest_turns, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .groupby("fp_bucket")
        .map_groups(merge_bucket, batch_format="pandas")
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame(
            {
                "fingerprint": pd.Series([], dtype="object"),
                "n_convs": pd.Series([], dtype="int64"),
                "first_conv": pd.Series([], dtype="object"),
                "n_branches": pd.Series([], dtype="int64"),
            }
        )
    return out.sort_values("fingerprint").reset_index(drop=True)


def conv_prefix_forks_sql(shards_glob: str, k: int = 3) -> str:
    return f"""
        WITH pre AS (
            SELECT conv_id,
                   md5(string_agg(md5(text), chr(31) ORDER BY turn_idx)
                       FILTER (WHERE turn_idx < {k})) AS fingerprint,
                   MAX(CASE WHEN turn_idx = {k} THEN md5(text) END) AS next_md5
            FROM read_parquet('{shards_glob}')
            WHERE turn_idx <= {k}
            GROUP BY conv_id
        )
        SELECT fingerprint, CAST(COUNT(*) AS BIGINT) AS n_convs,
               MIN(conv_id) AS first_conv,
               CAST(COUNT(DISTINCT next_md5) AS BIGINT) AS n_branches
        FROM pre
        GROUP BY fingerprint
        HAVING COUNT(*) >= 2
        ORDER BY fingerprint
    """


def turn_encoding_audit(corpus_dir: str) -> pd.DataFrame:
    """Encoding-hygiene audit over raw transcript turns: per
    conversation, how many non-ASCII codepoints and (non-whitespace)
    control codepoints its turns carry, plus the largest turn in bytes
    — the pre-extraction triage that separates binary-payload turns
    from clean prose and catches mojibake before it poisons training
    text.  Counts are per-codepoint integers, identical to the SQL
    twin's length(regexp_replace(...)) arithmetic.

    Distributed plan: per-turn counting is vectorized inside
    map_batches; the rollup is the module's standard coarse-bucket
    shuffle carrying only integer partials."""
    import re

    non_ascii = re.compile(r"[^\x00-\x7f]")
    control = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f]")

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "text"])

    def per_turn(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        na = [len(non_ascii.findall(s)) for s in texts]
        ctl = [len(control.findall(s)) for s in texts]
        nb = [len(s.encode("utf-8")) for s in texts]
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "na": pa.array(na, pa.int64()),
                "ctl": pa.array(ctl, pa.int64()),
                "nb": pa.array(nb, pa.int64()),
            }
        )
        return _with_bucket(out)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("conv_id", sort=False).agg(
            n_turns=("na", "size"),
            non_ascii_chars=("na", "sum"),
            control_chars=("ctl", "sum"),
            max_turn_bytes=("nb", "max"),
        )
        return agg.reset_index().astype(
            {
                "n_turns": "int64",
                "non_ascii_chars": "int64",
                "control_chars": "int64",
                "max_turn_bytes": "int64",
            }
        )

    out = (
        _coalesced(ds.map_batches(per_turn, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("conv_id").reset_index(drop=True)


def turn_encoding_audit_sql(shards_glob: str) -> str:
    return f"""
        SELECT conv_id,
               CAST(COUNT(*) AS BIGINT) AS n_turns,
               CAST(SUM(length(text)
                        - length(regexp_replace(text, '[^\\x00-\\x7f]', '', 'g')))
                    AS BIGINT) AS non_ascii_chars,
               CAST(SUM(length(text)
                        - length(regexp_replace(text,
                              '[\\x00-\\x08\\x0b\\x0c\\x0e-\\x1f]', '', 'g')))
                    AS BIGINT) AS control_chars,
               CAST(MAX(strlen(text)) AS BIGINT) AS max_turn_bytes
        FROM read_parquet('{shards_glob}')
        GROUP BY conv_id
        ORDER BY conv_id
    """


def payload_sniff_stats(corpus_dir: str) -> pd.DataFrame:
    """Cheap payload-kind sniff over RAW turns (prefix rules only — the
    zero-cost router a pipeline uses to size actor pools BEFORE real
    detection runs): '%PDF-' prefix -> pdf, leading '<' after optional
    whitespace -> markup, else prose.  Per kind: turn count, total and
    max UTF-8 bytes.  The full detector (functions/payload.py) stays
    authoritative for extraction; this is the planning census, and the
    SQL twin applies the identical prefix rules.

    Distributed plan: pure map_batches + one 3-row groupby."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["text"])

    def sniff(t: pa.Table) -> pa.Table:
        import numpy as np

        texts = t["text"].to_pylist()
        kinds, nb = [], []
        for s in texts:
            if s.startswith("%PDF-"):
                kinds.append("pdf")
            elif s.lstrip(" \t\r\n")[:1] == "<":
                kinds.append("markup")
            else:
                kinds.append("prose")
            nb.append(len(s.encode("utf-8")))
        return pa.table(
            {
                "kind": pa.array(kinds, pa.string()),
                "nb": pa.array(nb, pa.int64()),
                "one": pa.array(np.ones(len(texts), np.int64)),
            }
        )

    from ray.data.aggregate import Max, Sum

    out = (
        ds.map_batches(sniff, batch_format="pyarrow")
        .groupby("kind")
        .aggregate(
            Sum("one", alias_name="n_turns"),
            Sum("nb", alias_name="total_bytes"),
            Max("nb", alias_name="max_bytes"),
        )
        .to_pandas()
        .sort_values("kind")
        .reset_index(drop=True)
    )
    return out.astype({"n_turns": "int64", "total_bytes": "int64", "max_bytes": "int64"})


def payload_sniff_stats_sql(shards_glob: str) -> str:
    return f"""
        WITH sniffed AS (
            SELECT CASE
                     WHEN starts_with(text, '%PDF-') THEN 'pdf'
                     WHEN starts_with(ltrim(text, ' ' || chr(9) || chr(13)
                                            || chr(10)), '<') THEN 'markup'
                     ELSE 'prose'
                   END AS kind,
                   strlen(text) AS nb
            FROM read_parquet('{shards_glob}')
        )
        SELECT kind,
               CAST(COUNT(*) AS BIGINT) AS n_turns,
               CAST(SUM(nb) AS BIGINT) AS total_bytes,
               CAST(MAX(nb) AS BIGINT) AS max_bytes
        FROM sniffed
        GROUP BY kind
        ORDER BY kind
    """


def conv_chain_stitch(corpus_dir: str) -> pd.DataFrame:
    """Continuation-chain stitching: conversation B continues A when
    B's FIRST turn repeats A's LAST turn byte-exactly (the
    resume-from-context pattern agent frameworks emit when a session
    is split across conversation ids).  Output is the stitch edge list
    (pred_conv, succ_conv, handoff_md5) — downstream, the chains are
    these edges' transitive closure.

    Distributed plan: per-conv head/tail digests come from one
    conv-bucket shuffle of 32-byte hashes (text never crosses an
    exchange); candidate edges from a second groupby on the handoff
    hash — tails and heads meet only when they can actually stitch."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "text"])

    def digest_turns(t: pa.Table) -> pa.Table:
        td = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in t["text"].to_pylist()]
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "turn_md5": pa.array(td, pa.string()),
            }
        )
        return _with_bucket(out)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable")
        heads = g.groupby("conv_id", sort=False).first()["turn_md5"]
        tails = g.groupby("conv_id", sort=False).last()["turn_md5"]
        out = pd.concat(
            [
                pd.DataFrame({"conv_id": heads.index, "h": heads.values, "is_head": 1}),
                pd.DataFrame({"conv_id": tails.index, "h": tails.values, "is_head": 0}),
            ]
        )
        out["hash_bucket"] = [int(x[:8], 16) % _N_BUCKETS for x in out["h"]]
        return out

    def stitch(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for h, grp in g.groupby("h", sort=False):
            tails = grp[grp["is_head"] == 0]["conv_id"]
            heads = grp[grp["is_head"] == 1]["conv_id"]
            for a in tails:
                for b in heads:
                    if a != b:
                        rows.append({"pred_conv": a, "succ_conv": b, "handoff_md5": h})
        if not rows:
            return pd.DataFrame(
                {
                    "pred_conv": pd.Series([], dtype="object"),
                    "succ_conv": pd.Series([], dtype="object"),
                    "handoff_md5": pd.Series([], dtype="object"),
                }
            )
        return pd.DataFrame(rows)

    out = (
        _coalesced(ds.map_batches(digest_turns, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .groupby("hash_bucket")
        .map_groups(stitch, batch_format="pandas")
        .to_pandas()
    )
    if out.empty:
        return pd.DataFrame(
            {
                "pred_conv": pd.Series([], dtype="object"),
                "succ_conv": pd.Series([], dtype="object"),
                "handoff_md5": pd.Series([], dtype="object"),
            }
        )
    return out.sort_values(["pred_conv", "succ_conv"]).reset_index(drop=True)


def conv_chain_stitch_sql(shards_glob: str) -> str:
    return f"""
        WITH ranked AS (
            SELECT conv_id, text,
                   ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY turn_idx)
                       AS rn_head,
                   ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY turn_idx DESC)
                       AS rn_tail
            FROM read_parquet('{shards_glob}')
        ),
        heads AS (SELECT conv_id, md5(text) AS h FROM ranked WHERE rn_head = 1),
        tails AS (SELECT conv_id, md5(text) AS h FROM ranked WHERE rn_tail = 1)
        SELECT t.conv_id AS pred_conv, hd.conv_id AS succ_conv,
               t.h AS handoff_md5
        FROM tails t JOIN heads hd USING (h)
        WHERE t.conv_id <> hd.conv_id
        ORDER BY pred_conv, succ_conv
    """


def turn_nfc_audit(corpus_dir: str) -> pd.DataFrame:
    """Unicode-normalization hygiene audit: per role, how many turns
    change under NFC normalization (UAX #15) and the total codepoint
    delta — the check a text-cleaning pipeline runs before canonical
    dedup, since un-normalized text makes byte-identical duplicates
    hash apart.  Python's unicodedata and DuckDB's utf8proc both
    implement standard NFC, so counts are exactly comparable.

    Distributed plan: per-turn NFC inside map_batches (string op,
    inherently per-row), integer partials folded through a role-keyed
    groupby — a handful of rows cross the exchange."""
    import unicodedata

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["role", "text"])

    def per_turn(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        drift, delta, nonascii = [], [], []
        for s in texts:
            n = unicodedata.normalize("NFC", s)
            drift.append(1 if n != s else 0)
            delta.append(len(s) - len(n))
            nonascii.append(0 if s.isascii() else 1)
        return pa.table(
            {
                "role": t["role"],
                "one": pa.array([1] * len(texts), pa.int64()),
                "drift": pa.array(drift, pa.int64()),
                "delta": pa.array(delta, pa.int64()),
                "nonascii": pa.array(nonascii, pa.int64()),
            }
        )

    out = (
        ds.map_batches(per_turn, batch_format="pyarrow")
        .groupby("role")
        .aggregate(
            Sum("one", alias_name="n_turns"),
            Sum("drift", alias_name="n_nfc_drift_turns"),
            Sum("delta", alias_name="nfc_delta_chars"),
            Sum("nonascii", alias_name="n_nonascii_turns"),
        )
        .to_pandas()
        .sort_values("role")
        .reset_index(drop=True)
    )
    for c in out.columns:
        if c != "role":
            out[c] = out[c].astype("int64")
    return out


def turn_nfc_audit_sql(shards_glob: str) -> str:
    return f"""
        SELECT role,
               CAST(COUNT(*) AS BIGINT) AS n_turns,
               CAST(COUNT(*) FILTER (WHERE nfc_normalize(text) <> text)
                    AS BIGINT) AS n_nfc_drift_turns,
               CAST(SUM(length(text) - length(nfc_normalize(text)))
                    AS BIGINT) AS nfc_delta_chars,
               CAST(COUNT(*) FILTER (
                        WHERE text <> regexp_replace(text, '[^\\x00-\\x7f]', '', 'g'))
                    AS BIGINT) AS n_nonascii_turns
        FROM read_parquet('{shards_glob}')
        GROUP BY role ORDER BY role
    """


def turn_homoglyph_audit(corpus_dir: str) -> pd.DataFrame:
    """Mixed-script (homoglyph) token audit: per role, how many
    whitespace tokens mix Latin letters with Cyrillic or Greek
    codepoints in the SAME token — the spoofing / bad-OCR signal a
    text cleaner flags before dedup (a Cyrillic 'а' inside a Latin
    word makes byte-level duplicates hash apart and poisons exact
    dedup).  Pure-Latin, pure-Cyrillic and pure-Greek tokens are
    counted but never flagged.

    Distributed plan: per-turn token classification vectorized inside
    map_batches (three compiled character-class regexes), integer
    partials folded through a role-keyed groupby."""
    import re

    latin = re.compile(r"[A-Za-z]")
    cyr = re.compile(r"[Ѐ-ӿ]")
    grk = re.compile(r"[Ͱ-Ͽ]")

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["role", "text"])

    def audit(t: pa.Table) -> pa.Table:
        roles = t["role"].to_pylist()
        n_tok, n_mixed, n_cyr, n_grk = [], [], [], []
        for s in t["text"].to_pylist():
            toks = s.split()
            m = c = g = 0
            for tok in toks:
                has_l = bool(latin.search(tok))
                has_c = bool(cyr.search(tok))
                has_g = bool(grk.search(tok))
                if has_l and (has_c or has_g):
                    m += 1
                elif has_c:
                    c += 1
                elif has_g:
                    g += 1
            n_tok.append(len(toks))
            n_mixed.append(m)
            n_cyr.append(c)
            n_grk.append(g)
        return pa.table(
            {
                "role": pa.array(roles, pa.string()),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_mixed": pa.array(n_mixed, pa.int64()),
                "n_cyrillic": pa.array(n_cyr, pa.int64()),
                "n_greek": pa.array(n_grk, pa.int64()),
            }
        )

    out = (
        ds.map_batches(audit, batch_format="pyarrow")
        .groupby("role")
        .aggregate(
            Sum("n_tokens", alias_name="n_tokens"),
            Sum("n_mixed", alias_name="n_mixed_tokens"),
            Sum("n_cyrillic", alias_name="n_cyrillic_tokens"),
            Sum("n_greek", alias_name="n_greek_tokens"),
        )
        .to_pandas()
        .sort_values("role")
        .reset_index(drop=True)
    )
    for c in out.columns:
        if c != "role":
            out[c] = out[c].astype("int64")
    return out


def turn_homoglyph_audit_sql(shards_glob: str) -> str:
    return rf"""
        WITH tok AS (
            SELECT role,
                   unnest(list_filter(string_split_regex(text, '\s+'),
                                      w -> w <> '')) AS tk
            FROM read_parquet('{shards_glob}')
        ),
        cls AS (
            SELECT role,
                   regexp_matches(tk, '[A-Za-z]') AS has_l,
                   regexp_matches(tk, '[Ѐ-ӿ]') AS has_c,
                   regexp_matches(tk, '[Ͱ-Ͽ]') AS has_g
            FROM tok
        )
        SELECT role,
               CAST(COUNT(*) AS BIGINT) AS n_tokens,
               CAST(COUNT(*) FILTER (WHERE has_l AND (has_c OR has_g))
                    AS BIGINT) AS n_mixed_tokens,
               CAST(COUNT(*) FILTER (WHERE NOT (has_l AND (has_c OR has_g))
                                       AND has_c)
                    AS BIGINT) AS n_cyrillic_tokens,
               CAST(COUNT(*) FILTER (WHERE NOT (has_l AND (has_c OR has_g))
                                       AND NOT has_c AND has_g)
                    AS BIGINT) AS n_greek_tokens
        FROM cls GROUP BY role ORDER BY role
    """


def conv_shard_spread_audit(corpus_dir: str) -> pd.DataFrame:
    """Shard-spread census: how many physical Parquet shards each
    conversation's turns are scattered across — the layout audit that
    quantifies WHY the ordering stage needs a conv-keyed shuffle (a
    conversation living in one shard could sort locally; the fixture
    generator deliberately scatters turns round-robin).  Output is the
    histogram: n_shards_touched -> conversation count, plus turn count.

    Distributed plan: file provenance comes free from the reader
    (include_paths), one conv-bucket shuffle of (conv, path-hash)
    pairs, then a histogram-sized groupby."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id"], include_paths=True)

    def digest(t: pa.Table) -> pa.Table:
        import os as _os

        paths = [_os.path.basename(p) for p in t["path"].to_pylist()]
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "shard": pa.array(paths, pa.string()),
            }
        )
        return _with_bucket(out)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("conv_id", sort=False).agg(
            n_shards=("shard", "nunique"), n_turns=("shard", "size")
        )
        h = agg.groupby("n_shards", as_index=False).agg(
            n_convs=("n_turns", "size"), n_turns=("n_turns", "sum")
        )
        return h

    out = (
        _coalesced(ds.map_batches(digest, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .groupby("n_shards")
        .aggregate(Sum("n_convs", alias_name="n_convs"), Sum("n_turns", alias_name="n_turns"))
        .to_pandas()
        .sort_values("n_shards")
        .reset_index(drop=True)
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def conv_shard_spread_audit_sql(shards_glob: str) -> str:
    return f"""
        WITH per_conv AS (
            SELECT conv_id,
                   COUNT(DISTINCT parse_filename(filename)) AS n_shards,
                   COUNT(*) AS n_turns
            FROM read_parquet('{shards_glob}', filename = true)
            GROUP BY conv_id
        )
        SELECT CAST(n_shards AS BIGINT) AS n_shards,
               CAST(COUNT(*) AS BIGINT) AS n_convs,
               CAST(SUM(n_turns) AS BIGINT) AS n_turns
        FROM per_conv GROUP BY n_shards ORDER BY n_shards
    """


def turn_invisible_chars_audit(corpus_dir: str) -> pd.DataFrame:
    """Invisible-codepoint audit: per role, turns carrying zero-width
    spaces/joiners (U+200B-D), soft hyphens (U+00AD), BOMs (U+FEFF) or
    non-breaking spaces (U+00A0), with per-class codepoint counts —
    the cleaning signal that matters for exact dedup (two visually
    identical turns with different invisible salt hash apart) and for
    tokenizers (ZWSP splits words silently).

    Distributed plan: compiled character-class regex per batch, integer
    partials through a role-keyed groupby."""
    import re

    zero_width = re.compile("[​‌‍﻿]")
    softhyphen = re.compile("­")
    nbsp = re.compile(" ")
    anyinv = re.compile("[​‌‍﻿­ ]")

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["role", "text"])

    def audit(t: pa.Table) -> pa.Table:
        roles = t["role"].to_pylist()
        n_t, zw, sh, nb = [], [], [], []
        for s in t["text"].to_pylist():
            n_t.append(1 if anyinv.search(s) else 0)
            zw.append(len(zero_width.findall(s)))
            sh.append(len(softhyphen.findall(s)))
            nb.append(len(nbsp.findall(s)))
        return pa.table(
            {
                "role": pa.array(roles, pa.string()),
                "one": pa.array([1] * len(roles), pa.int64()),
                "salted": pa.array(n_t, pa.int64()),
                "zw": pa.array(zw, pa.int64()),
                "sh": pa.array(sh, pa.int64()),
                "nb": pa.array(nb, pa.int64()),
            }
        )

    out = (
        ds.map_batches(audit, batch_format="pyarrow")
        .groupby("role")
        .aggregate(
            Sum("one", alias_name="n_turns"),
            Sum("salted", alias_name="n_salted_turns"),
            Sum("zw", alias_name="n_zero_width"),
            Sum("sh", alias_name="n_soft_hyphen"),
            Sum("nb", alias_name="n_nbsp"),
        )
        .to_pandas()
        .sort_values("role")
        .reset_index(drop=True)
    )
    for c in out.columns:
        if c != "role":
            out[c] = out[c].astype("int64")
    return out


def turn_invisible_chars_audit_sql(shards_glob: str) -> str:
    return f"""
        SELECT role,
               CAST(COUNT(*) AS BIGINT) AS n_turns,
               CAST(COUNT(*) FILTER (WHERE regexp_matches(text,
                        '[\\x{{200b}}\\x{{200c}}\\x{{200d}}\\x{{feff}}\\x{{00ad}}\\x{{00a0}}]'))
                    AS BIGINT) AS n_salted_turns,
               CAST(SUM(length(text) - length(regexp_replace(text,
                        '[\\x{{200b}}\\x{{200c}}\\x{{200d}}\\x{{feff}}]', '', 'g')))
                    AS BIGINT) AS n_zero_width,
               CAST(SUM(length(text) - length(regexp_replace(text,
                        '\\x{{00ad}}', '', 'g'))) AS BIGINT) AS n_soft_hyphen,
               CAST(SUM(length(text) - length(regexp_replace(text,
                        '\\x{{00a0}}', '', 'g'))) AS BIGINT) AS n_nbsp
        FROM read_parquet('{shards_glob}')
        GROUP BY role ORDER BY role
    """


def conv_tool_burst(corpus_dir: str, window: int = 10) -> pd.DataFrame:
    """Tool-burst profile: per conversation, the maximum number of
    tool-role turns inside any `window` consecutive turns (turn_idx
    order) — the agent-loop runaway detector (a conversation whose
    10-turn window is all tool calls is a retry loop, not a dialogue).

    Distributed plan: conv-bucket shuffle of (conv, turn_idx, is_tool)
    triples; inside each bucket one vectorized rolling-sum per conv."""
    import numpy as np

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role"])

    def prep(t: pa.Table) -> pa.Table:
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                "is_tool": pc.cast(pc.equal(t["role"], "tool"), pa.int64()),
            }
        )
        return _with_bucket(out)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for conv, gg in g.groupby("conv_id", sort=False):
            gg = gg.sort_values("turn_idx")
            x = gg["is_tool"].to_numpy(np.int64)
            c = np.concatenate(([0], np.cumsum(x)))
            w = min(window, len(x))
            burst = int((c[w:] - c[:-w]).max()) if len(x) >= 1 else 0
            rows.append(
                {
                    "conv_id": conv,
                    "n_turns": len(x),
                    "n_tool_turns": int(x.sum()),
                    "max_burst": burst,
                }
            )
        return pd.DataFrame(rows)

    out = (
        _coalesced(ds.map_batches(prep, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
        .sort_values("conv_id")
        .reset_index(drop=True)
    )
    for c in ("n_turns", "n_tool_turns", "max_burst"):
        out[c] = out[c].astype("int64")
    return out


def conv_tool_burst_sql(shards_glob: str, window: int = 10) -> str:
    return f"""
        WITH a AS (
            SELECT conv_id, turn_idx,
                   CASE WHEN role = 'tool' THEN 1 ELSE 0 END AS is_tool
            FROM read_parquet('{shards_glob}')
        ),
        w AS (
            SELECT conv_id,
                   SUM(is_tool) OVER (PARTITION BY conv_id ORDER BY turn_idx
                                      ROWS BETWEEN {window - 1} PRECEDING
                                               AND CURRENT ROW) AS burst,
                   is_tool
            FROM a
        )
        SELECT conv_id,
               CAST(COUNT(*) AS BIGINT) AS n_turns,
               CAST(SUM(is_tool) AS BIGINT) AS n_tool_turns,
               CAST(MAX(burst) AS BIGINT) AS max_burst
        FROM w GROUP BY conv_id ORDER BY conv_id
    """


def html_tag_census(corpus_dir: str, k: int = 20) -> pd.DataFrame:
    """HTML tag census over browser-tool turns: occurrence count per
    opening-tag name across all HTML payloads (top-k by count, tag
    tie-break) — the markup profile that drives the boilerplate
    stripper's tag weights (pdfrust_ray/html/extract.py scores by tag
    class; this measures what the corpus actually contains).

    Distributed plan: per-batch compiled-regex extraction collapsed to
    Counter partials (tag-vocabulary-sized exchange), one
    groupby(tag) fold, then the bounded sort+limit."""
    import re
    from collections import Counter

    tag_re = re.compile(r"<([a-z][a-z0-9]*)")

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["tool", "text"])

    def partial(t: pa.Table) -> pa.Table:
        mask = pc.equal(t["tool"], "browser")
        c: Counter = Counter()
        for s in t.filter(mask)["text"].to_pylist():
            c.update(tag_re.findall(s))
        tags = sorted(c)
        return pa.table(
            {
                "tag": pa.array(tags, pa.string()),
                "n": pa.array([c[x] for x in tags], pa.int64()),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("tag")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    out = out.sort_values(["n", "tag"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True)[["tag", "n"]]


def html_tag_census_sql(shards_glob: str, k: int = 20) -> str:
    return f"""
        WITH tags AS (
            SELECT unnest(regexp_extract_all(text, '<([a-z][a-z0-9]*)', 1)) AS tag
            FROM read_parquet('{shards_glob}')
            WHERE tool = 'browser'
        )
        SELECT tag, CAST(COUNT(*) AS BIGINT) AS n
        FROM tags GROUP BY tag
        ORDER BY n DESC, tag LIMIT {k}
    """


def html_href_census(corpus_dir: str, k: int = 15) -> pd.DataFrame:
    """Link-target census over browser-tool turns: count per href
    value (top-k, href tie-break) — the outlink profile a crawler's
    frontier dedup reads, and the sanity check that boilerplate
    stripping is removing nav/ad links rather than content links.

    Distributed plan: same Counter-partial shape as html_tag_census —
    the exchange carries distinct hrefs, never documents."""
    import re
    from collections import Counter

    href_re = re.compile(r'href="([^"]*)"')

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["tool", "text"])

    def partial(t: pa.Table) -> pa.Table:
        mask = pc.equal(t["tool"], "browser")
        c: Counter = Counter()
        for s in t.filter(mask)["text"].to_pylist():
            c.update(href_re.findall(s))
        hs = sorted(c)
        return pa.table(
            {
                "href": pa.array(hs, pa.string()),
                "n": pa.array([c[x] for x in hs], pa.int64()),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("href")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    out["n"] = out["n"].astype("int64")
    out = out.sort_values(["n", "href"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True)[["href", "n"]]


def html_href_census_sql(shards_glob: str, k: int = 15) -> str:
    return f"""
        WITH hrefs AS (
            SELECT unnest(regexp_extract_all(text, 'href="([^"]*)"', 1)) AS href
            FROM read_parquet('{shards_glob}')
            WHERE tool = 'browser'
        )
        SELECT href, CAST(COUNT(*) AS BIGINT) AS n
        FROM hrefs GROUP BY href
        ORDER BY n DESC, href LIMIT {k}
    """


def pdf_object_census(corpus_dir: str) -> pd.DataFrame:
    """PDF structure census over pdf_render-tool turns: per /Type name,
    how many dictionary objects of that type the corpus carries, plus
    the indirect-object and stream totals — the payload profile that
    sizes the extraction stage (fonts and content streams dominate
    cost).  Counting runs on the DECODED bytes (payload_bytes handles
    the base85 bridge), which SQL cannot reach — rows-only, pinned by
    a serial python recount in pytest.

    Distributed plan: per-batch decode + compiled-regex counting into
    Counter partials; one bounded groupby(type_name)."""
    import re
    from collections import Counter

    from pdfrust_ray.functions.payload import payload_bytes

    type_re = re.compile(rb"/Type\s*/([A-Za-z0-9]+)")
    obj_re = re.compile(rb"\d+\s+\d+\s+obj")
    stream_re = re.compile(rb"\bstream\b")

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["tool", "text"])

    def partial(t: pa.Table) -> pa.Table:
        mask = pc.equal(t["tool"], "pdf_render")
        c: Counter = Counter()
        for s in t.filter(mask)["text"].to_pylist():
            data = payload_bytes(s)
            for m in type_re.findall(data):
                c[f"type:{m.decode('ascii')}"] += 1
            c["obj"] += len(obj_re.findall(data))
            c["stream"] += len(stream_re.findall(data))
        ks = sorted(c)
        return pa.table(
            {
                "kind": pa.array(ks, pa.string()),
                "n": pa.array([c[x] for x in ks], pa.int64()),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("kind")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values("kind")
        .reset_index(drop=True)
    )
    out["n"] = out["n"].astype("int64")
    return out


def conv_protocol_violations(corpus_dir: str) -> pd.DataFrame:
    """Transcript protocol validation: per conversation, violations of
    the dialogue grammar — (a) consecutive turns with the same role,
    (b) a tool turn not immediately preceded by an assistant turn,
    (c) a first turn that is not user — the schema-level QA an agent
    log ingester runs before trusting turn semantics downstream.

    Distributed plan: conv-bucket shuffle of (conv, idx, role); the
    rule checks are one vectorized shift-compare per conversation."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role"])

    def prep(t: pa.Table) -> pa.Table:
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                "role": t["role"],
            }
        )
        return _with_bucket(out)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for conv, gg in g.groupby("conv_id", sort=False):
            gg = gg.sort_values("turn_idx")
            roles = gg["role"].tolist()
            same = sum(1 for a, b in zip(roles, roles[1:]) if a == b)
            orphan_tool = sum(
                1
                for i, r in enumerate(roles)
                if r == "tool" and (i == 0 or roles[i - 1] != "assistant")
            )
            bad_open = 0 if roles and roles[0] == "user" else 1
            rows.append(
                {
                    "conv_id": conv,
                    "n_turns": len(roles),
                    "n_same_role_runs": same,
                    "n_orphan_tools": orphan_tool,
                    "bad_opening": bad_open,
                }
            )
        return pd.DataFrame(rows)

    out = (
        _coalesced(ds.map_batches(prep, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
        .sort_values("conv_id")
        .reset_index(drop=True)
    )
    for c in ("n_turns", "n_same_role_runs", "n_orphan_tools", "bad_opening"):
        out[c] = out[c].astype("int64")
    return out


def conv_protocol_violations_sql(shards_glob: str) -> str:
    return f"""
        WITH a AS (
            SELECT conv_id, turn_idx, role,
                   LAG(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
                       AS prev_role,
                   ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY turn_idx)
                       AS rn
            FROM read_parquet('{shards_glob}')
        )
        SELECT conv_id,
               CAST(COUNT(*) AS BIGINT) AS n_turns,
               CAST(COUNT(*) FILTER (WHERE role = prev_role) AS BIGINT)
                   AS n_same_role_runs,
               CAST(COUNT(*) FILTER (WHERE role = 'tool'
                        AND (prev_role IS NULL OR prev_role <> 'assistant'))
                    AS BIGINT) AS n_orphan_tools,
               CAST(MAX(CASE WHEN rn = 1 AND role <> 'user' THEN 1 ELSE 0 END)
                    AS BIGINT) AS bad_opening
        FROM a GROUP BY conv_id ORDER BY conv_id
    """


def turn_utf8_inflation(corpus_dir: str) -> pd.DataFrame:
    """UTF-8 inflation census over raw turns: per role, total
    codepoints vs total encoded bytes, the floor-exact
    bytes-per-1000-chars rate, and how many turns contain any
    multibyte codepoint — the storage/tokenizer budget planner's view
    of how much wider than ASCII the corpus really is (run on the
    planted-unicode fixture this is non-vacuous by construction).

    Distributed plan: fully vectorized pyarrow utf8_length /
    binary_length kernels inside map_batches produce per-batch partial
    (role -> sums), bounding the exchange at |roles| rows per block;
    one tiny groupby folds them."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["role", "text"])

    def prep(t: pa.Table) -> pa.Table:
        chars = pc.cast(pc.utf8_length(t["text"]), pa.int64())
        bts = pc.cast(pc.binary_length(t["text"]), pa.int64())
        multi = pc.cast(pc.greater(bts, chars), pa.int64())
        g = (
            pa.table({"role": t["role"], "chars": chars, "bytes": bts, "multi": multi})
            .group_by("role")
            .aggregate(
                [("chars", "sum"), ("bytes", "sum"), ("multi", "sum"), ("multi", "count")]
            )
        )
        return pa.table(
            {
                "role": g["role"],
                "n_turns": pc.cast(g["multi_count"], pa.int64()),
                "total_chars": g["chars_sum"],
                "total_bytes": g["bytes_sum"],
                "n_multibyte_turns": g["multi_sum"],
            }
        )

    out = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("role")
        .aggregate(
            Sum("n_turns", alias_name="n_turns"),
            Sum("total_chars", alias_name="total_chars"),
            Sum("total_bytes", alias_name="total_bytes"),
            Sum("n_multibyte_turns", alias_name="n_multibyte_turns"),
        )
        .to_pandas()
        .sort_values("role")
        .reset_index(drop=True)
    )
    for c in out.columns:
        if c != "role":
            out[c] = out[c].astype("int64")
    out["bytes_per_1k_chars"] = (
        out["total_bytes"] * 1000 // out["total_chars"]
    ).astype("int64")
    return out[
        ["role", "n_turns", "total_chars", "total_bytes", "n_multibyte_turns", "bytes_per_1k_chars"]
    ]


def turn_utf8_inflation_sql(shards_glob: str) -> str:
    return f"""
        SELECT role,
               CAST(COUNT(*) AS BIGINT) AS n_turns,
               CAST(SUM(length(text)) AS BIGINT) AS total_chars,
               CAST(SUM(strlen(text)) AS BIGINT) AS total_bytes,
               CAST(SUM(CASE WHEN strlen(text) > length(text)
                             THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_multibyte_turns,
               CAST(SUM(strlen(text)) * 1000 // SUM(length(text))
                    AS BIGINT) AS bytes_per_1k_chars
        FROM read_parquet('{shards_glob}')
        GROUP BY role ORDER BY role
    """


def conv_position_role_mix(corpus_dir: str) -> pd.DataFrame:
    """Position-normalized role mix: each turn assigned to an early /
    middle / late third of ITS OWN conversation (third = turn_idx * 3
    // n_turns, integer-exact so conversations of any length split
    deterministically), then a (third, role) census with floor-ppm
    share within the third — the dialogue-shape profile showing where
    tool calls cluster and how assistant share grows toward the tail.

    Distributed plan: per-conversation turn counts come from one
    groupby(conv_id) count whose output (one int per conversation)
    broadcasts as an Arrow hash-join side; turns then stream through a
    task-pool probe emitting per-batch (third, role) partials, so the
    exchange is at most 3 x |roles| rows per block."""
    import ray as _ray

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role"])
    counts = (
        ds.groupby("conv_id")
        .aggregate(Count(alias_name="n_turns"))
        .to_arrow_refs()
    )
    counts_tbl = pa.concat_tables(_ray.get(counts)).combine_chunks()
    cref = _ray.put(counts_tbl)

    def probe(t: pa.Table, *, cref) -> pa.Table:
        counts = _ray.get(cref)
        j = t.join(counts, keys="conv_id")
        third = pc.divide(
            pc.multiply(pc.cast(j["turn_idx"], pa.int64()), 3),
            pc.cast(j["n_turns"], pa.int64()),
        )
        g = (
            pa.table({"third": third, "role": j["role"]})
            .group_by(["third", "role"])
            .aggregate([("role", "count")])
        )
        return pa.table(
            {
                "third": pc.cast(g["third"], pa.int64()),
                "role": g["role"],
                "n_turns": pc.cast(g["role_count"], pa.int64()),
            }
        )

    out = (
        ds.map_batches(probe, batch_format="pyarrow", fn_kwargs={"cref": cref})
        .groupby(["third", "role"])
        .aggregate(Sum("n_turns", alias_name="n_turns"))
        .to_pandas()
        .sort_values(["third", "role"])
        .reset_index(drop=True)
    )
    out["third"] = out["third"].astype("int64")
    out["n_turns"] = out["n_turns"].astype("int64")
    third_tot = out.groupby("third")["n_turns"].transform("sum")
    out["third_share_ppm"] = (out["n_turns"] * 1_000_000 // third_tot).astype("int64")
    return out[["third", "role", "n_turns", "third_share_ppm"]]


def conv_position_role_mix_sql(shards_glob: str) -> str:
    return f"""
        WITH t AS (
            SELECT conv_id, turn_idx, role,
                   COUNT(*) OVER (PARTITION BY conv_id) AS n_turns
            FROM read_parquet('{shards_glob}')
        ), c AS (
            SELECT CAST(turn_idx * 3 // n_turns AS BIGINT) AS third,
                   role, CAST(COUNT(*) AS BIGINT) AS n_turns
            FROM t GROUP BY 1, 2
        )
        SELECT third, role, n_turns,
               CAST(n_turns * 1000000 //
                    SUM(n_turns) OVER (PARTITION BY third)
                    AS BIGINT) AS third_share_ppm
        FROM c ORDER BY third, role
    """


def cross_conv_turn_dups(corpus_dir: str, k: int = 40) -> pd.DataFrame:
    """Cross-conversation boilerplate census at TURN granularity: for
    each distinct turn text appearing in >= 2 different conversations,
    how many conversations carry it and how many times it occurs in
    total (top-k by conv spread, then occurrences, then hash) —
    position-agnostic, so it catches shared system prompts, templated
    acks and copy-paste tails that prefix-tree forks miss.

    Distributed plan: turns collapse to (md5, conv_id, count) partials
    inside map_batches — text never crosses the exchange — then one
    groupby folds per-conv counts and a second (already collapsed)
    groupby computes conv spread; only >=2-conv hashes survive to the
    driver top-k."""
    import hashlib as _hl

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "text"])

    def prep(t: pa.Table) -> pa.Table:
        h = [_hl.md5(s.encode("utf-8")).hexdigest() for s in t["text"].to_pylist()]
        g = (
            pa.table({"text_md5": pa.array(h), "conv_id": t["conv_id"]})
            .group_by(["text_md5", "conv_id"])
            .aggregate([("conv_id", "count")])
        )
        return pa.table(
            {
                "text_md5": g["text_md5"],
                "conv_id": g["conv_id"],
                "n": pc.cast(g["conv_id_count"], pa.int64()),
            }
        )

    per_conv = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["text_md5", "conv_id"])
        .aggregate(Sum("n", alias_name="n"))
    )
    spread = (
        per_conv.groupby("text_md5")
        .aggregate(
            Count(alias_name="n_convs"),
            Sum("n", alias_name="n_occurrences"),
        )
        .to_pandas()
    )
    spread = spread[spread["n_convs"] >= 2]
    spread["n_convs"] = spread["n_convs"].astype("int64")
    spread["n_occurrences"] = spread["n_occurrences"].astype("int64")
    out = (
        spread.sort_values(
            ["n_convs", "n_occurrences", "text_md5"], ascending=[False, False, True]
        )
        .head(k)
        .reset_index(drop=True)
    )
    return out[["text_md5", "n_convs", "n_occurrences"]]


def cross_conv_turn_dups_sql(shards_glob: str, k: int = 40) -> str:
    return f"""
        WITH pc AS (
            SELECT md5(text) AS text_md5, conv_id,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM read_parquet('{shards_glob}')
            GROUP BY 1, 2
        ), a AS (
            SELECT text_md5,
                   CAST(COUNT(*) AS BIGINT) AS n_convs,
                   CAST(SUM(n) AS BIGINT) AS n_occurrences
            FROM pc GROUP BY 1
        )
        SELECT text_md5, n_convs, n_occurrences
        FROM a WHERE n_convs >= 2
        ORDER BY n_convs DESC, n_occurrences DESC, text_md5 LIMIT {k}
    """


# the planted confusable set (Cyrillic a/c/o/e, Greek omicron) -> Latin
_CONFUSABLE_MAP = {
    "а": "a",  # Cyrillic a
    "с": "c",  # Cyrillic es
    "о": "o",  # Cyrillic o
    "е": "e",  # Cyrillic ie
    "ο": "o",  # Greek omicron
}


def skeleton_token_collisions(corpus_dir: str) -> pd.DataFrame:
    """Confusable-skeleton collision census: whitespace tokens mapped
    through the Cyrillic/Greek->Latin confusable table; a skeleton with
    >= 2 distinct RAW byte forms is a collision group — exactly the
    duplicates byte-level exact dedup misses (a spoofed 'pаyment' and
    the real 'payment' hash apart but skeleton together). Output per
    colliding skeleton: distinct raw-form count and total token count.

    Distributed plan: tokens collapse to (skeleton, raw, count)
    partials inside map_batches (raw text never crosses whole); one
    groupby folds per-form counts and a second counts forms per
    skeleton — both exchanges carry token-type rows, not occurrences."""
    import re

    ws = re.compile(r"\s+")
    tmap = str.maketrans(_CONFUSABLE_MAP)

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["text"])

    def prep(t: pa.Table) -> pa.Table:
        from collections import Counter

        c = Counter()
        for s in t["text"].to_pylist():
            for tok in ws.split(s):
                if tok:
                    c[(tok.translate(tmap), tok)] += 1
        if not c:
            return pa.table(
                {"skeleton": pa.array([], pa.string()),
                 "raw": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        sk, raw, n = zip(*[(k[0], k[1], v) for k, v in c.items()])
        return pa.table(
            {"skeleton": pa.array(sk), "raw": pa.array(raw),
             "n": pa.array(n, pa.int64())}
        )

    forms = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["skeleton", "raw"])
        .aggregate(Sum("n", alias_name="n"))
    )
    out = (
        forms.groupby("skeleton")
        .aggregate(Count(alias_name="n_forms"), Sum("n", alias_name="n_tokens"))
        .to_pandas()
    )
    out = out[out["n_forms"] >= 2].sort_values("skeleton").reset_index(drop=True)
    out["n_forms"] = out["n_forms"].astype("int64")
    out["n_tokens"] = out["n_tokens"].astype("int64")
    return out[["skeleton", "n_forms", "n_tokens"]]


def skeleton_token_collisions_sql(shards_glob: str) -> str:
    src = "".join(_CONFUSABLE_MAP.keys())
    dst = "".join(_CONFUSABLE_MAP.values())
    return f"""
        WITH tok AS (
            SELECT UNNEST(string_split_regex(text, '\\s+')) AS raw
            FROM read_parquet('{shards_glob}')
        ), t AS (
            SELECT translate(raw, '{src}', '{dst}') AS skeleton, raw
            FROM tok WHERE raw <> ''
        ), f AS (
            SELECT skeleton, raw, CAST(COUNT(*) AS BIGINT) AS n
            FROM t GROUP BY 1, 2
        )
        SELECT skeleton,
               CAST(COUNT(*) AS BIGINT) AS n_forms,
               CAST(SUM(n) AS BIGINT) AS n_tokens
        FROM f GROUP BY skeleton HAVING COUNT(*) >= 2
        ORDER BY skeleton
    """


def reply_length_by_prompt_decile(corpus_dir: str) -> pd.DataFrame:
    """Conditional response-length table: for every user-turn ->
    next-assistant-turn adjacency, bucket the USER prompt length into
    floor percent-rank deciles (decile = #shorter-prompts * 10 //
    n_pairs — explicit formula, not NTILE, so both sides agree on
    ties) and report per decile: pair count, floor-average prompt and
    reply lengths — does a longer prompt actually buy a longer reply?

    Distributed plan: adjacency extraction is per-conversation
    (groupby(conv_id), vectorized); pairs collapse to a per-prompt-
    length histogram with reply-length sums (lengths are bounded small
    ints, so the fold is tiny) and the decile arithmetic runs on that
    folded histogram driver-side — raw pairs never sort globally."""
    import numpy as np

    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role", "text"]
    )

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("turn_idx", kind="stable")
        roles = df["role"].to_numpy()
        lens = df["text"].str.len().to_numpy().astype("int64")
        idx = np.flatnonzero(
            (roles[:-1] == "user") & (roles[1:] == "assistant")
        )
        if len(idx) == 0:
            return pd.DataFrame(
                {"prompt_len": pd.Series([], dtype="int64"),
                 "n": pd.Series([], dtype="int64"),
                 "reply_sum": pd.Series([], dtype="int64")}
            )
        g = pd.DataFrame({"prompt_len": lens[idx], "reply": lens[idx + 1]})
        a = g.groupby("prompt_len").agg(n=("reply", "size"), reply_sum=("reply", "sum"))
        return a.reset_index().astype("int64")

    hist = (
        ds.groupby("conv_id")
        .map_groups(pairs, batch_format="pandas")
        .groupby("prompt_len")
        .aggregate(Sum("n", alias_name="n"), Sum("reply_sum", alias_name="reply_sum"))
        .to_pandas()
        .sort_values("prompt_len")
        .reset_index(drop=True)
    )
    n_total = int(hist["n"].sum())
    below = hist["n"].cumsum().shift(fill_value=0).to_numpy()
    hist["decile"] = (below * 10 // n_total).astype("int64")
    hist["prompt_sum"] = hist["prompt_len"] * hist["n"]
    out = (
        hist.groupby("decile")
        .agg(
            n_pairs=("n", "sum"),
            prompt_sum=("prompt_sum", "sum"),
            reply_sum=("reply_sum", "sum"),
        )
        .reset_index()
    )
    out["avg_prompt_len"] = (out["prompt_sum"] // out["n_pairs"]).astype("int64")
    out["avg_reply_len"] = (out["reply_sum"] // out["n_pairs"]).astype("int64")
    out["n_pairs"] = out["n_pairs"].astype("int64")
    out["decile"] = out["decile"].astype("int64")
    return out.sort_values("decile").reset_index(drop=True)[
        ["decile", "n_pairs", "avg_prompt_len", "avg_reply_len"]
    ]


def reply_length_by_prompt_decile_sql(shards_glob: str) -> str:
    return f"""
        WITH t AS (
            SELECT conv_id, turn_idx, role, length(text) AS len,
                   LEAD(role) OVER w AS nrole,
                   LEAD(length(text)) OVER w AS nlen
            FROM read_parquet('{shards_glob}')
            WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
        ), p AS (
            SELECT len AS prompt_len, nlen AS reply
            FROM t WHERE role = 'user' AND nrole = 'assistant'
        ), d AS (
            SELECT prompt_len, reply,
                   (SELECT COUNT(*) FROM p p2
                    WHERE p2.prompt_len < p.prompt_len) * 10
                       // (SELECT COUNT(*) FROM p) AS decile
            FROM p
        )
        SELECT CAST(decile AS BIGINT) AS decile,
               CAST(COUNT(*) AS BIGINT) AS n_pairs,
               CAST(SUM(prompt_len) // COUNT(*) AS BIGINT)
                   AS avg_prompt_len,
               CAST(SUM(reply) // COUNT(*) AS BIGINT) AS avg_reply_len
        FROM d GROUP BY decile ORDER BY decile
    """


def conv_shape_census(corpus_dir: str, k: int = 25) -> pd.DataFrame:
    """Dialogue-shape census: each conversation reduces to its role
    sequence signature (first letter per turn in turn_idx order, e.g.
    'uauat' = user/assistant/user/assistant/tool) and the census
    counts conversations per shape (top-k by count, shape tie-break) —
    the corpus-composition view that shows whether the data is chat,
    agent loops, or monologues before any text is read.

    Distributed plan: one groupby(conv_id) builds signatures (tiny
    output per group); a second groupby folds the shape census."""
    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role"])

    def sig(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("turn_idx", kind="stable")
        return pd.DataFrame(
            {"shape": ["".join(r[0] for r in df["role"])], "n": [1]}
        )

    out = (
        ds.groupby("conv_id")
        .map_groups(sig, batch_format="pandas")
        .groupby("shape")
        .aggregate(Sum("n", alias_name="n_convs"))
        .to_pandas()
    )
    out["n_convs"] = out["n_convs"].astype("int64")
    out = (
        out.sort_values(["n_convs", "shape"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
    return out[["shape", "n_convs"]]


def conv_shape_census_sql(shards_glob: str, k: int = 25) -> str:
    return f"""
        WITH s AS (
            SELECT conv_id,
                   string_agg(substr(role, 1, 1), '' ORDER BY turn_idx)
                       AS shape
            FROM read_parquet('{shards_glob}')
            GROUP BY conv_id
        )
        SELECT shape, CAST(COUNT(*) AS BIGINT) AS n_convs
        FROM s GROUP BY shape
        ORDER BY n_convs DESC, shape LIMIT {k}
    """


_MOTIFS = (
    ("uat", "u.*a.*t"),      # user -> assistant -> tool somewhere
    ("uta", "u.*t.*a"),      # tool result flows back to assistant
    ("aa", "a.*a"),          # two assistant turns (multi-reply)
    ("tt", "t.*t"),          # two tool calls
    ("tat", "t.*a.*t"),      # tool -> assistant -> tool loop
)


def conv_motif_census(corpus_dir: str) -> pd.DataFrame:
    """Subsequence-motif census over dialogue shapes: for each motif
    (an IN-ORDER but not necessarily adjacent role pattern, e.g.
    'u.*a.*t' = the agent eventually called a tool after replying),
    how many conversations contain it — the agent-behavior prevalence
    table that adjacency bigrams (role_transitions) cannot see.
    Matching is the same RE2 regex on both sides over the role-initial
    shape string.

    Distributed plan: one groupby(conv_id) builds shape signatures;
    motif matching is vectorized regex over the |convs|-row signature
    table; the census folds to |motifs| rows."""
    import re as _re

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role"])

    def sig(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("turn_idx", kind="stable")
        return pd.DataFrame({"shape": ["".join(r[0] for r in df["role"])]})

    shapes = (
        ds.groupby("conv_id")
        .map_groups(sig, batch_format="pandas")
    )

    def match(t: pa.Table) -> pa.Table:
        names, ns = [], []
        shapes_list = t["shape"].to_pylist()
        for name, pat in _MOTIFS:
            rx = _re.compile(pat)
            names.append(name)
            ns.append(sum(1 for s in shapes_list if rx.search(s)))
        return pa.table(
            {"motif": pa.array(names), "n_convs": pa.array(ns, pa.int64())}
        )

    out = (
        shapes.map_batches(match, batch_format="pyarrow")
        .groupby("motif")
        .aggregate(Sum("n_convs", alias_name="n_convs"))
        .to_pandas()
        .sort_values("motif")
        .reset_index(drop=True)
    )
    out["n_convs"] = out["n_convs"].astype("int64")
    return out[["motif", "n_convs"]]


def conv_motif_census_sql(shards_glob: str) -> str:
    cases = "\n".join(
        f"""
        SELECT '{name}' AS motif,
               CAST(COUNT(*) FILTER (
                   WHERE regexp_matches(shape, '{pat}')) AS BIGINT)
                   AS n_convs
        FROM s"""
        + (" UNION ALL" if i < len(_MOTIFS) - 1 else "")
        for i, (name, pat) in enumerate(_MOTIFS)
    )
    return f"""
        WITH s AS (
            SELECT conv_id,
                   string_agg(substr(role, 1, 1), '' ORDER BY turn_idx)
                       AS shape
            FROM read_parquet('{shards_glob}')
            GROUP BY conv_id
        )
        SELECT * FROM ({cases}) ORDER BY motif
    """


def turn_format_census(corpus_dir: str) -> pd.DataFrame:
    """Turn-format composition census: every turn classified by a
    deterministic priority cascade — 'code' (contains a ``` fence),
    'list' (a line starting with '- '), 'question' (contains '?'),
    else 'prose' — per (role, format): count and floor-ppm share
    within the role. The SFT-mix view: how much of the assistant
    output is code vs lists vs prose, and how interrogative users are.
    Substring semantics are identical on both sides (no regex).

    Distributed plan: vectorized match_substring kernels per batch;
    |roles x 4| partials fold once."""
    import numpy as np

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["role", "text"])

    def prep(t: pa.Table) -> pa.Table:
        txt = t["text"]
        has_code = pc.match_substring(txt, "```").to_numpy(zero_copy_only=False)
        starts_list = pc.starts_with(txt, "- ").to_numpy(zero_copy_only=False)
        has_list = (
            pc.match_substring(txt, "\n- ").to_numpy(zero_copy_only=False)
            | starts_list
        )
        has_q = pc.match_substring(txt, "?").to_numpy(zero_copy_only=False)
        fmt = np.where(
            has_code, "code", np.where(has_list, "list", np.where(has_q, "question", "prose"))
        )
        g = (
            pa.table({"role": t["role"], "format": pa.array(fmt.tolist())})
            .group_by(["role", "format"])
            .aggregate([("format", "count")])
        )
        return pa.table(
            {
                "role": g["role"],
                "format": g["format"],
                "n": pc.cast(g["format_count"], pa.int64()),
            }
        )

    out = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["role", "format"])
        .aggregate(Sum("n", alias_name="n_turns"))
        .to_pandas()
        .sort_values(["role", "format"])
        .reset_index(drop=True)
    )
    out["n_turns"] = out["n_turns"].astype("int64")
    tot = out.groupby("role")["n_turns"].transform("sum")
    out["role_share_ppm"] = (out["n_turns"] * 1_000_000 // tot).astype("int64")
    return out[["role", "format", "n_turns", "role_share_ppm"]]


def turn_format_census_sql(shards_glob: str) -> str:
    return f"""
        WITH c AS (
            SELECT role,
                   CASE WHEN contains(text, '```') THEN 'code'
                        WHEN contains(text, chr(10) || '- ')
                             OR starts_with(text, '- ') THEN 'list'
                        WHEN contains(text, '?') THEN 'question'
                        ELSE 'prose' END AS format,
                   CAST(COUNT(*) AS BIGINT) AS n_turns
            FROM read_parquet('{shards_glob}')
            GROUP BY 1, 2
        )
        SELECT role, format, n_turns,
               CAST(n_turns * 1000000 //
                    SUM(n_turns) OVER (PARTITION BY role) AS BIGINT)
                   AS role_share_ppm
        FROM c ORDER BY role, format
    """


def conv_prefix_echo(corpus_dir: str) -> pd.DataFrame:
    """Context-echo census: per conversation, how many token
    occurrences repeat something an EARLIER turn already said — the
    signal for context-stuffing / copy-down behavior in agent
    transcripts (high echo ratio = turns restating the prefix; the
    repetition screen run before SFT sampling).  A token occurrence in
    turn t is an echo iff the same token appears in some turn with
    smaller turn_idx; duplicates inside the first turn are NOT echoes.
    Tokens split on single spaces, empties dropped (string_split
    twin).  Pure counts.

    Distributed plan: one conv-keyed bucket shuffle; per bucket one
    explode + groupby-transform(min) — the exchange carries turn text
    once, partials are conv-sized."""
    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "text"]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # Token accounting runs on PYTHON dicts, not pandas
        # factorize/nunique: pandas' string hash table truncates at
        # embedded NUL bytes, silently merging distinct \x00-bearing
        # PDF-payload tokens (observed 189 vs 190 distinct).  Python
        # str hashing is NUL-exact.  conv_id keys are clean, so the
        # outer groupby is safe.
        rows = []
        for conv_id, sub in g.groupby("conv_id", sort=False):
            first: dict[str, int] = {}
            total = 0
            pairs = []
            for turn, text in zip(sub["turn_idx"], sub["text"]):
                turn = int(turn)
                for tok in text.split(" "):
                    if not tok:
                        continue
                    total += 1
                    pairs.append((tok, turn))
                    prev = first.get(tok)
                    if prev is None or turn < prev:
                        first[tok] = turn
            echo = sum(1 for tok, turn in pairs if turn > first[tok])
            rows.append(
                {
                    "conv_id": conv_id,
                    "n_turns": len(sub),
                    "total_tokens": total,
                    "echo_tokens": echo,
                    "distinct_tokens": len(first),
                }
            )
        out = pd.DataFrame(rows)
        for c in ("n_turns", "total_tokens", "echo_tokens", "distinct_tokens"):
            out[c] = out[c].astype("int64")
        return out

    out = (
        _coalesced(ds.map_batches(_with_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("conv_id").reset_index(drop=True)


def conv_prefix_echo_sql(shards_glob: str) -> str:
    return f"""
        WITH ex AS (
            SELECT conv_id, turn_idx,
                   unnest(string_split(text, ' ')) AS token
            FROM read_parquet('{shards_glob}')
        ), tok AS (
            SELECT * FROM ex WHERE token <> ''
        ), f AS (
            SELECT conv_id, token, MIN(turn_idx) AS ft
            FROM tok GROUP BY 1, 2
        ), e AS (
            SELECT t.conv_id,
                   CAST(COUNT(*) AS BIGINT) AS total_tokens,
                   CAST(SUM(CASE WHEN t.turn_idx > f.ft THEN 1 ELSE 0 END)
                        AS BIGINT) AS echo_tokens
            FROM tok t JOIN f USING (conv_id, token)
            GROUP BY 1
        ), u AS (
            SELECT conv_id, CAST(COUNT(*) AS BIGINT) AS distinct_tokens
            FROM f GROUP BY 1
        ), base AS (
            SELECT conv_id, CAST(COUNT(*) AS BIGINT) AS n_turns
            FROM read_parquet('{shards_glob}') GROUP BY 1
        )
        SELECT b.conv_id, b.n_turns,
               COALESCE(e.total_tokens, 0) AS total_tokens,
               COALESCE(e.echo_tokens, 0) AS echo_tokens,
               COALESCE(u.distinct_tokens, 0) AS distinct_tokens
        FROM base b
        LEFT JOIN e USING (conv_id)
        LEFT JOIN u USING (conv_id)
        ORDER BY b.conv_id
    """


def conv_turnlen_autocorr(corpus_dir: str) -> pd.DataFrame:
    """Lag-1 turn-length dependence, as EXACT sufficient statistics:
    per conversation the (x_i, x_{{i+1}}) consecutive-turn char-length
    pairs yield n_pairs and the five integer sums (sx, sy, sxx, syy,
    sxy) from which Pearson r falls out — published as ints so the
    LAG-window SQL twin is bit-exact (the lineitem_corr_stats
    treatment).  Long-follows-long turn dependence is what breaks the
    iid assumption in per-turn quality sampling.  Conversations with a
    single turn emit no row.

    Distributed plan: conv-keyed bucket shuffle; per bucket one sort +
    shifted numpy products."""
    import numpy as np

    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "text"]
    )

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": _bucket_of(t["conv_id"]),
                "conv_id": t["conv_id"],
                "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = g["conv_id"].to_numpy()
        x = g["n_chars"].to_numpy(np.int64)
        same = conv[1:] == conv[:-1]
        a, b = x[:-1][same], x[1:][same]
        key = conv[1:][same]
        df = pd.DataFrame(
            {"conv_id": key, "a": a, "b": b, "aa": a * a, "bb": b * b,
             "ab": a * b}
        )
        out = df.groupby("conv_id", as_index=False).agg(
            n_pairs=("a", "size"), sx=("a", "sum"), sy=("b", "sum"),
            sxx=("aa", "sum"), syy=("bb", "sum"), sxy=("ab", "sum"),
        )
        for c in out.columns:
            if c != "conv_id":
                out[c] = out[c].astype("int64")
        return out

    out = (
        _coalesced(ds.map_batches(derive, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("conv_id").reset_index(drop=True)


def conv_turnlen_autocorr_sql(shards_glob: str) -> str:
    return f"""
        WITH e AS (
            SELECT conv_id, turn_idx,
                   CAST(length(text) AS BIGINT) AS n,
                   LAG(CAST(length(text) AS BIGINT)) OVER (
                       PARTITION BY conv_id ORDER BY turn_idx) AS prev
            FROM read_parquet('{shards_glob}')
        )
        SELECT conv_id,
               CAST(COUNT(*) AS BIGINT) AS n_pairs,
               CAST(SUM(prev) AS BIGINT) AS sx,
               CAST(SUM(n) AS BIGINT) AS sy,
               CAST(SUM(prev * prev) AS BIGINT) AS sxx,
               CAST(SUM(n * n) AS BIGINT) AS syy,
               CAST(SUM(prev * n) AS BIGINT) AS sxy
        FROM e WHERE prev IS NOT NULL
        GROUP BY conv_id ORDER BY conv_id
    """


def conv_role_latency_asymmetry(corpus_dir: str) -> pd.DataFrame:
    """Directional response-latency census: per conversation, the
    count and total microseconds of user->assistant gaps versus
    assistant->user gaps over consecutive turns — the asymmetry
    (assistant thinks, user idles) that latency SLOs and turn-timeout
    tuning read.  Exact integer sums; LAG-window SQL twin.

    Distributed plan: conv-keyed bucket shuffle; per bucket one sort +
    shifted numpy masks."""
    import numpy as np

    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role", "ts"]
    )

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": _bucket_of(t["conv_id"]),
                "conv_id": t["conv_id"],
                "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                "role": t["role"],
                "ts_us": _epoch_us(t["ts"]),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = g["conv_id"].to_numpy()
        role = g["role"].to_numpy()
        ts = g["ts_us"].to_numpy(np.int64)
        same = conv[1:] == conv[:-1]
        gap = ts[1:] - ts[:-1]
        ua = same & (role[:-1] == "user") & (role[1:] == "assistant")
        au = same & (role[:-1] == "assistant") & (role[1:] == "user")
        df = pd.DataFrame(
            {
                "conv_id": conv[1:],
                "is_ua": ua.astype(np.int64),
                "gap_ua": np.where(ua, gap, 0),
                "is_au": au.astype(np.int64),
                "gap_au": np.where(au, gap, 0),
            }
        )
        out = df.groupby("conv_id", as_index=False).agg(
            n_ua=("is_ua", "sum"), gap_ua_us=("gap_ua", "sum"),
            n_au=("is_au", "sum"), gap_au_us=("gap_au", "sum"),
        )
        for c in out.columns:
            if c != "conv_id":
                out[c] = out[c].astype("int64")
        return out

    out = (
        _coalesced(ds.map_batches(derive, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("conv_id").reset_index(drop=True)


def conv_role_latency_asymmetry_sql(shards_glob: str) -> str:
    return f"""
        WITH e AS (
            SELECT conv_id, role, epoch_us(ts) AS ts_us,
                   LAG(role) OVER w AS prev_role,
                   LAG(epoch_us(ts)) OVER w AS prev_ts
            FROM read_parquet('{shards_glob}')
            WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
        )
        SELECT conv_id,
               CAST(SUM(CASE WHEN prev_role = 'user' AND role = 'assistant'
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_ua,
               CAST(SUM(CASE WHEN prev_role = 'user' AND role = 'assistant'
                             THEN ts_us - prev_ts ELSE 0 END) AS BIGINT)
                   AS gap_ua_us,
               CAST(SUM(CASE WHEN prev_role = 'assistant' AND role = 'user'
                             THEN 1 ELSE 0 END) AS BIGINT) AS n_au,
               CAST(SUM(CASE WHEN prev_role = 'assistant' AND role = 'user'
                             THEN ts_us - prev_ts ELSE 0 END) AS BIGINT)
                   AS gap_au_us
        FROM e GROUP BY conv_id ORDER BY conv_id
    """


def turn_line_repetition(corpus_dir: str) -> pd.DataFrame:
    """Within-turn line-repetition screen: per conversation, how many
    turns contain a repeated non-empty LINE and the worst single-line
    multiplicity — the degenerate-generation (stuck-loop) detector run
    on assistant transcripts before SFT harvesting.  Lines split on
    \\n, empties dropped.  Repetition counting uses Python dicts (the
    NUL-safe precedent from conv_prefix_echo).  Pure counts; unnest +
    GROUP BY SQL twin.

    Distributed plan: per-batch per-turn fold (a turn never spans
    batches) -> conv-keyed count exchange of three small ints."""
    from ray.data.aggregate import Max, Sum

    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "text"]
    )

    def per_turn(t: pa.Table) -> pd.DataFrame:
        rows = {"conv_id": [], "has_dup": [], "dup_lines": [], "max_mult": []}
        for conv_id, text in zip(
            t["conv_id"].to_pylist(), t["text"].to_pylist()
        ):
            counts: dict[str, int] = {}
            for ln in text.split("\n"):
                if ln:
                    counts[ln] = counts.get(ln, 0) + 1
            dups = sum(c - 1 for c in counts.values() if c > 1)
            mx = max(counts.values(), default=0)
            rows["conv_id"].append(conv_id)
            rows["has_dup"].append(1 if dups else 0)
            rows["dup_lines"].append(dups)
            rows["max_mult"].append(mx)
        df = pd.DataFrame(rows)
        for c in ("has_dup", "dup_lines", "max_mult"):
            df[c] = df[c].astype("int64")
        return df

    out = (
        ds.map_batches(per_turn, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(
            Sum("has_dup", alias_name="n_turns_with_dup"),
            Sum("dup_lines", alias_name="total_dup_lines"),
            Max("max_mult", alias_name="max_line_mult"),
        )
        .to_pandas()
    )
    for c in ("n_turns_with_dup", "total_dup_lines", "max_line_mult"):
        out[c] = out[c].astype("int64")
    return out.sort_values("conv_id").reset_index(drop=True)


def turn_line_repetition_sql(shards_glob: str) -> str:
    return f"""
        WITH ln AS (
            SELECT conv_id, turn_idx,
                   unnest(string_split(text, chr(10))) AS line
            FROM read_parquet('{shards_glob}')
        ), cnt AS (
            SELECT conv_id, turn_idx, line,
                   CAST(COUNT(*) AS BIGINT) AS c
            FROM ln WHERE line <> '' GROUP BY 1, 2, 3
        ), per_turn AS (
            SELECT conv_id, turn_idx,
                   CASE WHEN SUM(CASE WHEN c > 1 THEN c - 1 ELSE 0 END) > 0
                        THEN 1 ELSE 0 END AS has_dup,
                   SUM(CASE WHEN c > 1 THEN c - 1 ELSE 0 END) AS dup_lines,
                   MAX(c) AS max_mult
            FROM cnt GROUP BY 1, 2
        ), base AS (
            SELECT conv_id, turn_idx FROM read_parquet('{shards_glob}')
        )
        SELECT b.conv_id,
               CAST(SUM(COALESCE(p.has_dup, 0)) AS BIGINT)
                   AS n_turns_with_dup,
               CAST(SUM(COALESCE(p.dup_lines, 0)) AS BIGINT)
                   AS total_dup_lines,
               CAST(MAX(COALESCE(p.max_mult, 0)) AS BIGINT)
                   AS max_line_mult
        FROM base b LEFT JOIN per_turn p USING (conv_id, turn_idx)
        GROUP BY b.conv_id ORDER BY b.conv_id
    """


def conv_echo_attribution(corpus_dir: str) -> pd.DataFrame:
    """Echo attribution: for every token occurrence that repeats an
    earlier turn (the conv_prefix_echo definition), WHO introduced it —
    split by the role of the turn where the token first appeared
    (user / assistant / tool).  Separates copy-down of user input from
    assistant self-repetition from tool-output quoting — three very
    different curation signals.  Python-dict token accounting
    (NUL-exact); arg-min-by-turn SQL twin.

    Distributed plan: conv-keyed bucket shuffle; per conv one pass
    building token -> (first_turn, first_role), one pass counting."""
    ds = rd.read_parquet(
        f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "role", "text"]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for conv_id, sub in g.groupby("conv_id", sort=False):
            sub = sub.sort_values("turn_idx")
            first: dict[str, tuple[int, str]] = {}
            for turn, role, text in zip(
                sub["turn_idx"], sub["role"], sub["text"]
            ):
                turn = int(turn)
                for tok in text.split(" "):
                    if tok and tok not in first:
                        first[tok] = (turn, role)
            echo = {"user": 0, "assistant": 0, "tool": 0}
            for turn, _, text in zip(
                sub["turn_idx"], sub["role"], sub["text"]
            ):
                turn = int(turn)
                for tok in text.split(" "):
                    if tok:
                        ft, fr = first[tok]
                        if turn > ft:
                            echo[fr] = echo.get(fr, 0) + 1
            rows.append(
                {
                    "conv_id": conv_id,
                    "echo_from_user": echo.get("user", 0),
                    "echo_from_assistant": echo.get("assistant", 0),
                    "echo_from_tool": echo.get("tool", 0),
                }
            )
        out = pd.DataFrame(rows)
        for c in ("echo_from_user", "echo_from_assistant", "echo_from_tool"):
            out[c] = out[c].astype("int64")
        return out

    out = (
        _coalesced(ds.map_batches(_with_bucket, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("conv_id").reset_index(drop=True)


def conv_echo_attribution_sql(shards_glob: str) -> str:
    return f"""
        WITH ex AS (
            SELECT conv_id, turn_idx, role,
                   unnest(string_split(text, ' ')) AS token
            FROM read_parquet('{shards_glob}')
        ), tok AS (
            SELECT * FROM ex WHERE token <> ''
        ), f AS (
            SELECT conv_id, token,
                   MIN(turn_idx) AS ft,
                   arg_min(role, turn_idx) AS fr
            FROM tok GROUP BY 1, 2
        ), e AS (
            SELECT t.conv_id, f.fr,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM tok t JOIN f USING (conv_id, token)
            WHERE t.turn_idx > f.ft
            GROUP BY 1, 2
        ), base AS (
            SELECT DISTINCT conv_id FROM read_parquet('{shards_glob}')
        )
        SELECT b.conv_id,
               COALESCE(MAX(CASE WHEN e.fr = 'user' THEN e.n END), 0)
                   AS echo_from_user,
               COALESCE(MAX(CASE WHEN e.fr = 'assistant' THEN e.n END), 0)
                   AS echo_from_assistant,
               COALESCE(MAX(CASE WHEN e.fr = 'tool' THEN e.n END), 0)
                   AS echo_from_tool
        FROM base b LEFT JOIN e USING (conv_id)
        GROUP BY b.conv_id ORDER BY b.conv_id
    """


_ASSISTANT_PROBES = ("answer", "note", "stream", "http://", "fox")


def assistant_phrase_census(corpus_dir: str) -> pd.DataFrame:
    """Role-filtered lexicon scan: for a fixed probe lexicon, the
    non-overlapping occurrence count and the number of ASSISTANT turns
    containing each phrase — the dictionary_match_counts shape applied
    to one side of the dialogue (the screen you'd run for canned
    phrases, disclaimers, or tool-leak markers in assistant output).
    Non-overlapping str.count semantics == DuckDB length-replace
    arithmetic, so the twin is bit-exact.

    Distributed plan: probes broadcast in the closure; each batch
    emits one lexicon-sized partial."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["role", "text"])

    def partial(t: pa.Table) -> pd.DataFrame:
        rows = {"phrase": [], "occ": [], "turns": []}
        texts = [
            s
            for r, s in zip(t["role"].to_pylist(), t["text"].to_pylist())
            if r == "assistant"
        ]
        for p in _ASSISTANT_PROBES:
            occ = sum(s.count(p) for s in texts)
            turns = sum(1 for s in texts if p in s)
            rows["phrase"].append(p)
            rows["occ"].append(occ)
            rows["turns"].append(turns)
        df = pd.DataFrame(rows)
        for c in ("occ", "turns"):
            df[c] = df[c].astype("int64")
        return df

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("phrase")
        .aggregate(Sum("occ", alias_name="occurrences"),
                   Sum("turns", alias_name="n_turns"))
        .to_pandas()
    )
    for c in ("occurrences", "n_turns"):
        out[c] = out[c].astype("int64")
    return out.sort_values("phrase").reset_index(drop=True)


def assistant_phrase_census_sql(shards_glob: str) -> str:
    probes = ", ".join(f"('{p}')" for p in _ASSISTANT_PROBES)
    return f"""
        WITH probes(phrase) AS (VALUES {probes}),
        a AS (
            SELECT text FROM read_parquet('{shards_glob}')
            WHERE role = 'assistant'
        )
        SELECT p.phrase,
               CAST(COALESCE(SUM((length(a.text)
                    - length(replace(a.text, p.phrase, '')))
                    // length(p.phrase)), 0) AS BIGINT) AS occurrences,
               CAST(COALESCE(SUM(CASE WHEN contains(a.text, p.phrase)
                                      THEN 1 ELSE 0 END), 0) AS BIGINT)
                   AS n_turns
        FROM probes p CROSS JOIN a
        GROUP BY p.phrase ORDER BY p.phrase
    """


_NUM_LIT_RE = None  # compiled lazily; pattern kept RE2/`re` agreeing


def _num_lit_re():
    global _NUM_LIT_RE
    if _NUM_LIT_RE is None:
        import re

        # ASCII digit classes only: Python `\d` is Unicode-wide while
        # RE2's is ASCII, so [0-9] keeps both engines bit-agreeing
        # (same precedent as functions/textstats.BPE_PATTERN).
        _NUM_LIT_RE = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
    return _NUM_LIT_RE


def assistant_numeric_claim_census(corpus_dir: str) -> pd.DataFrame:
    """Numeric-literal census over ASSISTANT turns: every numeric
    literal the assistant emitted, bucketed by lexical kind (int /
    decimal / scientific), with occurrence count, number of distinct
    turns containing the kind, and total literal characters — the
    screen you run before trusting model-quoted numbers (hallucinated
    precision, unit drift) or when mining numeric-claim spans for
    verification sets.  Exact integers; the DuckDB twin runs the SAME
    regex via regexp_extract_all.

    Distributed plan: regex compiled once per process, scan inside
    map_batches; each turn lives in exactly one batch so per-kind
    (occurrences, turns, chars) partials are additive; one 3-row
    groupby(kind) fold."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["role", "text"])

    def partial(t: pa.Table) -> pd.DataFrame:
        rx = _num_lit_re()
        occ = {"int": 0, "decimal": 0, "scientific": 0}
        turns = {"int": 0, "decimal": 0, "scientific": 0}
        chars = {"int": 0, "decimal": 0, "scientific": 0}
        for r, s in zip(t["role"].to_pylist(), t["text"].to_pylist()):
            if r != "assistant":
                continue
            seen = set()
            for m in rx.finditer(s):
                lit = m.group(0)
                kind = (
                    "scientific"
                    if ("e" in lit or "E" in lit)
                    else ("decimal" if "." in lit else "int")
                )
                occ[kind] += 1
                chars[kind] += len(lit)
                seen.add(kind)
            for k in seen:
                turns[k] += 1
        kinds = sorted(occ)
        return pd.DataFrame(
            {
                "kind": kinds,
                "occ": pd.Series([occ[k] for k in kinds], dtype="int64"),
                "turns": pd.Series([turns[k] for k in kinds], dtype="int64"),
                "chars": pd.Series([chars[k] for k in kinds], dtype="int64"),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("kind")
        .aggregate(
            Sum("occ", alias_name="occurrences"),
            Sum("turns", alias_name="n_turns"),
            Sum("chars", alias_name="total_chars"),
        )
        .to_pandas()
    )
    out = out[out["occurrences"] > 0]
    for c in ("occurrences", "n_turns", "total_chars"):
        out[c] = out[c].astype("int64")
    return out.sort_values("kind").reset_index(drop=True)


def assistant_numeric_claim_census_sql(shards_glob: str) -> str:
    return f"""
        WITH a AS (
            SELECT conv_id || '/' || CAST(turn_idx AS VARCHAR) AS tk, text
            FROM read_parquet('{shards_glob}') WHERE role = 'assistant'
        ), m AS (
            SELECT tk,
                   unnest(regexp_extract_all(
                       text, '[+-]?[0-9]+(\\.[0-9]+)?([eE][+-]?[0-9]+)?')) AS lit
            FROM a
        )
        SELECT CASE WHEN contains(lit, 'e') OR contains(lit, 'E')
                        THEN 'scientific'
                    WHEN contains(lit, '.') THEN 'decimal'
                    ELSE 'int' END AS kind,
               CAST(COUNT(*) AS BIGINT) AS occurrences,
               CAST(COUNT(DISTINCT tk) AS BIGINT) AS n_turns,
               CAST(SUM(length(lit)) AS BIGINT) AS total_chars
        FROM m GROUP BY 1 ORDER BY 1
    """


def dpo_pairs(corpus_dir: str, k: int = 3) -> pd.DataFrame:
    """DPO preference-pair mining from forked conversations: branches
    that share the exact same first-k turns but continue differently
    are natural (chosen, rejected) candidates — the
    retry/regeneration structure an agent-transcript corpus offers
    for free (the fork detection of conv_prefix_forks, turned into
    training pairs).

    Spec (deterministic, integer): within each fork group (same
    prefix fingerprint), every unordered pair of conversations whose
    turn-k continuations DIFFER (distinct turn-k md5) becomes one
    pair; chosen = the branch with more total continuation characters
    (sum of per-turn chars over turn_idx >= k — the longer-completion
    heuristic; ties break to the smaller conv_id). Real corpora swap
    the length proxy for a reward-model score — the pairing plumbing
    is the operator.

    Distributed plan: prefix fingerprints and turn-k digests ship as
    32-byte hashes (the conv_fingerprints discipline — text never
    crosses an exchange); continuation char-counts fold through one
    conv-keyed sum; pair generation runs per fingerprint bucket
    (fork groups are tiny by construction).

    Output: (fingerprint, chosen_conv, rejected_conv, chosen_chars,
    rejected_chars) ORDER BY fingerprint, chosen_conv,
    rejected_conv."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "turn_idx", "text"])

    def digest_turns(t: pa.Table) -> pa.Table:
        td = [hashlib.md5(s.encode("utf-8")).hexdigest() for s in t["text"].to_pylist()]
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "turn_md5": pa.array(td, pa.string()),
            }
        )
        return _with_bucket(out)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="stable")
        pre = g[g["turn_idx"] < k]
        agg = pre.groupby("conv_id", sort=False)["turn_md5"].agg(_SEP.join)
        fps = [hashlib.md5(b.encode("utf-8")).hexdigest() for b in agg]
        nxt = g[g["turn_idx"] == k].set_index("conv_id")["turn_md5"]
        return pd.DataFrame(
            {"fingerprint": fps, "conv_id": agg.index, "next_md5": agg.index.map(nxt)}
        )

    fps = (
        ds.filter(expr=f"turn_idx <= {k}")
        .map_batches(digest_turns, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(per_bucket, batch_format="pandas")
    )

    def chars_partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
            }
        )

    suffix_chars = (
        ds.filter(expr=f"turn_idx >= {k}")
        .map_batches(chars_partial, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(Sum("n_chars", alias_name="suffix_chars"))
        .to_pandas()
        .set_index("conv_id")["suffix_chars"]
    )

    members = fps.to_pandas()
    members["suffix_chars"] = (
        members["conv_id"].map(suffix_chars).fillna(0).astype("int64")
    )

    rows = []
    for fp, g in members.groupby("fingerprint", sort=True):
        if g["next_md5"].nunique(dropna=True) < 2:
            continue
        recs = sorted(
            g.itertuples(index=False), key=lambda r: r.conv_id
        )
        for i in range(len(recs)):
            for j in range(i + 1, len(recs)):
                a, b = recs[i], recs[j]
                if (
                    a.next_md5 is None
                    or b.next_md5 is None
                    or (isinstance(a.next_md5, float))
                    or (isinstance(b.next_md5, float))
                    or a.next_md5 == b.next_md5
                ):
                    continue  # same continuation or truncated branch
                # chosen = more continuation chars; ties to the smaller
                # conv_id (a precedes b in conv_id order)
                ch, rj = (a, b) if a.suffix_chars >= b.suffix_chars else (b, a)
                rows.append(
                    (fp, ch.conv_id, rj.conv_id, ch.suffix_chars, rj.suffix_chars)
                )
    out = pd.DataFrame(
        rows,
        columns=[
            "fingerprint",
            "chosen_conv",
            "rejected_conv",
            "chosen_chars",
            "rejected_chars",
        ],
    )
    if not len(out):
        out = pd.DataFrame(
            {
                "fingerprint": pd.Series([], dtype="object"),
                "chosen_conv": pd.Series([], dtype="object"),
                "rejected_conv": pd.Series([], dtype="object"),
                "chosen_chars": pd.Series([], dtype="int64"),
                "rejected_chars": pd.Series([], dtype="int64"),
            }
        )
    for c in ("chosen_chars", "rejected_chars"):
        out[c] = out[c].astype("int64")
    return out.sort_values(
        ["fingerprint", "chosen_conv", "rejected_conv"]
    ).reset_index(drop=True)


def dpo_pairs_sql(shards_glob: str, k: int = 3) -> str:
    """Exact twin: fingerprint/branch digests, suffix char sums and
    the (chars desc, conv_id asc) chosen rule in plain SQL."""
    return f"""
        WITH pre AS (
            SELECT conv_id,
                   md5(string_agg(md5(text), chr(31) ORDER BY turn_idx)
                       FILTER (WHERE turn_idx < {k})) AS fingerprint,
                   MAX(CASE WHEN turn_idx = {k} THEN md5(text) END) AS next_md5
            FROM read_parquet('{shards_glob}')
            WHERE turn_idx <= {k}
            GROUP BY conv_id
        ), suf AS (
            SELECT conv_id, CAST(SUM(length(text)) AS BIGINT) AS suffix_chars
            FROM read_parquet('{shards_glob}')
            WHERE turn_idx >= {k}
            GROUP BY conv_id
        ), m AS (
            SELECT p.fingerprint, p.conv_id, p.next_md5,
                   COALESCE(s.suffix_chars, 0) AS suffix_chars
            FROM pre p LEFT JOIN suf s USING (conv_id)
        )
        SELECT a.fingerprint,
               CASE WHEN a.suffix_chars >= b.suffix_chars
                    THEN a.conv_id ELSE b.conv_id END AS chosen_conv,
               CASE WHEN a.suffix_chars >= b.suffix_chars
                    THEN b.conv_id ELSE a.conv_id END AS rejected_conv,
               GREATEST(a.suffix_chars, b.suffix_chars) AS chosen_chars,
               LEAST(a.suffix_chars, b.suffix_chars) AS rejected_chars
        FROM m a JOIN m b
          ON a.fingerprint = b.fingerprint AND a.conv_id < b.conv_id
         AND a.next_md5 IS NOT NULL AND b.next_md5 IS NOT NULL
         AND a.next_md5 <> b.next_md5
        ORDER BY a.fingerprint, chosen_conv, rejected_conv
    """


def conv_context_pack(
    corpus_dir: str, budget: int = 2048, n_buckets: int = 16
) -> pd.DataFrame:
    """SFT-batch packing at CONVERSATION granularity: whole
    conversations (never split — the training unit for chat SFT is the
    full dialogue) greedily packed into context bins of `budget`
    whitespace tokens. The conversation-level sibling of
    llmdata.pack_sequences (which packs documents) and of
    context_truncation (which drops turns to fit serving windows).

    One coarse shuffle: each batch folds its rows to per-conversation
    token partials keyed by md5(conv_id) % n_buckets; the per-bucket
    task finishes the conv totals and packs them first-fit in conv_id
    order — coordination-free across buckets, an oversized
    conversation gets its own pack. Tokens use the module's EXPLICIT
    ASCII whitespace class (payloads contain unicode whitespace that
    RE2's \\s does not match).

    Output: (conv_id, n_turns, n_tokens, bucket, pack_id, pack_pos)
    int64 except conv_id, ORDER BY conv_id."""
    import re

    ws = re.compile(r"[ \t\n\x0b\x0c\r]+")

    ds = rd.read_parquet(f"{corpus_dir}/shards", columns=["conv_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        from pdfrust_ray.functions.md5vec import md5_prefix_u32

        convs = t["conv_id"].to_pylist()
        toks = [len(ws.split(x)) for x in t["text"].to_pylist()]
        df = pd.DataFrame({"conv_id": convs, "tok": toks})
        g = df.groupby("conv_id", as_index=False).agg(
            n_turns=("tok", "size"), n_tokens=("tok", "sum")
        )
        b = md5_prefix_u32([c.encode() for c in g["conv_id"]]) % n_buckets
        return pa.table(
            {
                "conv_id": pa.array(g["conv_id"], pa.string()),
                "bucket": pa.array(b.astype(np.int64), pa.int64()),
                "n_turns": pa.array(g["n_turns"].to_numpy(np.int64)),
                "n_tokens": pa.array(g["n_tokens"].to_numpy(np.int64)),
            }
        )

    def pack_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = (
            g.groupby(["conv_id", "bucket"], as_index=False)
            .agg(n_turns=("n_turns", "sum"), n_tokens=("n_tokens", "sum"))
            .sort_values("conv_id", kind="mergesort")
            .reset_index(drop=True)
        )
        pack_id, acc, pos = 0, 0, 0
        pids, poss = [], []
        for n in g["n_tokens"]:
            if acc > 0 and acc + int(n) > budget:
                pack_id += 1
                acc = 0
                pos = 0
            acc += int(n)
            pids.append(pack_id)
            poss.append(pos)
            pos += 1
        g["pack_id"] = pd.Series(pids, dtype="int64")
        g["pack_pos"] = pd.Series(poss, dtype="int64")
        return g[["conv_id", "n_turns", "n_tokens", "bucket", "pack_id", "pack_pos"]]

    out = (
        _coalesced(ds.map_batches(partial, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(pack_bucket, batch_format="pandas")
        .to_pandas()
    )
    for c in out.columns:
        if c != "conv_id":
            out[c] = out[c].astype("int64")
    return out.sort_values("conv_id").reset_index(drop=True)


def conv_context_pack_sql(
    shards_glob: str, budget: int = 2048, n_buckets: int = 16
) -> str:
    """Exact twin: per-conv totals, the same md5 bucket, and the
    greedy close replayed one conversation per recursive round."""
    return f"""
        WITH RECURSIVE t AS (
            SELECT conv_id,
                   CAST(COUNT(*) AS BIGINT) AS n_turns,
                   CAST(SUM(length(string_split_regex(text,
                        '[ \\t\\n\\x0b\\x0c\\r]+'))) AS BIGINT) AS n_tokens,
                   CAST(CAST(('0x' || substr(md5(conv_id), 1, 8)) AS UBIGINT)
                        % {n_buckets} AS BIGINT) AS bucket
            FROM read_parquet('{shards_glob}')
            GROUP BY conv_id
        ), o AS (
            SELECT conv_id, n_turns, n_tokens, bucket,
                   row_number() OVER (PARTITION BY bucket
                                      ORDER BY conv_id) AS rn
            FROM t
        ), s AS (
            SELECT conv_id, n_turns, n_tokens, bucket, rn,
                   CAST(0 AS BIGINT) AS pack_id,
                   CAST(0 AS BIGINT) AS pack_pos,
                   n_tokens AS acc
            FROM o WHERE rn = 1
            UNION ALL
            SELECT o.conv_id, o.n_turns, o.n_tokens, o.bucket, o.rn,
                   CASE WHEN s.acc + o.n_tokens > {budget}
                        THEN s.pack_id + 1 ELSE s.pack_id END,
                   CASE WHEN s.acc + o.n_tokens > {budget}
                        THEN 0 ELSE s.pack_pos + 1 END,
                   CASE WHEN s.acc + o.n_tokens > {budget}
                        THEN o.n_tokens ELSE s.acc + o.n_tokens END
            FROM s JOIN o ON o.bucket = s.bucket AND o.rn = s.rn + 1
        )
        SELECT conv_id, n_turns, n_tokens, bucket, pack_id, pack_pos
        FROM s ORDER BY conv_id
    """
