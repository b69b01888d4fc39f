"""Deterministic synthetic transcript corpus + frozen goldens.

Generates the graft input table (BASELINE.json `input_hint` schema):
  conv_id:string, turn_idx:int32, role:string, text:string,
  tool:string, ts:timestamp[us]

sharded across many Parquet files with turns deliberately scattered
across shards (so the engine's ordering shuffle is exercised), plus a
`golden.parquet` computed SERIALLY with the same row semantics the
pipeline uses (pdfrust_ray.functions.payload.extract_row) — the
correctness gate compares pipeline output to it per (conv_id, turn_idx).

Everything is a pure function of (scale, SEED): no wall clock, no
unseeded RNG. Payload mix ~40% plain / 30% HTML / 30% PDF cycling the
construct matrices in FIXTURES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.payload import (
    INFO_FIELDS,
    INFO_SCHEMA,
    OUTPUT_SCHEMA,
    encode_pdf_payload,
    extract_row,
    payload_bytes,
)
from ..pdfref import ParseError, extract_info
from .htmlgen import HTML_CONSTRUCTS
from .pdfgen import (
    ENC_CONSTRUCTS,
    FILTER_CONSTRUCTS,
    PDF_CONSTRUCTS,
    SPEC15_CONSTRUCTS,
    XOBJ_CONSTRUCTS,
    pdf_stress,
)

SEED = 42
# bump when any construct generator changes, so stale /tmp caches regenerate
GENERATOR_VERSION = 8

TRANSCRIPTS_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

# a golden row is the row the extraction pipeline writes
GOLDEN_SCHEMA = OUTPUT_SCHEMA

# scale -> (n_convs, turns_per_conv, n_shards, stress_every)
SCALES = {
    "t1": (20, 5, 1, 0),          # 100 rows, smoke
    "t2": (200, 10, 8, 499),      # 2,000 rows, correctness gate
    "bench": (20000, 40, 64, 1250),  # 800,000 rows (~640 oversized), throughput
}

_PDF_IDS = sorted(PDF_CONSTRUCTS)
_HTML_IDS = sorted(HTML_CONSTRUCTS)

_PLAIN_TEMPLATES = [
    "plain note {uid}: the quick brown fox jumps over the lazy dog.",
    "user query {uid} about throughput and scaling of the pipeline.",
    "assistant answer {uid} with some numbers: 1, 2.5, -3e4, and a URL http://example.com/x.",
    "tool output {uid}\n  row1\trow2\n  done.",
    "{uid} short",
]

_ROLES = ("user", "assistant", "tool")
_EPOCH_US = 1735689600_000000  # 2025-01-01T00:00:00Z


def _h(s: str) -> int:
    return struct.unpack("<Q", hashlib.md5(f"{SEED}:{s}".encode()).digest()[:8])[0]


def _turn(conv_id: str, turn: int, text: str, minute: int, role: str, tool: str = "") -> dict:
    """One transcript row, stamped `minute` minutes after the epoch."""
    return {
        "conv_id": conv_id,
        "turn_idx": turn,
        "role": role,
        "text": text,
        "tool": tool,
        "ts": _EPOCH_US + minute * 60_000_000,
    }


def _append_conv(rows: list, conv_id: str, texts) -> None:
    """Append one plain conversation, roles cycling user/assistant/tool,
    each turn a minute after the row before it."""
    for t, text in enumerate(texts):
        rows.append(_turn(conv_id, t, text, len(rows), _ROLES[t % 3]))


def _row(conv: int, turn: int) -> dict:
    conv_id = f"conv-{conv:06d}"
    uid = f"{conv_id}/{turn}"
    sel = _h(f"kind:{uid}") % 10
    if sel < 4:
        kind = "plain"
    elif sel < 7:
        kind = "html"
    else:
        kind = "pdf"
    if kind == "plain":
        tpl = _PLAIN_TEMPLATES[_h(f"plain:{uid}") % len(_PLAIN_TEMPLATES)]
        text = tpl.format(uid=uid)
        tool = ""
    elif kind == "html":
        cid = _HTML_IDS[_h(f"html:{uid}") % len(_HTML_IDS)]
        text = HTML_CONSTRUCTS[cid](uid)
        tool = "browser"
    else:
        cid = _PDF_IDS[_h(f"pdf:{uid}") % len(_PDF_IDS)]
        text = encode_pdf_payload(PDF_CONSTRUCTS[cid](uid))
        tool = "pdf_render"
    role = _ROLES[turn % 3 if tool else turn % 2]
    return _turn(conv_id, turn, text, conv * 60 + turn, role, tool)


def generate_rows(scale: str):
    n_convs, n_turns, _, stress_every = SCALES[scale]
    i = 0
    for conv in range(n_convs):
        for turn in range(n_turns):
            i += 1
            if stress_every and i % stress_every == 0:
                # oversized payload for skew handling (tracemonkey stand-in)
                conv_id = f"conv-{conv:06d}"
                uid = f"{conv_id}/{turn}"
                row = _row(conv, turn)
                row["text"] = encode_pdf_payload(pdf_stress(uid))
                row["tool"] = "pdf_render"
                yield row
            else:
                yield _row(conv, turn)


def _marker_current(base: str) -> bool:
    try:
        with open(os.path.join(base, "_COMPLETE.json")) as f:
            return json.load(f).get("generator_version") == GENERATOR_VERSION
    except (json.JSONDecodeError, OSError):
        return False


def default_dir(scale: str) -> str:
    return f"/tmp/pdfrust_ray_fixtures/{scale}"


def _by_turn(rows: list) -> list:
    return sorted(rows, key=lambda r: (r["conv_id"], r["turn_idx"]))


def _golden(rows: list, mode: str = "text", spec_mode: bool = False) -> pa.Table:
    """The serial extraction of `rows`, in (conv_id, turn_idx) order."""
    return pa.Table.from_pylist(
        [
            {"conv_id": r["conv_id"], "turn_idx": r["turn_idx"],
             **extract_row(r["text"], mode=mode, spec_mode=spec_mode)}
            for r in _by_turn(rows)
        ],
        schema=GOLDEN_SCHEMA,
    )


def _write_family(base: str, rows: list, n_shards: int, goldens: dict | None = None,
                  marker: dict | None = None) -> None:
    """Write one fixture family under `base`: `rows` dealt round-robin
    into `n_shards` transcript shards, each {file name: table} of
    `goldens` beside them, and last the `_COMPLETE.json` marker
    (`marker`, default {"rows": n}, plus GENERATOR_VERSION)."""
    shard_dir = os.path.join(base, "shards")
    os.makedirs(shard_dir, exist_ok=True)
    for s in range(n_shards):
        pq.write_table(
            pa.Table.from_pylist(rows[s::n_shards], schema=TRANSCRIPTS_SCHEMA),
            os.path.join(shard_dir, f"part-{s:04d}.parquet"),
        )
    for name, table in (goldens or {}).items():
        pq.write_table(table, os.path.join(base, name))
    with open(os.path.join(base, "_COMPLETE.json"), "w") as f:
        json.dump({**(marker or {"rows": len(rows)}), "generator_version": GENERATOR_VERSION}, f)


def _family(base_dir: str | None, name: str, build) -> str:
    """Idempotently write the family `name` under `base_dir` (default
    default_dir(name)): `build()` returns _write_family's arguments after
    `base`, and runs only when the family's marker is not current."""
    base = base_dir or default_dir(name)
    if not _marker_current(base):
        _write_family(base, *build())
    return base


MODES_CONSTRUCTS = ("pdf-hello", "pdf-cmap1", "pdf-tree", "pdf-info")
MODES = ("text", "chars", "font", "raw-content")


def ensure_modes_fixture(base_dir: str | None = None) -> str:
    """Small fixture pinning the chars/font/raw-content display formats
    (FIXTURES.md §3 last paragraph): 3 constructs x 3 convs, goldens for
    all four extract modes in golden_modes.parquet (keyed by `mode`)."""
    return _family(base_dir, "modes", _modes_family)


def _modes_family():
    rows = []
    for conv in range(3):
        conv_id = f"conv-{conv:06d}"
        for t, cid in enumerate(MODES_CONSTRUCTS):
            text = encode_pdf_payload(PDF_CONSTRUCTS[cid](f"{conv_id}/{t}"))
            rows.append(_turn(conv_id, t, text, conv * 60 + t, "tool", "pdf_render"))
    cols = ["conv_id", "turn_idx", "extracted_text", "parse_status"]
    modes = pa.concat_tables(
        _golden(rows, mode).select(cols).add_column(0, "mode", pa.array([mode] * len(rows)))
        for mode in MODES
    )
    # info golden (P7): trailer metadata per pdf turn, read serially
    info_rows = []
    for r in _by_turn(rows):
        try:
            info, status = extract_info(payload_bytes(r["text"])), "ok"
        except ParseError as exc:
            info, status = dict.fromkeys(INFO_FIELDS), f"error:{exc.kind}"
        info_rows.append({"conv_id": r["conv_id"], "turn_idx": r["turn_idx"], **info, "parse_status": status})
    info = pa.Table.from_pylist(info_rows, schema=INFO_SCHEMA)
    goldens = {"golden_modes.parquet": modes, "golden_info.parquet": info}
    return rows, 1, goldens, {"rows": len(rows), "modes": list(MODES), "seed": SEED}


def ensure_corpus(scale: str, base_dir: str | None = None, golden: bool = True) -> str:
    """Idempotently generate shards (+ golden) for `scale`; returns dir."""

    def build():
        n_shards = SCALES[scale][2]
        rows = list(generate_rows(scale))
        # scatter turns across shards deterministically (NOT grouped by conv)
        scattered = sorted(rows, key=lambda r: _h(f"shard:{r['conv_id']}:{r['turn_idx']}"))
        goldens = {"golden.parquet": _golden(rows)} if golden else None
        marker = {"scale": scale, "rows": len(rows), "shards": n_shards, "seed": SEED}
        return scattered, n_shards, goldens, marker

    base = base_dir or default_dir(scale)
    # a golden=False build leaves a current marker but no golden.parquet
    if golden and not os.path.exists(os.path.join(base, "golden.parquet")):
        _write_family(base, *build())
    return _family(base, scale, build)


def _spec_family(conv_prefix: str, salt: str, note: str, constructs: dict, layout: str):
    """Eight conversations `<conv_prefix>-NNNN`, one turn per letter of
    `layout`: c = the family's construct (cycling with conv + turn),
    p = a classic PDF, h = an HTML page, n = a plain note. Golden
    computed serially with extract_row(spec_mode=True)."""
    ids = sorted(constructs)
    rows = []
    for conv in range(8):
        conv_id = f"{conv_prefix}-{conv:04d}"
        for t, kind in enumerate(layout):
            uid = f"{conv_id}/{t}"
            if kind == "c":
                text, tool = encode_pdf_payload(constructs[ids[(conv + t) % len(ids)]](uid)), "pdf_render"
            elif kind == "p":
                cid = _PDF_IDS[_h(f"{salt}pdf:{uid}") % len(_PDF_IDS)]
                text, tool = encode_pdf_payload(PDF_CONSTRUCTS[cid](uid)), "pdf_render"
            elif kind == "h":
                cid = _HTML_IDS[_h(f"{salt}html:{uid}") % len(_HTML_IDS)]
                text, tool = HTML_CONSTRUCTS[cid](uid), "browser"
            else:
                text, tool = f"plain {note} note {uid}", ""
            rows.append(_turn(conv_id, t, text, conv * 60 + t, "tool" if tool else "user", tool))
    # scatter turns across shards so the ordering shuffle is exercised
    return rows, 4, {"golden.parquet": _golden(rows, spec_mode=True)}


def ensure_xobj_fixture(base_dir: str | None = None) -> str:
    """Form-XObject fixture family: PDF payloads whose body text lives
    inside Form XObjects invoked with `Do` (XOBJ_CONSTRUCTS: own vs
    inherited resources, FlateDecode'd forms, nesting), mixed with
    classic / HTML / plain turns. Golden computed serially with
    extract_row(spec_mode=True) — parity mode ignores Do (pinned
    against the reference binary in tests/test_content.py)."""
    return _family(
        base_dir, "xobj", lambda: _spec_family("xobj", "xobj", "xobj", XOBJ_CONSTRUCTS, "cccccphn")
    )


def ensure_spec15_fixture(base_dir: str | None = None) -> str:
    """Spec-mode fixture family: transcript shards whose PDF payloads
    are PDF 1.5 xref-stream documents (SPEC15_CONSTRUCTS — the
    reference cannot read these; spec_mode=True required), mixed with
    classic-PDF / HTML / plain turns to pin payload routing. Golden
    computed serially with extract_row(spec_mode=True)."""
    return _family(
        base_dir, "spec15", lambda: _spec_family("spec", "spec15", "spec15", SPEC15_CONSTRUCTS, "cccccphn")
    )


def ensure_filters_fixture(base_dir: str | None = None) -> str:
    """Stream-filter fixture family: transcript shards whose PDF
    payloads use the spec-mode filters (FILTER_CONSTRUCTS: ASCIIHex /
    ASCII85 / RunLength / LZW incl. EarlyChange=0 and a corrupted
    ASCII85 stream that must become an error row), mixed with classic
    PDF / HTML / plain turns. The reference rejects every non-Flate
    /Filter name (body.rs:47-54); golden computed serially with
    extract_row(spec_mode=True)."""
    return _family(
        base_dir, "filters", lambda: _spec_family("flt", "flt", "filters", FILTER_CONSTRUCTS, "cccccchn")
    )


def ensure_encrypted_fixture(base_dir: str | None = None) -> str:
    """Encrypted-document fixture family: PDF payloads protected by the
    standard security handler (ENC_CONSTRUCTS: RC4-40/R2, RC4-128/R3,
    V4 crypt filters /V2 and /AESV2, EncryptMetadata=false, an
    uncompressed-stream variant, and a password-protected document that
    must stay an error:Encrypted row), mixed with classic PDF / HTML /
    plain turns. The reference only type-checks the trailer /Encrypt
    entry (xref.rs:136-139); parity mode turns every one of these into
    error:Encrypted rows; spec mode decrypts with the empty user
    password (pdfref/crypt.py). Golden computed serially with
    extract_row(spec_mode=True)."""
    return _family(
        base_dir, "encrypted", lambda: _spec_family("enc", "enc", "encrypted-family", ENC_CONSTRUCTS, "ccccccchn")
    )


_PII_NAMES = ["ada", "grace", "alan", "edsger", "barbara", "donald"]
_PII_DOMAINS = ["example.com", "mail.org", "corp-test.net"]


def ensure_pii_fixture(base_dir: str | None = None) -> str:
    """PII-bearing transcript fixture family for the redaction op: all
    plain turns (tool=""), with deterministic mixes of email addresses
    and 555-prefix phone numbers (plus PII-free turns, multi-PII turns,
    and PII embedded mid-sentence / at line starts). The redaction
    oracle recomputes from these RAW shards with the identical RE2
    patterns, so the check is independent of the engine."""
    return _family(base_dir, "pii", _pii_family)


def _pii_family():
    rows = []
    for conv in range(12):
        conv_id = f"pii-{conv:04d}"
        for t in range(10):
            uid = f"{conv_id}/{t}"
            h = _h(f"pii:{uid}")
            name = _PII_NAMES[h % len(_PII_NAMES)]
            dom = _PII_DOMAINS[(h >> 8) % len(_PII_DOMAINS)]
            phone = f"555{'-.'[(h >> 16) % 2]}{100 + h % 900}{'-.'[(h >> 16) % 2]}{1000 + (h >> 4) % 9000}"
            kind = t % 5
            if kind == 0:
                text = f"note {uid}: reach {name}@{dom} for details."
            elif kind == 1:
                text = f"{uid} call {phone} before noon."
            elif kind == 2:
                text = (
                    f"escalation {uid}: {name}.{_PII_NAMES[(h >> 24) % len(_PII_NAMES)]}"
                    f"@{dom} or {phone}\nsecond line cc {name}+spam@{dom}"
                )
            elif kind == 3:
                text = f"plain turn {uid} with no contact info at all."
            else:
                text = f"{name} at {dom} said {uid} (not an address); digits 12-34 stay."
            rows.append(_turn(conv_id, t, text, conv * 60 + t, _ROLES[t % 2]))
    return rows, 3


def ensure_htmlld_fixture(base_dir: str | None = None) -> str:
    """HTML fixture family for the link-density (readability-style)
    extractor variant: documents where the density and link-density
    rules legitimately differ — link-farm sidebars with long anchor
    text, short nav strips, link-heavy but prose-rich articles, table
    layouts, malformed markup (unclosed tags), and entity references.
    The golden is computed SERIALLY with html.extract_main_text_ld at
    generation time, so the Ray pipeline's distributed output has an
    engine-independent frozen target."""
    return _family(base_dir, "htmlld", _htmlld_family)


def _htmlld_doc(uid: str) -> str:
    h = _h(f"htmlld:{uid}")
    para = " ".join(f"word{(h >> (2 * i)) % 97}w{i}" for i in range(30 + h % 40))
    links = " ".join(
        f'<a href="/l{i}">long anchor text item number {i} {uid}</a>'
        for i in range(5 + h % 6)
    )
    nav = "".join(f'<a href="/n{i}">nav{i}</a> | ' for i in range(8))
    kind = h % 5
    if kind == 0:  # article vs link-farm sidebar
        return (
            f"<html><body><nav>{nav}</nav>"
            f"<div id=sidebar>{links}</div>"
            f"<article><h1>Title {uid}</h1><p>{para}</p><p>{para[::-1]}</p></article>"
            f"<footer>&copy; 2026 corp</footer></body></html>"
        )
    if kind == 1:  # link-heavy but prose-rich main vs short boilerplate
        return (
            f"<html><body><div class=menu>{nav}</div>"
            f"<main><p>{para} see <a href='/x'>reference {uid}</a> and "
            f"<a href='/y'>appendix</a>.</p><p>{para}</p></main></body></html>"
        )
    if kind == 2:  # table layout, unclosed tags
        return (
            f"<html><body><table><tr><td>{links}<td><p>{para}"
            f"<p>{para} &amp; more &lt;data&gt;</table></body></html>"
        )
    if kind == 3:  # nested divs of equal-ish text, entities
        return (
            f"<html><body><div><div>{para}</div>"
            f"<div><p>{para}</p><p>extra {uid} &quot;quoted&quot;</p></div></div>"
            f"<aside>{links}</aside></body></html>"
        )
    return (  # no candidate beats body; script/style must vanish
        f"<html><head><style>p {{color: red}}</style></head><body>"
        f"<script>var x = '{uid}';</script>{para}<br>{para}</body></html>"
    )


def _htmlld_family():
    from ..html.extract import extract_main_text_ld

    rows = []
    for conv in range(10):
        conv_id = f"htmlld-{conv:04d}"
        for t in range(8):
            rows.append(_turn(conv_id, t, _htmlld_doc(f"{conv_id}/{t}"), conv * 60 + t, _ROLES[t % 2]))
    gold = pa.Table.from_pylist(
        [{"conv_id": r["conv_id"], "turn_idx": r["turn_idx"], "main_text": extract_main_text_ld(r["text"])}
         for r in rows]
    )
    return rows, 3, {"golden.parquet": gold.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])}


def ensure_forks_fixture(base_dir: str | None = None) -> str:
    """Forked-conversation fixture family for conv_prefix_forks: fork
    families share their first 3 turns byte-exactly and then diverge —
    some with distinct turn-3 continuations (branch factor = members),
    some where two branches continue identically (branch factor <
    members), some members ending at exactly 3 turns (no continuation
    at all).  Singleton conversations are mixed in and must NOT appear
    in the output."""
    return _family(base_dir, "forks", _forks_family)


def _forks_family():
    rows = []

    def add_turn(conv_id: str, t: int, text: str) -> None:
        rows.append(_turn(conv_id, t, text, len(rows), _ROLES[t % 2]))

    for fam in range(18):
        h = _h(f"forks:{fam}")
        members = 2 + h % 3  # 2..4 branches
        prefix = [f"family {fam} opening line {h % 977}",
                  f"assistant ack {fam} token {(h >> 8) % 997}",
                  f"user follow-up {fam} detail {(h >> 16) % 983}"]
        for m in range(members):
            conv_id = f"fork-{fam:03d}-{m}"
            for t, txt in enumerate(prefix):
                add_turn(conv_id, t, txt)
            mode = (h >> (4 * m)) % 4
            if mode == 0 and m > 0:
                # continue identically to member 0 (shrinks branch factor)
                add_turn(conv_id, 3, f"family {fam} shared continuation")
                add_turn(conv_id, 4, f"family {fam} shared tail {m}")
            elif mode == 1:
                # ends exactly at the prefix: no turn-3 continuation
                pass
            else:
                add_turn(conv_id, 3, f"family {fam} branch {m} distinct reply")
                add_turn(conv_id, 4, f"family {fam} branch {m} tail")
    for s in range(25):
        h = _h(f"forks-single:{s}")
        conv_id = f"solo-{s:03d}"
        for t in range(3 + h % 4):
            add_turn(conv_id, t, f"solo {s} turn {t} text {(h >> t) % 991}")
    return rows, 4


def ensure_chains_fixture(base_dir: str | None = None) -> str:
    """Continuation-chain fixture family for conv_chain_stitch:
    sessions split across conversation ids, where the continuation's
    FIRST turn repeats the predecessor's LAST turn byte-exactly (the
    resume-from-context pattern agent frameworks emit).  Chains of
    length 2-4 are planted alongside standalone conversations and one
    deliberate red herring (two convs that merely share a middle
    turn, which must NOT stitch)."""
    return _family(base_dir, "chains", _chains_family)


def _chains_family():
    rows = []

    def add_turn(conv_id: str, t: int, text: str) -> None:
        rows.append(_turn(conv_id, t, text, len(rows), _ROLES[t % 2]))

    for ch in range(10):
        h = _h(f"chains:{ch}")
        n_links = 2 + h % 3
        carry = f"chain {ch} handoff token {(h >> 4) % 9973}"
        for link in range(n_links):
            conv_id = f"chain-{ch:03d}-{link}"
            t = 0
            if link > 0:
                add_turn(conv_id, t, carry)  # resume: repeat predecessor's tail
                t += 1
            n_body = 2 + (h >> (3 * link)) % 3
            for b in range(n_body):
                add_turn(conv_id, t, f"chain {ch} link {link} body {b} {(h >> b) % 991}")
                t += 1
            if link < n_links - 1:
                carry = f"chain {ch} handoff token {(h >> (8 + 4 * link)) % 9973}"
                add_turn(conv_id, t, carry)
    for s in range(15):
        h = _h(f"chains-solo:{s}")
        conv_id = f"standalone-{s:03d}"
        for t in range(2 + h % 3):
            add_turn(conv_id, t, f"standalone {s} turn {t} {(h >> t) % 883}")
    # red herring: a shared MIDDLE turn only
    add_turn("herring-a", 0, "herring a opening")
    add_turn("herring-a", 1, "shared middle line")
    add_turn("herring-a", 2, "herring a closing")
    add_turn("herring-b", 0, "herring b opening")
    add_turn("herring-b", 1, "shared middle line")
    add_turn("herring-b", 2, "herring b closing")
    return rows, 3


def ensure_unicode_fixture(base_dir: str | None = None) -> str:
    """Unicode-normalization fixture family for turn_nfc_audit: prose
    turns (no control bytes — DuckDB's nfc_normalize truncates at NUL,
    so the oracle needs clean text) mixing NFC-composed, NFC-DECOMPOSED
    (combining marks, Hangul jamo), compatibility forms that NFC leaves
    alone (fullwidth, ligatures — the NFKC-only cases), and plain
    ASCII."""
    return _family(base_dir, "unicode", _unicode_family)


def _unicode_family():
    rows = []

    decomposed = [
        "café menu review",            # e + COMBINING ACUTE -> é
        "Ångström units noted",  # A+ring, o+diaeresis
        "각 syllable test",  # Hangul jamo -> 각
        "résumé attached",
    ]
    composed = ["café menu review", "Ångström units noted", "각 syllable test"]
    nfkc_only = ["ﬁnal ﬂight", "ＦＵＬＬ　ＷＩＤＴＨ text", "x² + y²"]
    ascii_only = ["plain ascii line", "another plain line"]

    for i in range(12):
        h = _h(f"unicode:{i}")
        mix = []
        for j in range(5):
            pool = [decomposed, composed, nfkc_only, ascii_only][(h >> (2 * j)) % 4]
            mix.append(pool[(h >> (10 + j)) % len(pool)])
        _append_conv(rows, f"uni-{i:03d}", mix)
    _append_conv(rows, "uni-plain", ascii_only * 2)
    return rows, 2


def ensure_homoglyph_fixture(base_dir: str | None = None) -> str:
    """Mixed-script / homoglyph fixture family for turn_homoglyph_audit:
    prose turns where some tokens mix Latin with Cyrillic or Greek
    lookalikes (the spoofing / bad-OCR signal a text cleaner flags),
    alongside pure-Latin, pure-Cyrillic and pure-Greek tokens that must
    NOT be flagged."""
    return _family(base_dir, "homoglyph", _homoglyph_family)


def _homoglyph_family():
    rows = []

    # mixed tokens: Latin letters with a Cyrillic or Greek lookalike
    mixed = [
        "pаyment",    # Cyrillic a
        "сluster",    # Cyrillic s-lookalike c
        "latоncy",  # Cyrillic o (U+043E)
        "micrοservice",  # Greek omicron
        "tеst",       # Cyrillic e
    ]
    pure = [
        "payment", "cluster", "latency",
        "привет",  # privet (pure Cyrillic)
        "λόγος",  # logos (pure Greek)
        "mixed-case-ASCII", "42numbers42",
    ]

    for i in range(10):
        h = _h(f"homoglyph:{i}")
        texts = []
        for t in range(4):
            words = []
            for j in range(5):
                hh = h >> (3 * (t * 5 + j) % 29)
                if hh % 4 == 0:
                    words.append(mixed[hh % len(mixed)])
                else:
                    words.append(pure[hh % len(pure)])
            texts.append(" ".join(words))
        _append_conv(rows, f"hg-{i:03d}", texts)
    _append_conv(rows, "hg-clean", ["entirely clean ascii prose", "привет clean separate scripts"])
    return rows, 2


def ensure_invisible_fixture(base_dir: str | None = None) -> str:
    """Invisible-character fixture family for turn_invisible_chars_audit:
    prose turns salted with zero-width spaces/joiners, soft hyphens,
    BOMs and NBSPs (the invisible codepoints that poison exact dedup
    and tokenizers), next to clean twins of the same visible text."""
    return _family(base_dir, "invisible", _invisible_family)


def _invisible_family():
    rows = []

    zwsp, zwnj, zwj, shy, bom, nbsp = (
        "​", "‌", "‍", "­", "﻿", " ",
    )
    salted = [
        f"inline{zwsp}zero width space",
        f"joi{zwnj}ner and {zwj}seq",
        f"hy{shy}phen{shy}ation",
        f"{bom}leading byte order mark",
        f"non{nbsp}breaking{nbsp}space",
    ]
    clean = [
        "inlinezero width space",
        "joiner and seq",
        "hyphenation",
        "leading byte order mark",
        "non breaking space",
        "entirely boring ascii",
    ]

    for i in range(9):
        h = _h(f"invisible:{i}")
        texts = []
        for t in range(4):
            pool = salted if (h >> t) % 3 == 0 else clean
            texts.append(pool[(h >> (4 + t)) % len(pool)])
        _append_conv(rows, f"inv-{i:03d}", texts)
    return rows, 2
