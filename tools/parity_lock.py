"""Binary-free parity lock for the PDF interpreter.

Recomputes the `text` and `chars` output of a fixed document set and
compares it with `tests/parity_digests.tsv`: one short md5 per document
per mode, over `ok:<text>` or `error:<kind>:<message>`, plus the md5 of
the input bytes. The documents are the seeded differential-fuzz
documents (`fuzz_pdf`, `fuzz_cmap_pdf`), `PDF_CONSTRUCTS` under four
uids, and the spec-mode families (`SPEC15_`/`XOBJ_`/`FILTER_CONSTRUCTS`,
extracted with spec_mode=True). The parity-mode outputs are the ones
checked byte for byte against the pdfrust reference binary; where that
binary is built, `tests/test_differential.py` stays the authority.

`raw-content` and `font` are left out: the parity flate quirk pads
`raw-content` to 10x the compressed length, which depends on the zlib
that built the document.

An input md5 mismatch means this host's zlib builds other PDF bytes, not
that the engine changed. Regenerate the file only for an intended output
change, and say why in CHANGES.md.

    python tools/parity_lock.py          # compare; exit 1 on any mismatch
    python tools/parity_lock.py --write  # regenerate the digest file
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

from pdfrust_ray.fixtures.pdfgen import (
    FILTER_CONSTRUCTS,
    PDF_CONSTRUCTS,
    SPEC15_CONSTRUCTS,
    XOBJ_CONSTRUCTS,
    fuzz_cmap_pdf,
    fuzz_pdf,
)
from pdfrust_ray.pdfref import ParseError, extract

DIGESTS = REPO / "tests" / "parity_digests.tsv"
N_FUZZ = 1500
N_CMAP = 500
UIDS = ("u0", "u1", "t7", "z9")
MODES = ("text", "chars")
HEADER = "# doc_id\tinput_md5\t" + "\t".join(f"{m}_md5" for m in MODES)


def documents():
    """(doc_id, pdf bytes, spec_mode) for every locked document."""
    for seed in range(N_FUZZ):
        yield f"fuzz/{seed}", fuzz_pdf(seed), False
    for seed in range(N_CMAP):
        yield f"cmap/{seed}", fuzz_cmap_pdf(seed), False
    for cid, build in sorted(PDF_CONSTRUCTS.items()):
        for uid in UIDS:
            yield f"{cid}/{uid}", build(uid), False
    for family in (SPEC15_CONSTRUCTS, XOBJ_CONSTRUCTS, FILTER_CONSTRUCTS):
        for cid, build in sorted(family.items()):
            for uid in UIDS:
                yield f"spec:{cid}/{uid}", build(uid), True


def outcome(data: bytes, mode: str, spec_mode: bool) -> str:
    """The output of one document in one mode, as the digest sees it."""
    try:
        return "ok:" + extract(data, mode, spec_mode=spec_mode).text
    except ParseError as exc:
        return f"error:{exc.kind}:{exc.message}"
    except Exception as exc:  # noqa: BLE001 — an error row, like extract_row
        return f"error:Internal:{type(exc).__name__}"


def _md5(b: bytes) -> str:
    return hashlib.md5(b).hexdigest()[:12]


def digest_rows():
    """(doc_id, input md5, one output md5 per mode) per document."""
    for doc_id, data, spec in documents():
        outs = (_md5(outcome(data, m, spec).encode("utf-8", "surrogatepass")) for m in MODES)
        yield (doc_id, _md5(data), *outs)


def read_digests(path: Path = DIGESTS) -> dict[str, list[str]]:
    rows = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            doc_id, *digests = line.split("\t")
            rows[doc_id] = digests
    return rows


def write_digests(path: Path = DIGESTS) -> int:
    lines = [HEADER, *("\t".join(row) for row in digest_rows())]
    path.write_text("\n".join(lines) + "\n")
    return len(lines) - 1


def mismatches(path: Path = DIGESTS) -> list[str]:
    """One line per document (and mode) whose digest differs."""
    want = read_digests(path)
    bad, seen = [], set()
    for doc_id, input_md5, *outs in digest_rows():
        seen.add(doc_id)
        exp = want.get(doc_id)
        if exp is None:
            bad.append(f"{doc_id}: not in the digest file")
        elif exp[0] != input_md5:
            bad.append(f"{doc_id}: input differs (this host builds other PDF bytes)")
        else:
            bad += [f"{doc_id} {m}: output differs" for m, e, g in zip(MODES, exp[1:], outs) if e != g]
    bad += [f"{doc_id}: in the digest file but not built" for doc_id in want if doc_id not in seen]
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", action="store_true", help="regenerate the digest file")
    args = ap.parse_args(argv)
    if args.write:
        print(f"wrote {write_digests()} documents to {DIGESTS}")
        return 0
    bad = mismatches()
    print("\n".join(bad) if bad else f"parity lock: {len(read_digests())} documents match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
