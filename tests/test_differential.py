"""Differential fuzzing against the actual reference binary.

Generates randomized-but-seeded PDFs (random content-stream operator
sequences, literal/hex strings, escapes, kerned TJ arrays, CMap-coded
text) and asserts the engine's output is byte-identical to the
reference binary's (modulo the reference's unknown-operator stdout
logging). Those tests are skipped when the locally-built reference
binary is absent — see .claude/skills/verify/SKILL.md for the build
recipe; the spec-vs-parity invariant below needs no binary.
"""

import os
import subprocess
import tempfile

import pytest

from pdfrust_ray.fixtures.pdfgen import fuzz_cmap_pdf, fuzz_pdf
from pdfrust_ray.pdfref import ParseError, extract

BIN = "/tmp/refbuild/target/release/pdfrust"

needs_binary = pytest.mark.skipif(
    not os.path.exists(BIN), reason="reference binary not built (see verify skill)"
)


def _reference_output(path: str, mode: str):
    p = subprocess.run([BIN, mode, path], capture_output=True, timeout=60)
    if p.returncode != 0:
        return None
    out = p.stdout.decode("utf-8", errors="replace")
    out = "\n".join(l for l in out.split("\n") if not l.startswith("Content token operator"))
    if out.endswith("\n"):
        out = out[:-1]
    return out


@needs_binary
@pytest.mark.parametrize("seed", range(80))
def test_differential_random_pdfs(seed):
    data = fuzz_pdf(seed)
    with tempfile.NamedTemporaryFile(suffix=".pdf", delete=False) as f:
        f.write(data)
        path = f.name
    try:
        for mode in ("--text", "--chars"):
            ref = _reference_output(path, mode)
            try:
                mine = extract(data, mode[2:]).text
            except ParseError:
                mine = None
            if ref is None:
                assert mine is None, f"seed {seed} {mode}: reference errored, engine did not"
            else:
                assert mine == ref, f"seed {seed} {mode}: output diverges"
    finally:
        os.unlink(path)


@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_spec_mode_agrees_on_random_classic_docs(seed):
    """Invariant: on classic-xref documents, spec-mode extraction equals
    parity-mode extraction (which is byte-verified vs the binary) —
    the ISO xref layer must resolve identical offsets. Needs no binary."""
    data = fuzz_pdf(seed)
    for mode in ("text", "chars"):
        try:
            parity = extract(data, mode).text
        except ParseError:
            continue  # deliberate error constructs: parity errors, nothing to compare
        assert extract(data, mode, spec_mode=True).text == parity, f"seed {seed} {mode}"


@needs_binary
@pytest.mark.parametrize("seed", range(50))
def test_differential_cmap_pdfs(seed):
    data = fuzz_cmap_pdf(seed)
    with tempfile.NamedTemporaryFile(suffix=".pdf", delete=False) as f:
        f.write(data)
        path = f.name
    try:
        for mode in ("--text", "--chars"):
            ref = _reference_output(path, mode)
            try:
                mine = extract(data, mode[2:]).text
            except ParseError:
                mine = None
            if ref is None:
                assert mine is None, f"seed {seed} {mode}: reference errored, engine did not"
            else:
                assert mine == ref, f"seed {seed} {mode}: output diverges"
    finally:
        os.unlink(path)
