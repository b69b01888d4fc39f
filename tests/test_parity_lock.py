"""The committed parity lock (tools/parity_lock.py): the text and chars
output of every locked document must match its digest in
tests/parity_digests.tsv. Needs no reference binary."""

from tools.parity_lock import MODES, mismatches, read_digests


def test_lock_covers_the_fuzz_and_construct_documents():
    rows = read_digests()
    assert len(rows) >= 2000
    assert all(len(d) == 1 + len(MODES) for d in rows.values())


def test_outputs_match_the_committed_digests():
    bad = mismatches()
    assert not bad, f"{len(bad)} parity-lock mismatches:\n" + "\n".join(bad[:40])
