"""`cylset replicate --suite all --json` output is pinned byte for byte.

The data file holds the output of the set-based evaluator this package
used before subsets became bitmasks, with two later changes: the zero-dim
notes state their sentence once now that merged reports drop repeated
notes, and the twin-system line comes from the default base 4 (it was
base 2), whose notes count the nonzero x that pass both diagonal bounds.
The zero-dim line changed once more when its D search moved from base 2,
<= 4 sequences (3 nonempty D units, all of constant sequences, where the
guard swap cannot fail) to window 4, base 3, all 81 sequences: 19 units,
11 of them holding a non-constant sequence, and sampled evaluations, which
the line's notes and its "exhaustive": false now state.
"""

import json
from pathlib import Path

import pytest

from cylset import semantics
from cylset.cli import main
from cylset.constructions import certificate_to_dict, diag_split_corpus, split_atom_diag

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "replicate_all.jsonl"


def test_replicate_all_json_matches_golden(shared_replicate, capsys):
    assert main(["replicate", "--suite", "all", "--json"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_split_diag_corpus_certificates_match_golden():
    """The certificate of every `diag_split_corpus` instance, one JSON line
    each with sorted keys.  The file was written while the builder still
    tried pivots and escapes until one verified, so it pins that building
    from the least escape alone gives the same certificates."""
    lines = [
        json.dumps(certificate_to_dict(split_atom_diag(*w, term)), sort_keys=True) + "\n"
        for w, term in diag_split_corpus()
    ]
    assert "".join(lines) == (DATA / "split_diag_corpus.jsonl").read_text()


# Postulate failures, in the order the checker lists them, are pinned byte
# for byte by two files made with the one-instance-at-a-time checker.
EXHAUSTIVE_ARGV = ["check-axioms", "--class", "crs", "--window", "3", "--max-base", "2", "--max-seqs", "3", "--json"]
# unit13.json holds the 13 sequences over window 4 whose values, read as bits
# lowest first, are 0 to 12.
SAMPLED_ARGV = ["check-axioms", "--unit", str(DATA / "unit13.json"), "--samples", "50", "--json"]


def test_exhaustive_postulate_failures_match_golden(capsys):
    """Every Crs unit over window 3, base 2, with at most 3 sequences:
    606 CA6 failures and 48 CA4 failures."""
    assert main(EXHAUSTIVE_ARGV) == 1
    assert capsys.readouterr().out == (DATA / "check_axioms_crs_window3.jsonl").read_text()


def test_sampled_postulate_failures_match_golden(capsys):
    """Thirteen sequences over window 4, so 50 seeded subsets and pairs:
    85 CA4 failures and 26 CA6 failures."""
    assert main(SAMPLED_ARGV) == 1
    assert capsys.readouterr().out == (DATA / "check_axioms_unit13_sampled.jsonl").read_text()


@pytest.mark.parametrize("argv,golden", [
    (EXHAUSTIVE_ARGV, "check_axioms_crs_window3.jsonl"),
    (SAMPLED_ARGV, "check_axioms_unit13_sampled.jsonl"),
])
def test_postulate_failures_match_golden_across_chunk_seams(argv, golden, monkeypatch, capsys):
    """At 8 lanes a chunk, the 50 sampled subsets and pairs take 7 chunks
    each, the last of 2 lanes, and a three-sequence unit's 64 pairs take 8;
    the output is the same."""
    monkeypatch.setattr(semantics, "_LANE_BITS", 1)
    assert main(argv) == 1
    assert capsys.readouterr().out == (DATA / golden).read_text()
