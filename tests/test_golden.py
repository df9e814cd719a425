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

from pathlib import Path

from cylset.cli import main
from cylset.units import save_unit, unit

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "replicate_all.jsonl"


def test_replicate_all_json_matches_golden(shared_replicate, capsys):
    assert main(["replicate", "--suite", "all", "--json"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


# Postulate failures, in the order the checker lists them, are pinned byte
# for byte by two files made with the one-instance-at-a-time checker.


def test_exhaustive_postulate_failures_match_golden(capsys):
    """Every Crs unit over window 3, base 2, with at most 3 sequences:
    606 CA6 failures and 48 CA4 failures."""
    argv = ["check-axioms", "--class", "crs", "--window", "3", "--max-base", "2", "--max-seqs", "3", "--json"]
    assert main(argv) == 1
    assert capsys.readouterr().out == (DATA / "check_axioms_crs_window3.jsonl").read_text()


def test_sampled_postulate_failures_match_golden(tmp_path, capsys):
    """Thirteen sequences over window 4, so 50 seeded subsets and pairs:
    85 CA4 failures and 26 CA6 failures."""
    path = tmp_path / "u13.json"
    save_unit(unit((0, 1, 2, 3), [tuple(c >> k & 1 for k in range(4)) for c in range(13)]), str(path))
    assert main(["check-axioms", "--unit", str(path), "--samples", "50", "--json"]) == 1
    assert capsys.readouterr().out == (DATA / "check_axioms_unit13_sampled.jsonl").read_text()
