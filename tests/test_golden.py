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

GOLDEN = Path(__file__).parent / "data" / "replicate_all.jsonl"


def test_replicate_all_json_matches_golden(shared_replicate, capsys):
    assert main(["replicate", "--suite", "all", "--json"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
