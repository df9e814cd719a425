"""`cylset replicate --suite all --json` output is pinned byte for byte.

The data file holds the output of the set-based evaluator this package
used before subsets became bitmasks, with two later changes: the zero-dim
notes state their sentence once now that merged reports drop repeated
notes, and the twin-system line comes from the default base 4 (it was
base 2), whose notes count the nonzero x that pass both diagonal bounds.
"""

from pathlib import Path

from cylset.cli import main

GOLDEN = Path(__file__).parent / "data" / "replicate_all.jsonl"


def test_replicate_all_json_matches_golden(capsys):
    assert main(["replicate", "--suite", "all", "--json"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
