import json

import pytest

from cylset.cli import main
from cylset.constructions import certificate_from_dict, verify_certificate
from cylset.units import save_unit, unit

SQ22 = unit((0, 1), [(0, 0), (0, 1), (1, 0), (1, 1)])
NOT_DIAG = unit((0, 1), [(0, 1)])
CA4_UNIT = unit((0, 1), [(0, 0), (1, 0), (1, 1)])


@pytest.fixture
def sq22_file(tmp_path):
    path = tmp_path / "sq22.json"
    save_unit(SQ22, str(path))
    return str(path)


@pytest.fixture
def notdiag_file(tmp_path):
    path = tmp_path / "notdiag.json"
    save_unit(NOT_DIAG, str(path))
    return str(path)


@pytest.fixture
def ca4_file(tmp_path):
    path = tmp_path / "ca4.json"
    save_unit(CA4_UNIT, str(path))
    return str(path)


class TestParseCommand:
    def test_ok(self, capsys):
        assert main(["parse", "--term", "x0 . -c0 -d01", "--vars", "1"]) == 0
        out = capsys.readouterr().out
        assert "x0 . -c0 -d01" in out

    def test_variable_out_of_range(self, capsys):
        assert main(["parse", "--term", "x3", "--vars", "2"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_syntax_error(self, capsys):
        assert main(["parse", "--term", "x0 . ?"]) == 2

    def test_json(self, capsys):
        assert main(["parse", "--term", "c2 d23", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"term": "c2 d23", "index_set": [2, 3], "variables": []}


class TestEvalCommand:
    def test_escape_region(self, sq22_file, capsys):
        code = main(["eval", "--unit", sq22_file, "--term", "c0 -d01", "--assign", "x0=[0]"])
        assert code == 0
        assert "4 of 4" in capsys.readouterr().out

    def test_json_positions(self, sq22_file, capsys):
        main(["eval", "--unit", sq22_file, "--term", "c0 x0", "--assign", "x0=[0]", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["positions"] == [0, 2]
        assert data["sequences"] == [[0, 0], [1, 0]]

    def test_bad_assignment(self, sq22_file, capsys):
        assert main(["eval", "--unit", sq22_file, "--term", "x0", "--assign", "x0=0"]) == 2

    def test_malformed_unit_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"sequences\": []}")
        assert main(["eval", "--unit", str(path), "--term", "1"]) == 2
        assert "malformed" in capsys.readouterr().err


class TestClassifyCommand:
    def test_crs_only(self, notdiag_file, capsys):
        assert main(["classify", "--unit", notdiag_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == ["Crs"]

    def test_full_square(self, sq22_file, capsys):
        assert main(["classify", "--unit", sq22_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == ["Crs", "D", "G", "Gs"]


class TestCheckCommands:
    def test_axioms_pass_on_square(self, sq22_file):
        assert main(["check-axioms", "--unit", sq22_file]) == 0

    def test_axioms_fail_on_ca4_unit(self, ca4_file, capsys):
        assert main(["check-axioms", "--unit", ca4_file, "--json"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        failures = [json.loads(line) for line in lines[1:]]
        assert any(f["law"] == "CA4" for f in failures)

    def test_axioms_on_mapped_algebra(self):
        assert main(["check-axioms", "--mapped", "2", "--samples", "50"]) == 0

    def test_axioms_need_target(self, capsys):
        assert main(["check-axioms"]) == 2

    def test_eq_laws(self, sq22_file, ca4_file):
        assert main(["check-eqs", "--unit", sq22_file]) == 0
        assert main(["check-eqs", "--unit", ca4_file]) == 0

    def test_eq_laws_over_enumerated_class(self, capsys):
        code = main(["check-eqs", "--class", "crs", "--window", "2", "--max-base", "2", "--max-seqs", "16"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_axioms_over_enumerated_classes(self, capsys):
        assert main(["check-axioms", "--class", "gs", "--window", "2", "--max-base", "2", "--max-seqs", "16"]) == 0
        capsys.readouterr()
        # Arbitrary units include commutation breakers, so this must fail.
        assert main(["check-axioms", "--class", "crs", "--window", "2", "--max-base", "2", "--max-seqs", "4"]) == 1

    def test_axioms_sample_pairs_on_ten_sequences(self, tmp_path, capsys):
        # 2^10 subsets are all checked, but 2^20 pairs exceed the cap.
        path = tmp_path / "ten.json"
        save_unit(unit((0, 1, 2, 3), [tuple(c >> k & 1 for k in range(4)) for c in range(10)]), str(path))
        # The unit is not closed under the commutation postulate CA4.
        assert main(["check-axioms", "--unit", str(path), "--samples", "20", "--json"]) == 1
        summary = json.loads(capsys.readouterr().out.splitlines()[0])
        assert summary["exhaustive"] is False
        assert summary["notes"] == "postulates checked on every subset and 20 seeded pairs"

    def test_eqs_check_every_pair_on_six_sequences(self, tmp_path, capsys):
        path = tmp_path / "six.json"
        save_unit(unit((0, 1, 2), [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]), str(path))
        assert main(["check-eqs", "--unit", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"checked": 25350, "exhaustive": True, "failures": 0}


class TestSplitCommand:
    def test_diag_split_json_reverifies(self, sq22_file, capsys):
        code = main([
            "split", "--unit", sq22_file, "--term", "x0",
            "--assign", "x0=[0,1,2,3]", "--mode", "diag", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verified"] is True
        assert verify_certificate(certificate_from_dict(data))

    def test_crs_split(self, notdiag_file, capsys):
        code = main([
            "split", "--unit", notdiag_file, "--term", "x0",
            "--assign", "x0=[0]", "--mode", "crs",
        ])
        assert code == 0
        assert "verified: True" in capsys.readouterr().out

    @pytest.mark.parametrize("focus", ["-1", "99"])
    def test_focus_out_of_range(self, focus, sq22_file, capsys):
        code = main([
            "split", "--unit", sq22_file, "--term", "x0",
            "--assign", "x0=[0,1,2,3]", "--focus", focus,
        ])
        assert code == 2
        assert "0..3" in capsys.readouterr().err

    def test_unsatisfiable_target(self, sq22_file, capsys):
        code = main(["split", "--unit", sq22_file, "--term", "0", "--mode", "crs"])
        assert code == 1

    def test_pivot_flag(self, tmp_path, capsys):
        path = tmp_path / "u.json"
        save_unit(unit((0, 1), [(0, 0), (1, 0), (0, 1)]), str(path))
        code = main([
            "split", "--unit", str(path), "--term", "x0",
            "--assign", "x0=[0,1,2]", "--mode", "diag", "--pivot", "1", "--focus", "0",
        ])
        assert code == 0
        assert "c1(" in capsys.readouterr().out


@pytest.fixture
def split_json(sq22_file, capsys):
    """A certificate as `split --json` prints it."""
    assert main([
        "split", "--unit", sq22_file, "--term", "x0",
        "--assign", "x0=[0,1,2,3]", "--mode", "diag", "--json",
    ]) == 0
    return json.loads(capsys.readouterr().out)


def _write_cert(tmp_path, data) -> str:
    path = tmp_path / "cert.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


class TestVerifyCommand:
    def test_split_output_verifies(self, split_json, tmp_path, capsys):
        split_json["verified"] = False  # ignored: the command re-checks
        assert main(["verify", "--cert", _write_cert(tmp_path, split_json), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"original": split_json["original"], "verified": True}

    def test_swapped_evaluation_is_rejected(self, split_json, tmp_path, capsys):
        split_json["positive"]["evaluation"] = split_json["negative"]["evaluation"]
        assert main(["verify", "--cert", _write_cert(tmp_path, split_json)]) == 1
        assert "verified: False" in capsys.readouterr().out

    def test_unreadable_json(self, tmp_path, capsys):
        assert main(["verify", "--cert", _write_cert(tmp_path, "{not json")]) == 2
        assert "cannot read certificate" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["verify", "--cert", str(tmp_path / "absent.json")]) == 2
        assert "cannot read certificate" in capsys.readouterr().err

    def test_missing_field_is_named(self, split_json, tmp_path, capsys):
        del split_json["negative"]["unit"]
        assert main(["verify", "--cert", _write_cert(tmp_path, split_json)]) == 2
        assert "negative.unit" in capsys.readouterr().err

    def test_term_syntax_error(self, split_json, tmp_path, capsys):
        split_json["splitter"] = "c0 (x0"
        assert main(["verify", "--cert", _write_cert(tmp_path, split_json)]) == 2
        captured = capsys.readouterr()
        assert captured.err and captured.out == ""

    def test_negative_position(self, split_json, tmp_path, capsys):
        split_json["positive"]["evaluation"]["x0"] = [-1]
        assert main(["verify", "--cert", _write_cert(tmp_path, split_json)]) == 2
        assert "lists a position outside" in capsys.readouterr().err


class TestWitnessCommand:
    def test_small_witness(self, capsys):
        assert main(["witness", "--n", "2", "--samples", "50"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_json_summary(self, capsys):
        assert main(["witness", "--n", "2", "--samples", "20", "--json"]) == 0
        data = json.loads(capsys.readouterr().out.splitlines()[0])
        assert data["failures"] == 0


class TestRefuteTwinsCommand:
    def test_base_one(self, capsys):
        assert main(["refute-twins", "--max-base", "1"]) == 0
        assert "checked=4" in capsys.readouterr().out


class TestReplicateCommand:
    def test_single_suite(self, capsys):
        assert main(["replicate", "--suite", "atom-census"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("atom-census: PASS")

    def test_all_suites(self, shared_replicate, capsys):
        assert main(["replicate"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7

    def test_unknown_suite(self, capsys):
        assert main(["replicate", "--suite", "bogus"]) == 2

    def test_deterministic_output(self, capsys):
        main(["replicate", "--suite", "equations", "--json"])
        first = capsys.readouterr().out
        main(["replicate", "--suite", "equations", "--json"])
        assert capsys.readouterr().out == first
