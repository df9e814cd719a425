"""Inputs outside the supported range fail with a clear error, not a crash."""

import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import cylset
from cylset import constructions
from cylset.cli import main
from cylset.constructions import (
    certificate_from_dict,
    certificate_to_dict,
    mapped_witness,
    refute_twins_in_gs2,
    replicate,
    split_atom_diag,
)
from cylset.semantics import (
    MappedUnitAlgebra,
    UnitAlgebra,
    check_ca_axioms,
    check_eq_laws,
    evaluate,
    evaluation_from_dict,
)
from cylset.terms import MAX_DEPTH, TermSyntaxError, Var, parse_term
from cylset.units import MAX_UNITS, ClassTag, classify, enumerate_units, full_square, save_unit, seq, unit

SQ22 = full_square((0, 1), (0, 1))

DEEP_TERMS = {
    "minus": "-" * 3000 + "x0",
    "parens": "(" * 1200 + "x0" + ")" * 1200,
    "cyl": "c0 " * 3000,
}


@pytest.fixture
def sq22_file(tmp_path):
    path = tmp_path / "sq22.json"
    save_unit(SQ22, str(path))
    return str(path)


class TestDeepTerms:
    @pytest.mark.parametrize("name", sorted(DEEP_TERMS))
    def test_parse_exits_2(self, name, capsys):
        assert main(["parse", f"--term={DEEP_TERMS[name]}"]) == 2
        assert "nests deeper" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(DEEP_TERMS))
    def test_eval_exits_2(self, name, sq22_file, capsys):
        code = main(["eval", "--unit", sq22_file, f"--term={DEEP_TERMS[name]}", "--assign", "x0=[0]"])
        assert code == 2
        assert "nests deeper" in capsys.readouterr().err

    def test_error_points_at_first_level_too_deep(self):
        with pytest.raises(TermSyntaxError) as err:
            parse_term("(" * (MAX_DEPTH + 1) + "x0" + ")" * (MAX_DEPTH + 1))
        assert err.value.position == MAX_DEPTH

    def test_long_join_is_capped_too(self):
        with pytest.raises(TermSyntaxError, match="nests deeper"):
            parse_term(" + ".join(["x0"] * 3000))

    @pytest.mark.parametrize("text", ["-" * MAX_DEPTH + "x0", "(" * MAX_DEPTH + "x0" + ")" * MAX_DEPTH])
    def test_deepest_accepted_term_evaluates(self, text):
        t = parse_term(text)
        x = frozenset({seq((0, 1), (0, 0))})
        assert evaluate(t, SQ22, {0: x}) in (x, SQ22.as_set() - x)

    def test_cli_accepts_deepest_term(self, capsys):
        assert main(["parse", "--term=" + "-" * MAX_DEPTH + "x0"]) == 0


class TestMappedWindowRange:
    @pytest.mark.parametrize("n", ["1", "5"])
    def test_check_axioms_exits_2(self, n, capsys):
        assert main(["check-axioms", "--mapped", n]) == 2
        assert "2 <= n <= 4" in capsys.readouterr().err

    def test_constructor_rejects(self):
        with pytest.raises(ValueError):
            MappedUnitAlgebra(5)


class TestTwinBaseRange:
    """Only the refusal is checked; base 5 must never be run."""

    @pytest.mark.parametrize("max_base", [0, 5])
    def test_function_rejects(self, max_base):
        with pytest.raises(ValueError, match=r"1\.\.4"):
            refute_twins_in_gs2(max_base)

    @pytest.mark.parametrize("max_base", [0, 5])
    def test_replicate_rejects_before_running(self, max_base, monkeypatch):
        ran = []
        fakes = {name: (lambda name=name, **kw: ran.append(name)) for name in constructions.REPLICATION_SUITES}
        monkeypatch.setattr(constructions, "REPLICATION_SUITES", fakes)
        with pytest.raises(ValueError, match=r"1\.\.4"):
            replicate("all", max_base=max_base)
        assert ran == []

    @pytest.mark.parametrize("command", ["refute-twins", "replicate"])
    @pytest.mark.parametrize("max_base", ["0", "5"])
    def test_cli_exits_2(self, command, max_base, capsys):
        assert main([command, "--max-base", max_base]) == 2
        captured = capsys.readouterr()
        assert "1..4" in captured.err and captured.out == ""


class TestCountFlagRange:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["witness", "--n", "4", "--samples", "-1", "--json"], "--samples"),
            (["witness", "--samples", "0"], "--samples"),
            (["check-axioms", "--mapped", "3", "--samples", "-5"], "--samples"),
            (["check-eqs", "--unit", "unused.json", "--samples", "0"], "--samples"),
            (["check-eqs", "--class", "crs", "--max-seqs", "-1"], "--max-seqs"),
            (["check-axioms", "--class", "d", "--window", "-2"], "--window"),
            (["check-eqs", "--class", "d", "--window", "0"], "--window"),
        ],
    )
    def test_cli_exits_2(self, argv, flag, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be at least" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["check-axioms", "check-eqs"])
    @pytest.mark.parametrize("max_base", ["0", "-3"])
    def test_enumeration_max_base_floor_names_the_flag(self, command, max_base, capsys):
        assert main([command, "--class", "d", "--max-base", max_base]) == 2
        captured = capsys.readouterr()
        assert f"--max-base must be at least 1, got {max_base}" in captured.err and captured.out == ""

    def test_cli_accepts_the_least_values(self, capsys):
        argv = ["check-axioms", "--class", "d", "--window", "1", "--max-seqs", "0", "--samples", "1"]
        assert main(argv) == 0

    @pytest.mark.parametrize("samples", [0, -1])
    def test_mapped_witness_rejects(self, samples):
        with pytest.raises(ValueError, match="ca_samples must be at least 1"):
            mapped_witness(2, ca_samples=samples)

    @pytest.mark.parametrize("tag", list(ClassTag))
    def test_enumeration_rejects_negative_max_seqs(self, tag):
        with pytest.raises(ValueError, match="max_seqs must be at least 0"):
            next(enumerate_units((0, 1), 2, -1, tag))


class TestOneAssignmentPerVariable:
    @pytest.mark.parametrize("name", ["x00", "x01", "x\u0663", "x", "x-1", "X0"])
    def test_decoder_rejects_other_spellings(self, name):
        with pytest.raises(ValueError, match=re.escape(f"bad variable name {name!r}")):
            evaluation_from_dict(SQ22, {"x0": [0], name: [1]})

    @pytest.mark.parametrize(
        "assigns,message",
        [
            (["x0=[0]", "x00=[1]"], "bad variable name 'x00'"),
            (["x0=[0]", "x0=[1]"], "--assign gives x0 more than once"),
        ],
    )
    def test_cli_exits_2(self, assigns, message, sq22_file, capsys):
        argv = ["eval", "--unit", sq22_file, "--term", "x0"]
        for item in assigns:
            argv += ["--assign", item]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_certificate_error_names_the_field(self):
        data = certificate_to_dict(split_atom_diag(SQ22, seq((0, 1), (0, 1)), {0: SQ22.as_set()}, Var(0)))
        data["negative"]["evaluation"]["x00"] = data["negative"]["evaluation"].pop("x0")
        with pytest.raises(ValueError, match=r"negative\.evaluation: bad variable name 'x00'"):
            certificate_from_dict(data)


class TestCertificateFields:
    def test_missing_top_level_field(self):
        with pytest.raises(ValueError, match="splitter"):
            certificate_from_dict({"original": "x0"})

    def test_missing_half_field(self):
        v = SQ22
        f = seq((0, 1), (0, 1))
        data = certificate_to_dict(split_atom_diag(v, f, {0: v.as_set()}, Var(0)))
        del data["positive"]["focus"]
        with pytest.raises(ValueError, match="positive.focus"):
            certificate_from_dict(data)

    def test_not_a_dict(self):
        with pytest.raises(ValueError, match="original"):
            certificate_from_dict([])


@pytest.mark.parametrize("position", [-1, -4, 4, True, "0"])
def test_evaluation_rejects_positions_outside_the_unit(position):
    with pytest.raises(ValueError, match=r"x0 lists a position outside 0\.\.3"):
        evaluation_from_dict(SQ22, {"x0": [0, position]})


class TestEnumerationCap:
    @pytest.mark.parametrize("command", ["check-axioms", "check-eqs"])
    def test_class_flag_exits_2_before_enumerating(self, command, capsys):
        # About 1.2e8 combinations of the 27-sequence square.
        code = main([command, "--class", "crs", "--window", "3", "--max-base", "3", "--max-seqs", "16"])
        assert code == 2
        assert f"enumeration cap of {MAX_UNITS}" in capsys.readouterr().err

    @pytest.mark.parametrize("tag", [ClassTag.D, ClassTag.G, ClassTag.GS])
    def test_closure_generators_stop_at_the_cap(self, tag):
        # Over a one-index window every one of the 2^17 subsets is closed.
        with pytest.raises(ValueError, match="enumeration cap"):
            next(enumerate_units((0,), 17, 17, tag))

    @pytest.mark.parametrize("tag", list(ClassTag))
    def test_square_over_the_cap_is_refused(self, tag):
        with pytest.raises(ValueError, match="131072 sequences"):
            next(enumerate_units(range(17), 2, 0, tag))

    def test_cap_admits_the_full_subset_space_of_16_sequences(self):
        assert sum(1 for _ in enumerate_units((0, 1, 2, 3), 2, 16)) == MAX_UNITS

    @pytest.mark.parametrize("tag", [ClassTag.D, ClassTag.G])
    def test_closure_generators_admit_the_full_subset_space_of_16_sequences(self, tag):
        # Over a one-index window every one of the 2^16 subsets is closed.
        assert sum(1 for _ in enumerate_units((0,), 16, 16, tag)) == MAX_UNITS


class TestClassifyBuildsNoSquareOverTheUnit:
    """An injective sequence over 10 indices has a range of 10 elements, whose
    square of 10^10 sequences must never be built to classify it."""

    UNIT = unit(range(10), [tuple(range(10))])

    def test_classify(self):
        start = perf_counter()
        assert classify(self.UNIT) == {ClassTag.CRS}
        assert perf_counter() - start < 0.5

    def test_cli(self, tmp_path, capsys):
        path = tmp_path / "injective.json"
        save_unit(self.UNIT, str(path))
        start = perf_counter()
        assert main(["classify", "--unit", str(path)]) == 0
        assert perf_counter() - start < 0.5
        assert capsys.readouterr().out == "Crs\n"


# Runs `check-axioms` in a fresh interpreter and prints how far the run
# raised the process's peak RSS over what importing the program took, in KiB.
# It reads VmHWM, the peak of this process image alone: getrusage's
# ru_maxrss would also count the RSS of the process that spawned it.
PEAK_GROWTH = """
import contextlib, io, re, sys
def peak():
    with open("/proc/self/status") as status:
        return int(re.search(r"VmHWM:\\s*(\\d+)", status.read()).group(1))
from cylset.cli import main
imported = peak()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, peak() - imported)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak RSS from /proc")
def test_samples_ceiling_run_stays_in_bounded_memory():
    """At the `--samples` ceiling the lane masks are packed a bounded chunk
    at a time: on the 257-point mapped algebra the run raises the peak RSS
    by about 21 MiB, where packing every sample into one mask took about
    68 MiB, and it takes under a second."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(cylset.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
    argv = ["check-axioms", "--mapped", "4", "--samples", str(MAX_UNITS), "--json"]
    start = perf_counter()
    out = subprocess.run([sys.executable, "-c", PEAK_GROWTH, *argv], env=env, capture_output=True, text=True, check=True)
    assert perf_counter() - start < 10
    code, growth_kib = map(int, out.stdout.split())
    assert code == 0 and growth_kib < 54 * 1024


class TestLawBindingCap:
    """CA6 binds W(W-1)^2 index tuples, so the postulates admit W <= 40."""

    def test_postulates_refused_past_40_indices(self):
        message = f"CA6 binds 65600 index tuples over 41 window indices, over the cap of {MAX_UNITS}"
        with pytest.raises(ValueError, match=message):
            check_ca_axioms(UnitAlgebra(unit(range(41), [(0,) * 41])))

    def test_equations_refused_past_256_indices(self):
        # Eq7 binds W(W-1) index pairs.
        with pytest.raises(ValueError, match="Eq7 binds 65792 index tuples over 257 window indices"):
            check_eq_laws(unit(range(257), [(0,) * 257]))
