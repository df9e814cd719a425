"""The exit-code contract: 0, 1 or 2, never a traceback.

Malformed input (term text, certificate JSON, unit JSON) must end in exit 2
with a message, or in a `ValueError` from the library decoders that names
the offending field. A reader that closes stdout early leaves the exit
status as it was and gets no traceback.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from copy import deepcopy
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cylset
from cylset.cli import main
from cylset.constructions import certificate_from_dict, verify_certificate
from cylset.semantics import evaluation_from_dict
from cylset.terms import TermSyntaxError, parse_term
from cylset.units import save_unit, unit, unit_from_dict, unit_to_dict

SQ22 = unit((0, 1), [(0, 0), (0, 1), (1, 0), (1, 1)])
SQ22_JSON = unit_to_dict(SQ22)
BAD_VALUE_UNIT = {"window": [0, 1], "sequences": [[0, 1], [1, "a"]]}
# Every command that reads --unit, with the other flags it needs; each exits
# 0 on SQ22.
UNIT_COMMANDS = [
    ["classify"],
    ["eval", "--term", "c0 d01"],
    ["split", "--term", "x0", "--assign", "x0=[0]"],
    ["check-axioms"],
    ["check-eqs"],
]

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["x0", "x1", "window", "sequences"]) | st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def _json_type(x) -> str:
    for name, types in (
        ("null", type(None)),
        ("boolean", bool),
        ("number", (int, float)),
        ("string", str),
        ("array", list),
    ):
        if isinstance(x, types):
            return name
    return "object"


def _paths(node, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _retyped(doc):
    """A strategy for `doc` with one value, at any depth, swapped for a value of another JSON type."""

    @st.composite
    def build(draw):
        path = draw(st.sampled_from(list(_paths(doc))))
        old = doc
        for key in path:
            old = old[key]
        value = draw(JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(old)))
        return _replaced(doc, path, value)

    return build()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A unit file, a real `split --json` certificate from it, and a scratch path."""
    root = tmp_path_factory.mktemp("exit-codes")
    unit_path = root / "sq22.json"
    save_unit(SQ22, str(unit_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([
            "split", "--unit", str(unit_path), "--term", "x0",
            "--assign", "x0=[0,1,2,3]", "--mode", "diag", "--json",
        ]) == 0
    return {"unit": str(unit_path), "cert": json.loads(out.getvalue()), "scratch": root / "input.json"}


def _write(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="xcd0123456789,-.+() ", max_size=40))
def test_parse_term_raises_only_syntax_errors(text):
    try:
        parse_term(text)
    except TermSyntaxError:
        pass


@settings(deadline=None)
@given(data=st.data())
def test_verify_retyped_certificate_exits_0_1_or_2(files, data):
    cert = data.draw(_retyped(files["cert"]))
    assert main(["verify", "--cert", _write(files["scratch"], cert)]) in (0, 1, 2)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_retyped_unit_file_exits_2(files, data):
    path = _write(files["scratch"], data.draw(_retyped(SQ22_JSON)))
    for command in UNIT_COMMANDS:
        assert main([command[0], "--unit", path, *command[1:]]) == 2, command


def test_well_formed_unit_file_exits_0(files):
    for command in UNIT_COMMANDS:
        assert main([command[0], "--unit", files["unit"], *command[1:]]) == 0, command


def test_deeply_nested_json_exits_2(files, capsys):
    path = files["scratch"]
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["verify", "--cert", str(path)]) == 2
    assert main(["classify", "--unit", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"cannot read certificate {path}" in err
    assert f"malformed unit file {path}" in err


def test_certificate_with_unassigned_variable_is_rejected(files, capsys):
    cert = _replaced(files["cert"], ("original",), "x3 . c0 -d01")
    assert not verify_certificate(certificate_from_dict(cert))
    assert main(["verify", "--cert", _write(files["scratch"], cert)]) == 1
    assert "verified: False" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["classify"], ["eval", "--term", "c0 d01"]])
def test_unit_value_of_wrong_type_exits_2(files, command, capsys):
    path = _write(files["scratch"], BAD_VALUE_UNIT)
    assert main([command[0], "--unit", path, *command[1:]]) == 2
    assert "unit field 'sequences'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data,field",
    [
        ({"window": "01", "sequences": []}, "'window'"),
        ({"window": [0, 1], "sequences": {"0": [0, 0]}}, "'sequences'"),
        ({"window": [0, 1], "sequences": [[0, True]]}, "'sequences'"),
        (BAD_VALUE_UNIT, "'sequences'"),
    ],
)
def test_unit_decoder_names_field(data, field):
    with pytest.raises(ValueError, match=f"unit field {field}"):
        unit_from_dict(data)


@pytest.mark.parametrize("data", [[1], {"x0": 3}, {"x0": None}, {"x0": "01"}])
def test_evaluation_decoder_rejects_wrong_types(data):
    with pytest.raises(ValueError):
        evaluation_from_dict(SQ22, data)


@pytest.mark.parametrize(
    "path,value",
    [
        (("negative", "evaluation"), [1]),
        (("positive", "evaluation", "x0"), 3),
        (("fresh",), 3),
        (("fresh",), [2]),
        (("negative", "focus"), 1),
        (("positive", "focus"), [0, "a"]),
        (("original",), 7),
        (("negative", "unit", "window"), None),
        (("branch",), 0),
        (("pivot",), "0"),
    ],
)
def test_certificate_decoder_names_field(files, path, value, capsys):
    cert = _replaced(files["cert"], path, value)
    field = ".".join(path[:2])
    with pytest.raises(ValueError, match=f"certificate field {field}"):
        certificate_from_dict(cert)
    assert main(["verify", "--cert", _write(files["scratch"], cert)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("changes,deleted,message", [
    ({"pivot": 7, "branch": "nonsense"}, (), "fields fresh, branch and pivot"),
    ({"pivot": 1}, (), "fields fresh, branch and pivot"),
    ({"branch": "pair-distinct"}, (), "fields fresh, branch and pivot"),
    ({"fresh": [5, 9]}, (), "fields fresh, branch and pivot"),
    ({"branch": "fresh-base"}, (), "fields fresh, branch and pivot"),
    ({}, ("branch", "pivot"), "lacks the field branch"),
], ids=["pivot-7-nonsense", "pivot-1", "pair-distinct", "fresh-5-9", "fresh-base", "no-branch-or-pivot"])
def test_certificate_fields_must_rebuild_the_splitter(files, changes, deleted, message, capsys):
    """The certificate is a pair-equal split with pivot 0 on fresh indices
    2 and 3.  Each edit leaves the splitter as it was, so the fields no
    longer name how it was built, and the certificate is refused."""
    cert = files["cert"]
    assert (cert["fresh"], cert["branch"], cert["pivot"]) == ([2, 3], "pair-equal", 0)
    edited = {k: v for k, v in cert.items() if k not in deleted} | changes
    with pytest.raises(ValueError, match=message):
        certificate_from_dict(edited)
    assert main(["verify", "--cert", _write(files["scratch"], edited)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_unsorted_window_exits_2(files, capsys):
    # Sorting [1, 0] would put each value on the other index.
    path = _write(files["scratch"], {"window": [1, 0], "sequences": [[5, 7]]})
    assert main(["classify", "--unit", path]) == 2
    assert "unit field 'window'" in capsys.readouterr().err
    cert = deepcopy(files["cert"])
    half = cert["negative"]["unit"]
    half["window"] = half["window"][::-1]
    assert main(["verify", "--cert", _write(files["scratch"], cert)]) == 2
    assert "negative.unit: unit field 'window'" in capsys.readouterr().err


# argv -> the one stderr line it prints; {unit} is SQ22's file, {missing} a
# path that does not exist.
USAGE_ERRORS = [
    (["check-axioms"], "check-axioms needs --unit FILE, --mapped N, or --class TAG"),
    (["check-eqs"], "check-eqs needs --unit FILE or --class TAG"),
    (["eval", "--unit", "{unit}", "--term", "x0", "--assign", "x0=[0]", "--assign", "x0=[1]"],
     "--assign gives x0 more than once"),
    (["eval", "--unit", "{unit}", "--term", "x0", "--assign", "x0=0"], "bad --assign 'x0=0'; expected e.g. x0=[0,2]"),
    (["eval", "--unit", "{unit}", "--term", "x0", "--assign", "x0=[9]"], "x0 lists a position outside 0..3"),
    (["parse", "--term", "x0 . ?"], "unexpected character '?' (at position 5)"),
    (["eval", "--unit", "{unit}", "--term", "x0 . ?"], "unexpected character '?' (at position 5)"),
    (["split", "--unit", "{unit}", "--term", "x0 . ?"], "unexpected character '?' (at position 5)"),
    (["split", "--unit", "{unit}", "--term", "x0", "--assign", "x0=[0]", "--focus", "9"],
     "--focus 9 is outside the unit's positions 0..3"),
    (["verify", "--cert", "{missing}"],
     "cannot read certificate {missing}: [Errno 2] No such file or directory: '{missing}'"),
    (["classify", "--unit", "{missing}"],
     "malformed unit file {missing}: [Errno 2] No such file or directory: '{missing}'"),
    (["witness", "--n", "7"], "mapped algebra supports 2 <= n <= 4, got 7"),
    (["replicate", "--suite", "bogus"],
     "unknown suite 'bogus'; pick from ['equations', 'mapped-witness', 'separation', "
     "'split-crs', 'split-diag', 'twin-system', 'zero-dim'] or 'all'"),
    (["witness", "--samples", "0"], "--samples must be at least 1, got 0"),
    (["eval", "--unit", "{missing}", "--term", "x0"],
     "malformed unit file {missing}: [Errno 2] No such file or directory: '{missing}'"),
    # A target that cannot be evaluated is a usage error, not a failed split.
    (["split", "--unit", "{unit}", "--term", "c5 x0", "--assign", "x0=[0]"],
     "off-window index 5: the window is (0, 1)"),
    (["split", "--unit", "{unit}", "--term", "c5 x0", "--assign", "x0=[0]", "--focus", "1"],
     "off-window index 5: the window is (0, 1)"),
    (["split", "--unit", "{unit}", "--term", "x1", "--assign", "x0=[0]"], "unassigned variable x1"),
    (["split", "--unit", "{unit}", "--term", "x1", "--assign", "x0=[0]", "--mode", "crs"], "unassigned variable x1"),
    # The square's size is multiplied up only as far as the cap.
    (["check-axioms", "--class", "crs", "--window", "1000", "--max-base", "1000"],
     "the square over 1000 indices and base 1000 has at least 1000000 sequences, "
     "over the enumeration cap of 65536"),
    (["check-axioms", "--class", "crs", "--window", "100000", "--max-base", "100000"],
     "the square over 100000 indices and base 100000 has at least 100000 sequences, "
     "over the enumeration cap of 65536"),
    # The square has one sequence, but CA6 binds W(W-1)^2 index tuples.
    (["check-axioms", "--class", "crs", "--window", "200", "--max-base", "1", "--max-seqs", "1"],
     "CA6 binds 7920200 index tuples over 200 window indices, over the cap of 65536"),
    # Every sample is drawn and packed before any law is checked.
    (["check-axioms", "--unit", "{unit}", "--samples", "65537"], "samples must be at most 65536, got 65537"),
    (["check-eqs", "--unit", "{unit}", "--samples", "65537"], "samples must be at most 65536, got 65537"),
    (["witness", "--samples", "1000000000"], "samples must be at most 65536, got 1000000000"),
    # A check reads one carrier, so a second source is refused, not ignored.
    (["check-axioms", "--mapped", "3", "--unit", "{unit}"],
     "check-axioms takes only one of --unit, --mapped, --class; got --unit, --mapped"),
    (["check-axioms", "--unit", "{unit}", "--class", "crs"],
     "check-axioms takes only one of --unit, --mapped, --class; got --unit, --class"),
    (["check-axioms", "--class", "d", "--mapped", "2"],
     "check-axioms takes only one of --unit, --mapped, --class; got --mapped, --class"),
    (["check-axioms", "--mapped", "2", "--class", "d", "--unit", "{missing}"],
     "check-axioms takes only one of --unit, --mapped, --class; got --unit, --mapped, --class"),
    (["check-eqs", "--class", "crs", "--unit", "{unit}"],
     "check-eqs takes only one of --unit, --class; got --unit, --class"),
    # A flag that the command would ignore is refused, not ignored.
    (["split", "--unit", "{unit}", "--term", "x0", "--assign", "x0=[0]", "--mode", "crs", "--pivot", "1"],
     "--pivot applies only to --mode diag"),
    (["parse", "--term", "x0", "--vars", "-1"], "--vars must be at least 0, got -1"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS)
def test_usage_error_exits_2_with_one_stderr_line(files, argv, message, capsys):
    paths = {"unit": files["unit"], "missing": str(files["scratch"].parent / "absent.json")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cylset: {message.format(**paths)}\n"


def test_closed_stdout_keeps_exit_status_without_traceback():
    """The failure lines (about 110 kB) outrun the pipe buffer, so later writes hit the closed pipe."""
    env = {**os.environ, "PYTHONPATH": str(Path(cylset.__file__).parents[1])}
    argv = ["check-axioms", "--class", "crs", "--window", "2", "--max-base", "3", "--max-seqs", "4"]
    with subprocess.Popen(
        [sys.executable, "-m", "cylset.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert proc.stdout.readline().startswith(b"FAIL checked=")
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, b"")
