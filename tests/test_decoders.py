"""The JSON decoders and trusted builders against the checking constructors.

`unit_from_dict`, `unit`, `extend_window` and `evaluation_from_dict` check
their input in bulk and build members through trusted constructors.  Each
is compared here with a reference that builds through `Sequence(...)` and
`Unit(...)`, or with a decoder that checks one item at a time: the same
result on good input and the same ValueError message on bad input.
"""

import json
import re
from collections.abc import Mapping
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cylset.constructions import certificate_from_dict, certificate_to_dict, verify_certificate
from cylset.semantics import evaluation_from_dict
from cylset.terms import PARSE_CACHE_SIZE, TermSyntaxError, parse_term
from cylset.units import Sequence, Unit, extend_window, unit, unit_from_dict

CORPUS = Path(__file__).parent / "data" / "split_diag_corpus.jsonl"


def _outcome(fn, *args):
    """("ok", result) or ("error", message) for a call that may raise ValueError."""
    try:
        return "ok", fn(*args)
    except ValueError as err:
        return "error", str(err)


# --- units ------------------------------------------------------------------

def reference_unit_from_dict(data):
    """Unit JSON decoded item by item, every member through `Sequence(...)`
    and the unit through `Unit(...)`."""
    try:
        window = data["window"]
        seqs = data["sequences"]
    except (KeyError, TypeError):
        raise ValueError("unit JSON needs 'window' and 'sequences' fields") from None
    if not isinstance(window, list) or not all(type(x) is int for x in window):
        raise ValueError("unit field 'window': expected a list of integers")
    w = tuple(window)
    if any(w[k] >= w[k + 1] for k in range(len(w) - 1)):
        raise ValueError(f"unit field 'window': window must be strictly increasing, got {w}")
    if w and w[0] < 0:
        raise ValueError("unit field 'window': indices and base elements are natural numbers")
    if not isinstance(seqs, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in seqs
    ):
        raise ValueError("unit field 'sequences': expected a list of integer lists")
    return Unit(w, tuple(Sequence(w, tuple(row)) for row in seqs))


small_ints = st.integers(min_value=-2, max_value=3)
# Mostly well-formed rows, with negative values, rows of the wrong length,
# bools, non-list rows, and repeated and unsorted rows among them.
cells = st.one_of(small_ints, small_ints, small_ints, st.booleans())
rows = st.one_of(st.lists(cells, min_size=0, max_size=4), st.lists(cells, min_size=0, max_size=4),
                 st.integers(), st.text(max_size=2), st.none())
windows = st.one_of(
    st.lists(st.integers(min_value=0, max_value=5), max_size=4, unique=True).map(sorted),
    st.lists(st.one_of(small_ints, st.booleans()), max_size=4),
    st.just([]),
)
unit_json = st.fixed_dictionaries({"window": windows, "sequences": st.one_of(st.lists(rows, max_size=6), st.text(max_size=2))})


def _well_formed(window: list[int]):
    """Unit JSON over `window` whose rows all have the right length."""
    row = st.lists(st.integers(min_value=0, max_value=2), min_size=len(window), max_size=len(window))
    return st.fixed_dictionaries({"window": st.just(window), "sequences": st.lists(row, max_size=8)})


good_unit_json = st.lists(st.integers(min_value=0, max_value=5), max_size=4, unique=True).map(sorted).flatmap(_well_formed)


@settings(deadline=None, max_examples=400)
@given(st.one_of(unit_json, good_unit_json, st.none(), st.just({"window": [0, 1]})))
def test_unit_from_dict_matches_checking_constructors(data):
    got, want = _outcome(unit_from_dict, data), _outcome(reference_unit_from_dict, data)
    assert got == want
    if got[0] == "ok":
        # The same members in the same order.
        assert got[1].sequences == want[1].sequences


@pytest.mark.parametrize(
    "data,message",
    [
        ({"window": [0, 1], "sequences": [[0]]}, "one value per window index required"),
        ({"window": [0, 1], "sequences": [[0, -1]]}, "indices and base elements are natural numbers"),
        ({"window": [0, 1], "sequences": [[0, True]]}, "unit field 'sequences': expected a list of integer lists"),
        ({"window": [0, 1], "sequences": [(0, 1)]}, "unit field 'sequences': expected a list of integer lists"),
        ({"window": [0, 1], "sequences": "01"}, "unit field 'sequences': expected a list of integer lists"),
        ({"window": [1, 0], "sequences": []}, "unit field 'window': window must be strictly increasing, got (1, 0)"),
        ({"window": [], "sequences": [[0]]}, "one value per window index required"),
        # The first bad row, in input order, names the error.
        ({"window": [0], "sequences": [[-1], [0, 0]]}, "indices and base elements are natural numbers"),
        ({"window": [0], "sequences": [[0, 0], [-1]]}, "one value per window index required"),
    ],
)
def test_unit_from_dict_refuses_malformed_input(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        unit_from_dict(data)
    assert _outcome(reference_unit_from_dict, data) == ("error", message)


def test_repeated_and_unsorted_rows_give_one_sorted_unit():
    v = unit_from_dict({"window": [0, 1], "sequences": [[1, 0], [0, 1], [1, 0]]})
    assert [f.values for f in v] == [(0, 1), (1, 0)]
    assert v == Unit((0, 1), (Sequence((0, 1), (1, 0)), Sequence((0, 1), (0, 1))))
    assert hash(v) == hash(Unit((0, 1), (Sequence((0, 1), (0, 1)), Sequence((0, 1), (1, 0)))))


def test_empty_window_unit():
    assert unit_from_dict({"window": [], "sequences": [[], []]}) == Unit((), (Sequence((), ()),))
    assert unit((), []) == Unit((), ())


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_extend_window_matches_member_by_member_extension(data):
    window = tuple(sorted(data.draw(st.sets(st.integers(min_value=0, max_value=6), max_size=4))))
    values = st.tuples(*[st.integers(min_value=0, max_value=2)] * len(window))
    v = unit(window, data.draw(st.lists(values, max_size=6)))
    fresh = data.draw(st.lists(st.integers(min_value=-1, max_value=8), max_size=3, unique=True))
    new = [(i, data.draw(st.integers(min_value=-1, max_value=3))) for i in fresh]

    def reference():
        if not new:
            return v
        if any(i in v.window for i in fresh):
            raise ValueError(f"new indices {fresh} collide with window {v.window}")
        merged = tuple(sorted(v.window + tuple(fresh)))
        return Unit(merged, tuple(sorted(f.extended(new) for f in v)))

    got, want = _outcome(extend_window, v, new), _outcome(reference)
    assert got == want
    if got[0] == "ok":
        assert got[1].window == want[1].window and got[1].sequences == want[1].sequences
        assert all(f.window == got[1].window for f in got[1])


def test_extend_window_keeps_member_order_with_indices_inside_the_window():
    v = unit((0, 3), [(0, 1), (1, 0), (1, 1)])
    out = extend_window(v, [(2, 5), (1, 4)])
    assert out.window == (0, 1, 2, 3)
    assert [f.values for f in out] == [(0, 4, 5, 1), (1, 4, 5, 0), (1, 4, 5, 1)]
    assert extend_window(unit((), [()]), [(0, 7)]) == unit((0,), [(7,)])


# --- evaluations ------------------------------------------------------------

def reference_evaluation_from_dict(v, data):
    """Evaluation JSON decoded item by item, the reference for
    `evaluation_from_dict`."""
    if not isinstance(data, Mapping):
        raise ValueError("expected an object mapping x0, x1, ... to position lists")
    iota = {}
    for name, positions in data.items():
        if not isinstance(name, str) or not re.fullmatch(r"x(0|[1-9][0-9]*)", name):
            raise ValueError(f"bad variable name {name!r}; expected x0, x1, ... without leading zeros")
        if not isinstance(positions, list):
            raise ValueError(f"{name} must be a list of positions")
        if not all(type(p) is int and 0 <= p < len(v) for p in positions):
            raise ValueError(f"{name} lists a position outside 0..{len(v) - 1}")
        mask = 0
        for p in positions:
            mask |= 1 << p
        iota[int(name[1:])] = mask
    return iota


SQ = unit((0, 1), [(0, 0), (0, 1), (1, 0), (1, 1)])
names = st.one_of(st.sampled_from(["x0", "x1", "x12", "x01", "x", "y0", "x-1"]), st.integers())
positions = st.one_of(
    st.lists(st.one_of(st.integers(min_value=-2, max_value=5), st.booleans(), st.just("0")), max_size=5),
    st.lists(st.integers(min_value=0, max_value=3), max_size=5),
    st.integers(), st.none(), st.text(max_size=2),
)


@settings(deadline=None, max_examples=400)
@given(st.one_of(st.dictionaries(names, positions, max_size=3), st.lists(st.integers(), max_size=2)))
def test_evaluation_from_dict_matches_item_by_item_decoder(data):
    assert _outcome(evaluation_from_dict, SQ, data) == _outcome(reference_evaluation_from_dict, SQ, data)


def test_evaluation_of_an_empty_unit():
    empty = unit((0, 1), [])
    assert evaluation_from_dict(empty, {"x0": []}) == {0: 0}
    with pytest.raises(ValueError, match=re.escape("x0 lists a position outside 0..-1")):
        evaluation_from_dict(empty, {"x0": [0]})


# --- certificates -----------------------------------------------------------

CORPUS_LINES = CORPUS.read_text().splitlines(keepends=True)


def test_corpus_has_62_certificates():
    assert len(CORPUS_LINES) == 62


@pytest.mark.parametrize("line", CORPUS_LINES, ids=range(len(CORPUS_LINES)))
def test_corpus_certificate_round_trip(line):
    """Each corpus line decodes, verifies and re-encodes byte for byte, and
    its two halves, which carry the same unit JSON, hold one Unit object."""
    cert = certificate_from_dict(json.loads(line))
    assert verify_certificate(cert)
    assert json.dumps(certificate_to_dict(cert), sort_keys=True) + "\n" == line
    assert cert.negative.unit is cert.positive.unit


def test_halves_with_different_units_decode_apart():
    data = json.loads(CORPUS_LINES[0])
    data["positive"]["unit"]["sequences"].append([1, 1, 1, 1])
    cert = certificate_from_dict(data)
    assert cert.negative.unit is not cert.positive.unit
    assert len(cert.positive.unit) == len(cert.negative.unit) + 1


@pytest.mark.parametrize("value", [True, 1.0])
def test_equal_but_mistyped_second_unit_is_refused(value):
    """`True` and `1.0` compare equal to `1`, but the second half's unit is
    type-checked before it is matched with the first."""
    data = json.loads(CORPUS_LINES[0])
    rows = data["positive"]["unit"]["sequences"]
    rows[0] = [value if x == 1 else x for x in rows[0]]
    assert data["positive"]["unit"] == data["negative"]["unit"]
    with pytest.raises(ValueError, match=re.escape(
        "certificate field positive.unit: unit field 'sequences': expected a list of integer lists"
    )):
        certificate_from_dict(data)


# --- the parse cache --------------------------------------------------------

def test_parse_cache_is_bounded_and_shares_terms():
    assert parse_term.cache_info().maxsize == PARSE_CACHE_SIZE <= 256
    assert parse_term("c0 (x0 . -d01)") is parse_term("c0 (x0 . -d01)")


def test_repeated_bad_term_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(TermSyntaxError, match="unexpected end of term"):
            parse_term("x0 +")
    data = json.loads(CORPUS_LINES[0])
    data["original"] = "x0 . c0 -"
    for _ in range(3):
        with pytest.raises(ValueError, match="certificate field original: unexpected end of term"):
            certificate_from_dict(data)
