import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import cylset
from cylset.terms import (
    And,
    Cyl,
    Diag,
    Not,
    ONE,
    Or,
    TermSyntaxError,
    Var,
    ZERO,
    all_choice_functions,
    atom_term,
    conj,
    cyl01,
    escape_term,
    guarded_term,
    index_set,
    parse_term,
    render_term,
    splitter_term,
    subterms,
    twin_guard_term,
    twin_term,
    variables,
    xor_term,
)


def terms_strategy(m: int = 3, max_index: int = 11):
    atoms = st.one_of(
        st.builds(Var, st.integers(0, m - 1)),
        st.just(ZERO),
        st.just(ONE),
        st.builds(Diag, st.integers(0, max_index), st.integers(0, max_index)),
    )
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Cyl, st.integers(0, max_index), children),
        ),
        max_leaves=12,
    )


class TestParse:
    def test_atom_shape(self):
        assert parse_term("x0 . -c0 -d01", 1) == And(
            Var(0), Not(Cyl(0, Not(Diag(0, 1))))
        )

    def test_double_digit_diagonal(self):
        assert parse_term("d22") == Diag(2, 2)

    def test_comma_diagonal(self):
        assert parse_term("d10,11") == Diag(10, 11)
        assert parse_term("d1,2") == Diag(1, 2)

    def test_variable_out_of_range(self):
        with pytest.raises(TermSyntaxError, match="out of range"):
            parse_term("x3", 2)

    def test_unbounded_variables_without_m(self):
        assert parse_term("x7") == Var(7)

    def test_precedence(self):
        assert parse_term("x0 + x1 . x2", 3) == Or(Var(0), And(Var(1), Var(2)))
        assert parse_term("-x0 . x1", 2) == And(Not(Var(0)), Var(1))
        assert parse_term("c0 x0 . x1", 2) == And(Cyl(0, Var(0)), Var(1))

    def test_right_associativity(self):
        assert parse_term("x0 . x1 . x2", 3) == And(Var(0), And(Var(1), Var(2)))
        assert parse_term("(x0 . x1) . x2", 3) == And(And(Var(0), Var(1)), Var(2))

    def test_syntax_error_position(self):
        with pytest.raises(TermSyntaxError) as err:
            parse_term("x0 . ?")
        assert err.value.position == 5

    def test_trailing_garbage(self):
        with pytest.raises(TermSyntaxError, match="trailing"):
            parse_term("x0 x1", 2)

    def test_unclosed_paren(self):
        with pytest.raises(TermSyntaxError):
            parse_term("c0(x0 . x1", 2)


class TestRender:
    def test_diagonal(self):
        assert render_term(Diag(0, 1)) == "d01"
        assert render_term(Diag(10, 11)) == "d10,11"

    def test_meet_with_complement(self):
        assert render_term(And(Var(0), Not(Var(0)))) == "x0 . -x0"

    def test_cylinder_spacing(self):
        assert render_term(Cyl(2, Diag(2, 3))) == "c2 d23"
        assert render_term(Cyl(0, And(Var(0), Var(1)))) == "c0(x0 . x1)"

    @given(terms_strategy())
    def test_round_trip(self, t):
        assert parse_term(render_term(t)) == t


class TestIndexSet:
    def test_variable_has_no_indices(self):
        assert index_set(Var(0)) == frozenset()

    def test_cylinder_and_diagonal(self):
        assert index_set(Cyl(0, Not(Diag(0, 1)))) == {0, 1}

    def test_meet_collects_both_sides(self):
        assert index_set(And(Diag(2, 2), Cyl(5, ONE))) == {2, 5}


# Recursive definitions of the three tree walks, kept here as the reference
# for the one iterative walk that `subterms` makes.
def ref_subterms(t):
    if isinstance(t, (Not, Cyl)):
        return [t, *ref_subterms(t.t)]
    if isinstance(t, (And, Or)):
        return [t, *ref_subterms(t.t1), *ref_subterms(t.t2)]
    return [t]


def ref_index_set(t):
    if isinstance(t, Diag):
        return {t.i, t.j}
    if isinstance(t, Cyl):
        return {t.i} | ref_index_set(t.t)
    if isinstance(t, Not):
        return ref_index_set(t.t)
    if isinstance(t, (And, Or)):
        return ref_index_set(t.t1) | ref_index_set(t.t2)
    return set()


def ref_variables(t):
    if isinstance(t, Var):
        return {t.k}
    if isinstance(t, (Not, Cyl)):
        return ref_variables(t.t)
    if isinstance(t, (And, Or)):
        return ref_variables(t.t1) | ref_variables(t.t2)
    return set()


@given(terms_strategy())
def test_walks_match_recursive_definitions(t):
    # Compared by identity, so the preorder itself is checked, not only the
    # values in it.
    assert list(map(id, subterms(t))) == list(map(id, ref_subterms(t)))
    assert index_set(t) == ref_index_set(t)
    assert variables(t) == ref_variables(t)


@pytest.mark.parametrize("module", ["cylset.terms", "cylset.units"])
def test_importing_one_module_loads_no_other(module):
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('cylset')))"
    env = {**os.environ, "PYTHONPATH": str(Path(cylset.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    assert out == f"['cylset', '{module}']\n"


class TestAtomTerm:
    def test_single_positive_generator(self):
        assert render_term(atom_term(1, (1,))) == "x0 . -c0 -d01"

    def test_mixed_signs(self):
        assert render_term(atom_term(2, (1, -1))) == "x0 . -x1 . -c0 -d01"

    def test_single_negative_generator(self):
        assert render_term(atom_term(1, (-1,))) == "-x0 . -c0 -d01"

    def test_rejects_zero_generators(self):
        with pytest.raises(ValueError):
            atom_term(0, ())

    def test_rejects_bad_choice(self):
        with pytest.raises(ValueError):
            atom_term(2, (1, 0))
        with pytest.raises(ValueError):
            atom_term(2, (1,))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_pairwise_distinct_with_window_indices(self, m):
        produced = {atom_term(m, q) for q in all_choice_functions(m)}
        assert len(produced) == 2 ** m
        for t in produced:
            assert index_set(t) == {0, 1}


class TestSplitterTerm:
    def test_negative_sign(self):
        assert render_term(splitter_term(2, 3, -1, 0)) == "c0(-d01 . c2(x0 . -d23))"

    def test_positive_sign(self):
        assert render_term(splitter_term(2, 3, 1, 0)) == "c0(-d01 . c2(x0 . d23))"

    def test_swapped_pivot(self):
        assert render_term(splitter_term(2, 3, -1, 1)) == "c1(-d01 . c2(x0 . -d23))"

    def test_rejects_equal_indices(self):
        with pytest.raises(ValueError):
            splitter_term(2, 2, -1, 0)

    def test_rejects_low_indices(self):
        with pytest.raises(ValueError):
            splitter_term(0, 3, -1, 0)
        with pytest.raises(ValueError):
            splitter_term(2, 1, 1, 0)


class TestDerivedTerms:
    def test_xor_shape(self):
        a, b = Var(0), Var(1)
        assert xor_term(a, b) == Or(And(a, Not(b)), And(Not(a), b))

    def test_cyl01(self):
        assert cyl01(Var(0)) == Cyl(0, Cyl(1, Var(0)))

    def test_twin_shape(self):
        assert twin_term() == And(Cyl(0, Var(0)), And(Cyl(1, Var(0)), Not(Var(0))))

    def test_guard_index_set(self):
        assert index_set(twin_guard_term()) == {0, 1}
        assert index_set(guarded_term()) == {0, 1}
        assert variables(guarded_term()) == {0}

    def test_escape_term(self):
        assert escape_term(0, 1) == Cyl(0, Not(Diag(0, 1)))

    def test_empty_product_is_one(self):
        assert conj([]) == ONE


# The first error a left-to-right reading of each text meets, with its
# position: a character that starts no token, the end of the text, a token
# that cannot start a term, a missing ')', trailing input, a variable out of
# range and nesting past MAX_DEPTH.
PINNED_ERRORS = [
    ("", None, "unexpected end of term", 0),
    ("   ", None, "unexpected end of term", 3),
    ("x", None, "unexpected character 'x'", 0),
    ("x0 x1", None, "trailing input after term", 3),
    ("x0 +", None, "unexpected end of term", 4),
    ("(x0 . x1", None, "expected ')'", 8),
    ("x0)", None, "trailing input after term", 2),
    (")", None, "unexpected token 'rpar'", 0),
    ("+x0", None, "unexpected token 'plus'", 0),
    (". x0", None, "unexpected token 'dot'", 0),
    ("c x0", None, "unexpected character 'c'", 0),
    ("c0", None, "unexpected end of term", 2),
    ("d1 2", None, "unexpected character 'd'", 0),
    ("d12,", None, "unexpected character ','", 3),
    ("d123", None, "unexpected character '3'", 3),
    ("c1 (x0 + )", None, "unexpected token 'rpar'", 9),
    ("x0\n+\tq", None, "unexpected character 'q'", 5),
    ("((x0) x1)", None, "expected ')'", 6),
    ("x٣", 2, "variable x3 out of range for 2 generators", 0),
    ("(" * 101 + "x0" + ")" * 101, None, "term nests deeper than 100 levels", 100),
    ("-" * 101 + "x0", None, "term nests deeper than 100 levels", 100),
    (" . ".join(["x0"] * 102), None, "term nests deeper than 100 levels", 503),
]


@pytest.mark.parametrize("text,m,message,position", PINNED_ERRORS)
def test_syntax_errors_are_pinned(text, m, message, position):
    with pytest.raises(TermSyntaxError) as err:
        parse_term(text, m)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_unicode_digits_read_as_numbers():
    assert parse_term("x٣") == Var(3)
    assert parse_term("d٣٤ . x0") == And(Diag(3, 4), Var(0))
