"""A tier-1 run lists every failure, those of hypothesis tests included."""

pytest_plugins = ["pytester"]

FAILING_AND_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_given_fails(n):
    assert n < 0


def test_plain_fails():
    assert False


def test_passes():
    pass
'''


def test_failing_given_test_is_counted_not_internal_error(pytester, pytestconfig):
    """Under this project's warning filters, a failing `@given` test is
    reported as one failure, and the session goes on to the next test."""
    filters = "".join(f"\n    {line}" for line in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings ={filters}\n")
    pytester.makepyfile(FAILING_AND_PASSING)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=2, passed=1)
    result.stdout.fnmatch_lines(["*2 failed, 1 passed*"])
