import functools

import pytest

from cylset import constructions

_replicate = functools.cache(constructions.replicate)


@pytest.fixture
def shared_replicate(monkeypatch):
    """`constructions.replicate` memoized for the whole session by its
    arguments, so tests that print the same full run compute it once."""
    monkeypatch.setattr(constructions, "replicate", _replicate)
