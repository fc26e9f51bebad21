"""Test configuration: one `hypothesis` profile, loaded for every test, and
the fixtures shared by test modules.

`derandomize=True` draws each property test's examples from a seed fixed by
the test itself, so every run tries the same examples and takes the same
time; each test's own `max_examples` and strategies are unchanged.
"""

import pytest
from hypothesis import settings

from hfgenus.errors import SignResolutionError
from hfgenus.hfunction import HTable
from oracles import pair_scope

settings.register_profile("pinned", derandomize=True)
settings.load_profile("pinned")


@pytest.fixture(scope="session")
def pair_scope_outcomes():
    """Each member of `pair_scope()` and its outcome, its `HTable` or the
    `SignResolutionError` that refuses it, built once per session."""
    outcomes = []
    for d in pair_scope():
        try:
            outcomes.append((d, HTable(d)))
        except SignResolutionError as exc:
            outcomes.append((d, exc))
    return outcomes
