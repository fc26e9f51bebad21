"""Test configuration: one `hypothesis` profile, loaded for every test.

`derandomize=True` draws each property test's examples from a seed fixed by
the test itself, so every run tries the same examples and takes the same
time; each test's own `max_examples` and strategies are unchanged.
"""

from hypothesis import settings

settings.register_profile("pinned", derandomize=True)
settings.load_profile("pinned")
