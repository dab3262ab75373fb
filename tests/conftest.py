"""Test-suite settings: hypothesis runs a fixed set of examples, so every
run of the suite checks the same cases."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
