"""Test-suite settings: hypothesis runs a fixed set of examples, so every
run of the suite checks the same cases."""

import os

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def eight_cpus(monkeypatch):
    """Report eight CPUs, so that the ``CURSTAT_THREADS`` values a
    thread-invariance test compares are not all capped to the same count
    on a small machine."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
