"""Shared test settings: property tests draw a fixed, bounded set of examples,
and no check depends on timing, so every run of the suite checks the same
cases with the same outcome.  The explain phase, which re-runs a failing
example hundreds of times to say which parts of it matter, is left out: it
changes no example drawn and no verdict, and a failing sympy oracle then
reports in seconds, not in about 40.

A case is built once per process for each builder and params, so a test
that observes a build takes the unbuilt fixture."""

import pytest
from hypothesis import HealthCheck, Phase, settings

from kahlerkit.scenarios import built_case

settings.register_profile("kahlerkit", derandomize=True, max_examples=60,
                          deadline=None, database=None,
                          phases=[p for p in Phase if p is not Phase.explain],
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("kahlerkit")


@pytest.fixture
def unbuilt():
    """An empty case memo: every case the test builds runs its builder."""
    built_case.cache_clear()
