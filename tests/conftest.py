"""Shared test settings: property tests draw a fixed, bounded set of examples,
and no check depends on timing, so every run of the suite checks the same
cases with the same outcome.  The explain phase, which re-runs a failing
example hundreds of times to say which parts of it matter, is left out: it
changes no example drawn and no verdict, and a failing sympy oracle then
reports in seconds, not in about 40."""

from hypothesis import HealthCheck, Phase, settings

settings.register_profile("kahlerkit", derandomize=True, max_examples=60,
                          deadline=None, database=None,
                          phases=[p for p in Phase if p is not Phase.explain],
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("kahlerkit")
