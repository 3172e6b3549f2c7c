"""Shared test settings: property tests draw a fixed, bounded set of examples,
and no check depends on timing, so every run of the suite checks the same
cases with the same outcome."""

from hypothesis import HealthCheck, settings

settings.register_profile("kahlerkit", derandomize=True, max_examples=60,
                          deadline=None, database=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("kahlerkit")
