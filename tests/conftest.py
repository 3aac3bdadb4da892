"""Suite-wide test settings.

Hypothesis runs derandomized, with no deadline and no example database,
so every run of the suite draws the same examples and a slow, shared
machine cannot turn a pass into a flaky timeout."""

from hypothesis import settings

settings.register_profile("ckder", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("ckder")
