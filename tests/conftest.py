"""Shared test settings.

Hypothesis runs derandomized, so every run of the suite draws the same
examples; no deadline, because the numerical properties have uneven cost.
Each test's own ``max_examples`` is left as it is.
"""

from hypothesis import settings

settings.register_profile("memwave", derandomize=True, deadline=None)
settings.load_profile("memwave")
