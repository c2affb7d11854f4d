"""Test-suite settings: Hypothesis runs derandomised, so every run of the
suite draws the same examples and its result does not depend on the run."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
