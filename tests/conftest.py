"""Shared pytest configuration.

Hypothesis runs derandomized, so every property test draws the same
examples on every run, and without a deadline, so a slow host does not
turn a pass into a flaky failure.
"""

from hypothesis import settings

settings.register_profile("qdq", derandomize=True, deadline=None, database=None)
settings.load_profile("qdq")
