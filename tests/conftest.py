"""Hypothesis profiles: HYPOTHESIS_PROFILE=ci runs every property test
from a fixed seed (the same examples on every run) and gives the tests
that set no example count of their own more examples than the default."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
