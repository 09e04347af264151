"""Hypothesis profiles: property tests run derandomized on CI.

GitHub Actions sets ``CI``; there every property test draws the same
examples on every run and has no per-example deadline, so a slow shared
runner cannot make it flake.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)

if os.environ.get("CI"):
    settings.load_profile("ci")
