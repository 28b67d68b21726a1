"""Hypothesis profiles for the test suite.

``deep`` raises every property test that reads ``settings.default`` to about
20,000 examples; select it with ``--hypothesis-profile deep``. Without the
option the suite runs under Hypothesis's default profile.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=20_000)
