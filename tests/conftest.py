"""Hypothesis profiles for the suite.

``--hypothesis-profile=ci`` — what the CI ``tests`` job passes — draws
every property test's examples from a fixed seed and prints the failing
example's reproduction blob, so a red run is reproducible from its log.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
