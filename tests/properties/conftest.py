"""Hypothesis profiles for the property tests.

``soak`` raises the example budget of the fuzz tests in
``test_fuzz_pipeline.py`` and ``test_request_fuzz.py`` from tier-1's 40,
of the region law in ``test_region_law.py`` from 25, and of the sharing
law in ``test_sharing_law.py`` from 10, to 1,500. The CI soak job runs
the soundness, output-law, MOD/return-jump-function law, frontend
mutation, request mutation, region-law and sharing-law tests with
``--hypothesis-profile soak --hypothesis-seed 12345``, so a failure
there reproduces exactly.
"""

from hypothesis import settings

settings.register_profile("soak", max_examples=1500)
