"""Hypothesis profiles for the property tests.

``soak`` raises the example budget of the fuzz tests in
``test_fuzz_pipeline.py`` and ``test_request_fuzz.py`` and of the
condensation law in ``test_condensation_law.py`` from tier-1's 40, of
the region law in ``test_region_law.py`` from 25, of the sharing law
in ``test_sharing_law.py`` from 10, and of the edit-sequence
incremental, fresh-parse and fresh-snapshot laws in
``test_incremental_properties.py``, the generated-program solver laws
in ``test_solver_equivalence.py`` and the copy-propagation projection
law in ``tests/framework/test_copyprop_client.py`` from 15, to 1,500.
The CI soak job runs the soundness, output-law, MOD/return-jump-function
law, frontend mutation, request mutation, region-law, condensation-law,
sharing-law, incremental-law, fresh-parse-law, fresh-snapshot-law,
solver-law and copy-propagation-law tests with ``--hypothesis-profile
soak --hypothesis-seed 12345``, so a failure there reproduces exactly. The
copy-propagation test lives outside this directory, so its soak run
names a file here too, which loads this profile.
"""

from hypothesis import settings

settings.register_profile("soak", max_examples=1500)
