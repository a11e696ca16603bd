"""Pluggable static diagnostics over the whole analysis pipeline.

``repro lint`` front end lives in :mod:`repro.cli`; this package holds
the framework (:mod:`.core`), the shipped checkers (:mod:`.passes`), the
lattice sanitizer the dense solver calls (:mod:`.sanitizer`), and the
text/JSON/SARIF renderers (:mod:`.emit`).
"""

from repro.diagnostics.core import (
    CODE_DESCRIPTIONS,
    Diagnostic,
    LintContext,
    LintPass,
    LintReport,
    Pass,
    Registry,
    Severity,
    describe_code,
    run_passes,
)
from repro.diagnostics.emit import EMITTERS, emit_json, emit_sarif, emit_text
from repro.diagnostics.passes import all_passes, default_registry
from repro.diagnostics.sanitizer import (
    MAX_CHAIN_DEPTH,
    LatticeSanitizer,
    LatticeViolation,
    cross_check,
)

__all__ = [
    "CODE_DESCRIPTIONS",
    "Diagnostic",
    "EMITTERS",
    "LatticeSanitizer",
    "LatticeViolation",
    "LintContext",
    "LintPass",
    "LintReport",
    "MAX_CHAIN_DEPTH",
    "Pass",
    "Registry",
    "Severity",
    "all_passes",
    "cross_check",
    "default_registry",
    "describe_code",
    "emit_json",
    "emit_sarif",
    "emit_text",
    "run_passes",
]
