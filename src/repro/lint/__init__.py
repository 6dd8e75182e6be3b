"""Correctness tooling for the simulator: static analysis + runtime sanitizer.

The paper's Figure 3 claim — PC-indexed learned policies silently degrade
on GAP workloads — is only as trustworthy as the policy ports behind it.
A port that mishandles BYPASS, indexes a PC table with the ``pc == 0`` of
a writeback, or drifts a "saturating" counter without bounds produces
plausible-looking but wrong speed-ups. This package makes those contract
details checkable:

* :mod:`repro.lint.analyzer` — an AST-based static analyzer that verifies
  every policy in the registry against the
  :class:`~repro.policies.base.ReplacementPolicy` contract, via pluggable
  :class:`~repro.lint.rules.Rule` objects (registry mirroring
  :mod:`repro.policies.registry`).
* :mod:`repro.lint.sanitize` — an opt-in runtime invariant sanitizer
  (``--sanitize``) that asserts set-occupancy bounds, tag uniqueness,
  eviction-notification pairing and dirty-bit consistency during real
  simulations, cheap enough for CI on the synthetic traces.

``python -m repro lint`` runs the analyzer over the live tree;
``python -m repro lint --sanitize-selftest`` exercises the sanitizer.
"""

from __future__ import annotations

from .analyzer import LintContext, lint_paths, lint_tree
from .baseline import (
    DEFAULT_BASELINE_NAME,
    BaselineEntry,
    BaselineError,
    apply_baseline,
    parse_baseline,
)
from .findings import Finding, Severity
from .output import (
    parse_json,
    render_json,
    render_markdown,
    render_text,
    summarize,
)
from .rules import Rule, available_rules, make_rule, register_rule
from .sanitize import InvariantSanitizer, SanitizerError, attach_sanitizers
from .warmstate import WarmStateReport, warm_state_report

__all__ = [
    "DEFAULT_BASELINE_NAME",
    "BaselineEntry",
    "BaselineError",
    "Finding",
    "InvariantSanitizer",
    "LintContext",
    "Rule",
    "SanitizerError",
    "Severity",
    "WarmStateReport",
    "apply_baseline",
    "attach_sanitizers",
    "available_rules",
    "lint_paths",
    "lint_tree",
    "make_rule",
    "parse_baseline",
    "parse_json",
    "register_rule",
    "render_json",
    "render_markdown",
    "render_text",
    "summarize",
    "warm_state_report",
]
