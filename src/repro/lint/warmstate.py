"""Warm-state-protocol pass: every registered policy handles sampling.

The sampling executor's learned-policy synthesis strategies depend on
the warm-state checkpoint protocol on
:class:`repro.policies.base.ReplacementPolicy`: ``checkpoint_tables``
captures a policy's cross-line predictor state and ``restore_tables``
reinstates it. A registered policy that silently inherits the base
defaults (``None`` / ``NotImplementedError``) would make sampled sweeps
fail at runtime under the ``"checkpoint"`` strategy — or worse, would
look supported while its tables quietly start cold.

This pass enforces the registry's contract statically: every policy
class registered in :mod:`repro.policies.registry` must either override
*both* protocol methods or be named in the registry's
``WARM_STATE_EXCLUDED`` tuple (policies whose only cross-line state the
recency synthesis already rebuilds). Overriding exactly one method is
always an error, and exclusions that are stale (the class now
implements the protocol) or unknown (no such registered class) are
warnings so the list cannot rot.

Everything is read from the parsed tree — the registry is never
imported — so the rule works identically on the live package and on
fixture trees.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .findings import Finding, Severity
from .model import POLICY_BASE, ClassInfo, LintContext, ModuleInfo
from .rules import Rule, register_rule

#: The exclusion-list variable looked up in the registry's AST.
EXCLUDED_VARIABLE = "WARM_STATE_EXCLUDED"

#: The two methods forming the warm-state checkpoint protocol.
PROTOCOL_METHODS = ("checkpoint_tables", "restore_tables")


@dataclass
class WarmStateReport:
    """What the pass computed, for tests and diagnostics."""

    #: Class names registered with ``register_policy`` (static view).
    registered: list[str] = field(default_factory=list)
    #: The raw WARM_STATE_EXCLUDED entries parsed from the registry.
    excluded: list[str] = field(default_factory=list)
    #: Registered classes overriding both protocol methods.
    implemented: list[str] = field(default_factory=list)


def _find_excluded_assignment(
    ctx: LintContext,
) -> tuple[ModuleInfo, ast.Assign] | None:
    """The module and assignment defining ``WARM_STATE_EXCLUDED``."""
    for module in ctx.modules:
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == EXCLUDED_VARIABLE
                for t in node.targets
            ):
                return module, node
    return None


def _parse_excluded(node: ast.Assign) -> list[str] | None:
    """The string entries of the exclusion tuple, or None if not literal."""
    value = node.value
    if not isinstance(value, (ast.Tuple, ast.List)):
        return None
    names: list[str] = []
    for element in value.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        names.append(element.value)
    return names


def _registered_class_names(module: ModuleInfo) -> list[str]:
    """Class names passed to ``register_policy`` in the registry module.

    Recognizes both the table-driven idiom — a ``for`` loop over a
    literal list of ``(name, Factory)`` tuples — and direct
    ``register_policy("name", Factory)`` calls.
    """
    names: list[str] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.For) and isinstance(node.iter, (ast.List, ast.Tuple)):
            for element in node.iter.elts:
                if (
                    isinstance(element, ast.Tuple)
                    and len(element.elts) == 2
                    and isinstance(element.elts[1], ast.Name)
                ):
                    names.append(element.elts[1].id)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "register_policy"
            and len(node.args) == 2
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and isinstance(node.args[1], ast.Name)
        ):
            names.append(node.args[1].id)
    return names


def _overridden_methods(ctx: LintContext, cls: ClassInfo) -> list[str]:
    """Protocol methods ``cls`` overrides (owner is not the base class)."""
    overridden: list[str] = []
    for method in PROTOCOL_METHODS:
        resolved = ctx.resolve_method(cls, method)
        if resolved is not None and resolved[0].name != POLICY_BASE:
            overridden.append(method)
    return overridden


def warm_state_report(ctx: LintContext) -> WarmStateReport | None:
    """Compute the protocol-coverage view, or None when it does not apply."""
    located = _find_excluded_assignment(ctx)
    if located is None:
        return None
    module, assignment = located
    excluded = _parse_excluded(assignment)
    if excluded is None:
        return None  # reported separately as a malformed-list finding
    registered = _registered_class_names(module)
    implemented = [
        name
        for name in registered
        if (cls := ctx.class_by_name.get(name)) is not None
        and len(_overridden_methods(ctx, cls)) == len(PROTOCOL_METHODS)
    ]
    return WarmStateReport(
        registered=registered, excluded=excluded, implemented=implemented
    )


class WarmStateProtocolRule(Rule):
    """Registered policies implement the warm-state protocol or opt out."""

    name = "warm-state-protocol"
    description = (
        "every registered policy overrides checkpoint_tables/restore_tables "
        "or is named in WARM_STATE_EXCLUDED"
    )
    severity = Severity.ERROR

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        located = _find_excluded_assignment(ctx)
        if located is None:
            return
        module, assignment = located
        excluded = _parse_excluded(assignment)
        if excluded is None:
            yield self.finding(
                module.path,
                assignment.lineno,
                f"{EXCLUDED_VARIABLE} is not a literal tuple of strings; "
                "warm-state protocol coverage cannot be verified statically",
                "keep the exclusion list a plain tuple of string literals",
            )
            return
        registered = _registered_class_names(module)
        seen_excluded: set[str] = set()
        for class_name in registered:
            cls = ctx.class_by_name.get(class_name)
            if cls is None:
                continue  # registry-consistency reports invisible classes
            overridden = _overridden_methods(ctx, cls)
            is_excluded = class_name in excluded
            if is_excluded:
                seen_excluded.add(class_name)
            if len(overridden) == 1:
                missing = next(
                    m for m in PROTOCOL_METHODS if m not in overridden
                )
                yield self.finding(
                    cls.module.path,
                    cls.node.lineno,
                    f"policy class {class_name} overrides {overridden[0]} "
                    f"but not {missing}; a half-implemented warm-state "
                    "protocol restores tables it never captured (or "
                    "captures tables it cannot restore)",
                    f"override both of {', '.join(PROTOCOL_METHODS)}",
                )
            elif not overridden and not is_excluded:
                yield self.finding(
                    cls.module.path,
                    cls.node.lineno,
                    f"registered policy class {class_name} neither "
                    "implements the warm-state checkpoint protocol "
                    f"({' and '.join(PROTOCOL_METHODS)}) nor appears in "
                    f"{EXCLUDED_VARIABLE}; sampled sweeps would fail (or "
                    "silently run cold) under the checkpoint strategy",
                    "implement the protocol, or add the class to "
                    f"{EXCLUDED_VARIABLE} if recency synthesis already "
                    "rebuilds all its cross-line state",
                )
            elif len(overridden) == len(PROTOCOL_METHODS) and is_excluded:
                yield Finding(
                    rule=self.name,
                    severity=Severity.WARNING,
                    path=module.path,
                    line=assignment.lineno,
                    message=(
                        f"{EXCLUDED_VARIABLE} entry {class_name!r} is stale: "
                        "the class implements the warm-state protocol"
                    ),
                    hint="drop the entry so the exclusion list stays honest",
                )
        for name in excluded:
            if name not in registered:
                yield Finding(
                    rule=self.name,
                    severity=Severity.WARNING,
                    path=module.path,
                    line=assignment.lineno,
                    message=(
                        f"{EXCLUDED_VARIABLE} entry {name!r} does not name "
                        "a registered policy class"
                    ),
                    hint="remove the entry or fix its spelling",
                )


register_rule(WarmStateProtocolRule.name, WarmStateProtocolRule)
