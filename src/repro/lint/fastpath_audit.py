"""Fastpath-eligibility audit: the fast engine's guards match reality.

``repro.mem.fastpath`` is a bit-identity rewrite of the reference hot
loop for a restricted machine shape, and ``fastpath_eligible()`` is the
*only* thing standing between an unmodeled feature and silently wrong
numbers served at 2-3x speed. The guards encode assumptions about the
rest of the codebase; this pass re-derives those assumptions from the
AST and fails when they drift:

The batched multi-cell engine (``repro.mem.batch``) runs the fast
engine's machine and consults the same predicate, so auditing that one
predicate covers both engines.

1. **Feature knobs.** Every optional ``CacheHierarchy.__init__``
   parameter is a machine feature the fast path may not model; the
   eligibility check must inspect each one. Adding, say, an ``l3_victim_cache``
   parameter without touching ``fastpath_eligible`` is a one-line change
   that would corrupt every sweep that sets it.
2. **Exact-type pinning.** Upper-level policies must be pinned with
   ``type(...) is`` — an ``isinstance`` check would admit an LRU
   *subclass* whose extra state the flat checkout silently drops.
3. **Checkout completeness.** Every mutable attr of each pinned policy
   class (per :mod:`repro.lint.inventory`) must be referenced somewhere
   in the fastpath module: state the checkout/restore never mentions is
   state that diverges from the reference engine.
4. **Trace-kind bound.** The eligibility bound on ``trace.kinds`` must
   agree with the :class:`AccessKind` numbering: the members at or below
   the bound must be exactly the kinds the fast loop dispatches
   (LOAD/STORE/IFETCH). Renumbering the enum — inserting a kind below
   the bound — would route unmodeled records through the L1 dispatch.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding, Severity
from .inventory import assigned_attrs, state_inventory
from .model import ClassInfo, LintContext, ModuleInfo
from .rules import Rule, register_rule

#: The AccessKind members the fast loop's dispatch actually models
#: (``kind <= bound`` routes to L1D for LOAD/STORE, L1I for IFETCH).
MODELED_KINDS = frozenset({"LOAD", "STORE", "IFETCH"})

#: The hierarchy class whose optional features gate eligibility.
HIERARCHY_CLASS = "CacheHierarchy"

#: The audited engine module and its eligibility predicate's required name.
ENGINE_MODULE = "fastpath.py"
ELIGIBILITY_FUNCTION = "fastpath_eligible"


def _find_module(ctx: LintContext, filename: str) -> ModuleInfo | None:
    for module in ctx.modules:
        parts = module.path.replace("\\", "/").split("/")
        if parts and parts[-1] == filename and "mem" in parts:
            return module
    return None


def _top_level_function(
    module: ModuleInfo, name: str
) -> ast.FunctionDef | None:
    for node in module.tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _attr_reads_on(fn: ast.FunctionDef, param: str) -> set[str]:
    """Attribute names read directly off parameter ``param`` in ``fn``."""
    return {
        node.attr
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == param
    }


def _optional_init_params(cls: ClassInfo) -> list[str]:
    """Defaulted ``__init__`` parameters stored as same-named attrs."""
    init = cls.methods.get("__init__")
    if init is None:
        return []
    stored = set(assigned_attrs(init))
    names: list[str] = []
    args = init.args
    positional = args.posonlyargs + args.args
    defaulted = positional[len(positional) - len(args.defaults):]
    for arg in defaulted:
        if arg.arg in stored:
            names.append(arg.arg)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and arg.arg in stored:
            names.append(arg.arg)
    return names


def _type_pinned_classes(root: ast.AST) -> set[str]:
    """Class names compared via ``type(x) is/is not Name`` under ``root``."""
    pinned: set[str] = set()
    for node in ast.walk(root):
        if not isinstance(node, ast.Compare):
            continue
        if not all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        has_type_call = any(
            isinstance(o, ast.Call)
            and isinstance(o.func, ast.Name)
            and o.func.id == "type"
            for o in operands
        )
        if not has_type_call:
            continue
        for operand in operands:
            if isinstance(operand, ast.Name):
                pinned.add(operand.id)
            elif isinstance(operand, ast.Attribute):
                pinned.add(operand.attr)
    return pinned


def _mentions_kinds(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "kinds"
        for sub in ast.walk(node)
    )


def _kinds_bound(fn: ast.FunctionDef) -> int | None:
    """The inclusive upper bound on modeled trace kinds, if guarded.

    Recognizes ``<expr over kinds> > N`` / ``>= N`` and the mirrored
    ``N < <expr>`` / ``N <= <expr>`` forms; returns the largest kind
    value the guard lets through.
    """
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
            continue
        op = node.ops[0]
        left, right = node.left, node.comparators[0]
        if _mentions_kinds(left) and isinstance(right, ast.Constant) and isinstance(
            right.value, int
        ):
            if isinstance(op, ast.Gt):
                return right.value
            if isinstance(op, ast.GtE):
                return right.value - 1
        if _mentions_kinds(right) and isinstance(left, ast.Constant) and isinstance(
            left.value, int
        ):
            if isinstance(op, ast.Lt):
                return left.value
            if isinstance(op, ast.LtE):
                return left.value - 1
    return None


def _access_kind_values(ctx: LintContext) -> dict[str, int] | None:
    """AccessKind member name -> int value, from the parsed enum."""
    cls = ctx.class_by_name.get("AccessKind")
    if cls is None:
        return None
    values: dict[str, int] = {}
    for name, value in cls.class_attrs.items():
        if isinstance(value, ast.Constant) and isinstance(value.value, int):
            values[name] = value.value
    return values or None


class FastpathEligibilityRule(Rule):
    """The fast engine's eligibility guards cover its actual assumptions."""

    name = "fastpath-eligibility"
    description = "engine eligibility guards match hierarchy features, policy state and AccessKind"
    severity = Severity.ERROR

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        module = _find_module(ctx, ENGINE_MODULE)
        if module is None:
            return
        fn = _top_level_function(module, ELIGIBILITY_FUNCTION)
        if fn is None:
            yield self.finding(
                module.path,
                1,
                f"engine module {ENGINE_MODULE} defines no top-level "
                f"{ELIGIBILITY_FUNCTION}()",
                "the optimized engines must publish an eligibility "
                "predicate their callers consult before selecting them",
            )
            return
        yield from self._check_hierarchy_features(ctx, module, fn)
        yield from self._check_policy_pinning(ctx, module, fn)
        yield from self._check_kind_bound(ctx, module, fn)

    # -- 1: hierarchy feature knobs -------------------------------------------

    def _check_hierarchy_features(
        self, ctx: LintContext, module: ModuleInfo, fn: ast.FunctionDef
    ) -> Iterator[Finding]:
        hierarchy_cls = ctx.class_by_name.get(HIERARCHY_CLASS)
        if hierarchy_cls is None or not fn.args.args:
            return
        hierarchy_param = fn.args.args[0].arg
        inspected = _attr_reads_on(fn, hierarchy_param)
        for feature in _optional_init_params(hierarchy_cls):
            if feature not in inspected:
                yield self.finding(
                    module.path,
                    fn.lineno,
                    f"{fn.name}() never inspects optional "
                    f"{HIERARCHY_CLASS} feature {feature!r}; a machine "
                    "configured with it would take the fast path unmodeled",
                    f"check {hierarchy_param}.{feature} and fall back to the "
                    "reference engine when it is set",
                )

    # -- 2 + 3: exact-type pinning and checkout completeness ------------------

    def _check_policy_pinning(
        self, ctx: LintContext, module: ModuleInfo, fn: ast.FunctionDef
    ) -> Iterator[Finding]:
        eligibility_pins = {
            name
            for name in _type_pinned_classes(fn)
            if (cls := ctx.class_by_name.get(name)) is not None
            and ctx.is_policy_class(cls)
        }
        if not eligibility_pins:
            yield self.finding(
                module.path,
                fn.lineno,
                f"{fn.name}() does not pin upper-level policies "
                "with an exact `type(...) is` comparison",
                "pin the checked-out policy classes exactly; isinstance() "
                "admits subclasses whose extra state the checkout drops",
            )
            return
        module_attr_reads = {
            node.attr
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Attribute)
        }
        for name in sorted(_type_pinned_classes(module.tree)):
            cls = ctx.class_by_name.get(name)
            if cls is None or not ctx.is_policy_class(cls):
                continue
            inventory = state_inventory(ctx, cls)
            for attr in sorted(inventory.mutable):
                if attr not in module_attr_reads:
                    yield self.finding(
                        module.path,
                        fn.lineno,
                        f"fast path pins policy {name} but never references "
                        f"its mutable state {attr!r}; checkout/restore would "
                        "silently drop it",
                        f"model {attr} in the flat checkout (and restore it "
                        "on checkin), or stop pinning the class",
                    )

    # -- 4: the trace-kind bound vs the AccessKind numbering ------------------

    def _check_kind_bound(
        self, ctx: LintContext, module: ModuleInfo, fn: ast.FunctionDef
    ) -> Iterator[Finding]:
        bound = _kinds_bound(fn)
        if bound is None:
            yield self.finding(
                module.path,
                fn.lineno,
                f"{fn.name}() does not bound trace.kinds; "
                "records beyond the modeled kinds would reach the fast loop",
                "compare trace.kinds.max() against the highest modeled "
                "AccessKind value",
            )
            return
        kind_values = _access_kind_values(ctx)
        if kind_values is None:
            return  # enum not in the analyzed tree: nothing to compare
        admitted = {name for name, value in kind_values.items() if value <= bound}
        if admitted != MODELED_KINDS:
            extra = sorted(admitted - MODELED_KINDS)
            lost = sorted(MODELED_KINDS - admitted)
            details: list[str] = []
            if extra:
                details.append(f"admits unmodeled kind(s) {', '.join(extra)}")
            if lost:
                details.append(f"excludes modeled kind(s) {', '.join(lost)}")
            yield self.finding(
                module.path,
                fn.lineno,
                f"eligibility bound kinds<={bound} disagrees with the "
                f"AccessKind numbering: {'; '.join(details)}",
                "keep the guard equal to the highest modeled AccessKind "
                "value (LOAD/STORE/IFETCH) when renumbering the enum",
            )


register_rule(FastpathEligibilityRule.name, FastpathEligibilityRule)
