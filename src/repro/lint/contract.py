"""The built-in contract rules.

Each rule encodes one clause of the ChampSim-style policy contract in
:mod:`repro.policies.base`, or one simulator-wide hygiene requirement.
docs/linting.md explains the rationale of each rule against the paper's
methodology; the short version is in each class docstring.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding, Severity
from .model import (
    REQUIRED_HOOKS,
    LintContext,
    access_pc_reads,
    build_parent_map,
    has_writeback_guard,
    hot_functions,
    local_table_aliases,
    pc_indexed_tables,
    references_attr,
    subscript_root_attr,
)
from .rules import Rule, register_rule

#: Path fragments marking simulation code (determinism-critical).
SIMULATION_PATH_PARTS = ("policies", "mem", "core")


def _is_simulation_module(path: str) -> bool:
    parts = path.replace("\\", "/").split("/")
    return any(p in parts for p in SIMULATION_PATH_PARTS)


def _walk_skipping_nested_defs(fn: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk a function's own body, not the bodies of nested defs."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _compares(expr: ast.expr) -> bool:
    """Whether ``expr`` holds a comparison."""
    return any(isinstance(n, ast.Compare) for n in ast.walk(expr))


class PolicyHooksRule(Rule):
    """Every concrete policy must implement the full hook contract.

    A port that forgets ``on_fill`` (or leaves it abstract) would raise at
    first use in the best case — and silently inherit the wrong behaviour
    from a sibling base class in the worst. The rule also requires a
    non-default ``name``, since the registry and every report key on it.
    """

    name = "policy-hooks"
    description = "concrete policies implement find_victim/on_hit/on_fill and set name"
    severity = Severity.ERROR

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for cls in ctx.policy_classes():
            for hook in REQUIRED_HOOKS:
                if ctx.resolve_method(cls, hook) is None:
                    yield self.finding(
                        cls.module.path,
                        cls.node.lineno,
                        f"policy class {cls.name} does not implement {hook}()",
                        f"define {hook}() (see ReplacementPolicy.{hook} docstring)",
                    )
            name_attr = ctx.resolve_class_attr(cls, "name")
            name_value = (
                name_attr.value
                if isinstance(name_attr, ast.Constant)
                else None
            )
            if name_value in (None, "", "base"):
                yield self.finding(
                    cls.module.path,
                    cls.node.lineno,
                    f"policy class {cls.name} does not set a registry `name`",
                    'add a class attribute like `name = "mypolicy"`',
                )


class VictimReturnRule(Rule):
    """``find_victim`` returns a way index or ``BYPASS`` — nothing else.

    The cache indexes its tag array with the return value; ``None`` or a
    stray negative constant corrupts the set silently (Python negative
    indexing!). ``BYPASS`` is only honoured when the class declares
    ``supports_bypass = True``, so the hardware-budget accounting and the
    hierarchy's writeback handling know bypassing is in play.
    """

    name = "victim-return"
    description = "find_victim returns only a way index or BYPASS (declared via supports_bypass)"
    severity = Severity.ERROR

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for cls in ctx.policy_classes():
            fn = cls.methods.get("find_victim")
            if fn is None:
                continue
            returns_bypass = False
            for node in _walk_skipping_nested_defs(fn):
                if not isinstance(node, ast.Return):
                    continue
                value = node.value
                if value is None or (
                    isinstance(value, ast.Constant) and value.value is None
                ):
                    yield self.finding(
                        cls.module.path,
                        node.lineno,
                        f"{cls.name}.find_victim returns None",
                        "return a way index, or BYPASS if supports_bypass",
                    )
                    continue
                if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub):
                    operand = value.operand
                    if isinstance(operand, ast.Constant) and isinstance(
                        operand.value, int
                    ):
                        yield self.finding(
                            cls.module.path,
                            node.lineno,
                            f"{cls.name}.find_victim returns the literal "
                            f"-{operand.value}",
                            "use the BYPASS sentinel from repro.policies.base",
                        )
                        continue
                if isinstance(value, ast.Name) and value.id == "BYPASS":
                    returns_bypass = True
                if isinstance(value, ast.Attribute) and value.attr == "BYPASS":
                    returns_bypass = True
            if returns_bypass:
                declared = ctx.resolve_class_attr(cls, "supports_bypass")
                ok = isinstance(declared, ast.Constant) and declared.value is True
                if not ok:
                    yield self.finding(
                        cls.module.path,
                        fn.lineno,
                        f"{cls.name}.find_victim returns BYPASS but the class "
                        "does not declare supports_bypass = True",
                        "set `supports_bypass = True` on the class",
                    )


class PCWritebackGuardRule(Rule):
    """Hooks that read ``access.pc`` must consider writebacks first.

    Writebacks arrive with ``pc == 0`` (base-class contract, mirroring
    real hardware). A hook that hashes or indexes with ``access.pc``
    without ever testing ``access.is_writeback`` / ``access.kind`` will
    train its predictor on a meaningless PC — exactly the contract drift
    that corrupts the Figure 3 speed-ups for SHiP/Hawkeye/MPPPB. The
    check is transitive over same-class helpers: a guard anywhere in the
    reachable code of the hook satisfies it.
    """

    name = "pc-writeback-guard"
    description = "access.pc used in a hook requires an access.is_writeback/kind guard"
    severity = Severity.ERROR

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        seen: set[tuple[str, int]] = set()
        for cls in ctx.policy_classes():
            for hook in ("find_victim", "on_hit", "on_fill"):
                fn = cls.methods.get(hook)
                if fn is None:
                    continue
                reachable = ctx.reachable_methods(cls, fn)
                pc_sites = [
                    (owner, node)
                    for owner, reached in reachable
                    for node in access_pc_reads(reached)
                ]
                if not pc_sites:
                    continue
                if any(has_writeback_guard(reached) for _, reached in reachable):
                    continue
                owner, node = pc_sites[0]
                key = (owner.module.path, node.lineno)
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding(
                    owner.module.path,
                    node.lineno,
                    f"{cls.name}.{hook} reads access.pc without guarding "
                    "against writebacks (pc == 0)",
                    "test access.is_writeback (or access.kind) before using the PC",
                )


class PCTableHygieneRule(Rule):
    """PC-predicting policies must handle writebacks in on_hit *and* on_fill.

    A class that maintains PC-indexed tables (detected by taint from
    ``access.pc`` / ``pc`` parameters into subscript indices) has decided
    PCs are signal; a touch hook that then updates those tables without a
    writeback guard trains on the stored signature of a line during a
    PC-less writeback touch — the SHiP reference explicitly excludes
    writebacks from SHCT training for this reason.
    """

    name = "pc-table-hygiene"
    description = "policies with PC-indexed tables guard on_hit/on_fill against writebacks"
    severity = Severity.ERROR

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for cls in ctx.policy_classes():
            tables = pc_indexed_tables(cls)
            if not tables:
                continue
            for hook in ("on_hit", "on_fill"):
                resolved = ctx.resolve_method(cls, hook)
                if resolved is None:
                    continue  # policy-hooks reports the missing hook
                owner, fn = resolved
                if owner is not cls:
                    # Inherited hook: reported on the defining class.
                    continue
                reachable = ctx.reachable_methods(cls, fn)
                touches = any(
                    references_attr(reached, tables) for _, reached in reachable
                )
                if not touches:
                    continue
                if any(has_writeback_guard(reached) for _, reached in reachable):
                    continue
                yield self.finding(
                    cls.module.path,
                    fn.lineno,
                    f"{cls.name}.{hook} updates PC-indexed state "
                    f"({', '.join(sorted(tables))}) without a writeback guard",
                    "skip (or explicitly handle) writeback touches before "
                    "reading/updating PC tables",
                )


class SaturatingCounterRule(Rule):
    """Per-entry counters move only under an explicit bound check.

    Every predictor in the paper's policy set uses *saturating* counters
    (2-bit SHCT, 3-bit Hawkeye, bounded perceptron weights). An unguarded
    ``table[i] += 1`` silently overflows into arbitrary Python ints — the
    policy still runs, but its behaviour diverges from the hardware being
    modelled. The rule accepts a ``+= 1`` / ``-= 1`` on subscripted
    policy state when the condition of an enclosing ``if``/``while``
    holds a comparison — the idiomatic saturation guard — or when an
    enclosing ``while`` body leaves the loop under a comparison, the
    SRRIP aging idiom (``if rrpv[way] == MAX: return way``).
    """

    name = "saturating-counters"
    description = "subscripted counter updates are guarded by a bound comparison"
    severity = Severity.WARNING

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for cls in ctx.policy_classes(concrete_only=False):
            for fn in cls.methods.values():
                aliases = local_table_aliases(fn)
                parents = build_parent_map(fn)
                for node in ast.walk(fn):
                    if not isinstance(node, ast.AugAssign):
                        continue
                    if not isinstance(node.op, (ast.Add, ast.Sub)):
                        continue
                    target = node.target
                    if not isinstance(target, ast.Subscript):
                        continue
                    root = subscript_root_attr(target)
                    if root is None:
                        value = target.value
                        while isinstance(value, ast.Subscript):
                            value = value.value
                        if not (isinstance(value, ast.Name) and value.id in aliases):
                            continue
                    if self._guarded(node, parents, fn):
                        continue
                    yield self.finding(
                        cls.module.path,
                        node.lineno,
                        f"{cls.name}.{fn.name} updates a counter without a "
                        "saturation bound in any enclosing if/while",
                        "guard with a comparison against the counter's "
                        "MIN/MAX before updating",
                    )

    @staticmethod
    def _guarded(
        node: ast.AST, parents: dict[ast.AST, ast.AST], fn: ast.FunctionDef
    ) -> bool:
        current: ast.AST | None = parents.get(node)
        while current is not None and current is not fn:
            if isinstance(current, (ast.If, ast.While)) and _compares(current.test):
                return True
            if isinstance(current, ast.While) and any(
                isinstance(n, ast.If)
                and _compares(n.test)
                and any(isinstance(e, (ast.Return, ast.Break)) for e in ast.walk(n))
                for n in ast.walk(current)
            ):
                return True
            current = parents.get(current)
        return False


class DeterminismRule(Rule):
    """Simulation code must be bit-reproducible run to run.

    The multi-seed harness and the paper's error bars assume that a
    (trace, policy, seed) triple always produces the same numbers.
    Wall-clock reads, the global ``random`` module, unseeded numpy
    generators and the per-process-salted builtin ``hash()`` all break
    that silently. Applies to :mod:`repro.policies`, :mod:`repro.mem`
    and :mod:`repro.core` (the harness/report layer may time things).
    """

    name = "determinism"
    description = "no random/time imports, unseeded RNGs, or builtin hash() in simulation code"
    severity = Severity.ERROR

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for module in ctx.modules:
            if not _is_simulation_module(module.path):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.split(".")[0] in ("random", "time"):
                            yield self.finding(
                                module.path,
                                node.lineno,
                                f"simulation module imports {alias.name!r}",
                                "derive randomness from a seeded numpy "
                                "Generator; never read wall-clock time",
                            )
                elif isinstance(node, ast.ImportFrom):
                    if node.module and node.module.split(".")[0] in ("random", "time"):
                        yield self.finding(
                            module.path,
                            node.lineno,
                            f"simulation module imports from {node.module!r}",
                            "derive randomness from a seeded numpy "
                            "Generator; never read wall-clock time",
                        )
                elif isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Name)
                        and func.id == "hash"
                        and not any(
                            isinstance(k, ast.keyword) for k in node.keywords
                        )
                    ):
                        yield self.finding(
                            module.path,
                            node.lineno,
                            "builtin hash() is salted per process (PYTHONHASHSEED)",
                            "use an explicit fold/mask hash of the integer value",
                        )
                    name = (
                        func.attr
                        if isinstance(func, ast.Attribute)
                        else func.id
                        if isinstance(func, ast.Name)
                        else None
                    )
                    if name == "default_rng" and not node.args and not node.keywords:
                        yield self.finding(
                            module.path,
                            node.lineno,
                            "default_rng() without a seed is nondeterministic",
                            "pass an explicit integer seed",
                        )


class HotAllocRule(Rule):
    """Functions marked ``# hot`` must not allocate containers per call.

    The access loop runs millions of times per simulated workload;
    a list/dict/set display or comprehension inside it shows up directly
    in wall-clock (the simulator's throughput target in ROADMAP.md).
    Mark a function hot with a ``# hot`` comment on its ``def`` line.
    """

    name = "hot-alloc"
    description = "# hot functions avoid per-call list/dict/set allocation"
    severity = Severity.WARNING

    _ALLOC_CALLS = {"list", "dict", "set", "sorted", "frozenset"}

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for module in ctx.modules:
            for fn in hot_functions(module):
                for node in ast.walk(fn):
                    bad: str | None = None
                    if isinstance(
                        node,
                        (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
                    ):
                        bad = "a comprehension"
                    elif isinstance(node, (ast.List, ast.Dict, ast.Set)):
                        bad = "a container literal"
                    elif (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in self._ALLOC_CALLS
                    ):
                        bad = f"a {node.func.id}() call"
                    if bad is not None:
                        yield self.finding(
                            module.path,
                            node.lineno,
                            f"hot function {fn.name} allocates {bad} per call",
                            "hoist the allocation out of the hot path or "
                            "reuse a preallocated structure",
                        )


for _rule in (
    PolicyHooksRule,
    VictimReturnRule,
    PCWritebackGuardRule,
    PCTableHygieneRule,
    SaturatingCounterRule,
    DeterminismRule,
    HotAllocRule,
):
    register_rule(_rule.name, _rule)
