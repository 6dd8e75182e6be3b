"""Per-class mutable-state inventory, inferred from the AST.

A replacement policy's *mutable state* is every ``self.<attr>``
allocated in its constructor/``initialize`` and changed from inside the
hook contract (``find_victim``/``on_hit``/``on_fill``/``on_eviction``
and the helpers they reach). That inventory is what
``snapshot_state()`` must account for — learned policies carry far more
hidden predictor state than their headline tables (samplers, per-line
metadata, history registers), and a snapshot that silently omits some of
it under-reports exactly the state whose variability the reuse-prediction
literature warns about.

Mutation is detected conservatively:

* direct assignment and augmented assignment to ``self.attr`` or any
  subscript rooted at it (``self.t[i] = ...``, ``self.t[i][j] += 1``);
* assignment through a local alias of a state table or a row of one
  (``t = self.t; t[i] = ...``, ``row = self.t[i]; row[j] = ...``), the
  aliases the saturating-counter rule sees through as well;
* *any* method call on the attribute or a subscript of it
  (``self._sampler.observe(...)``, ``self._pchr.append(...)``,
  ``self._rng.integers(...)``) — calls may be pure, but a reuse
  predictor's "query" frequently trains as a side effect, so calls count
  as mutation and provably-pure cases belong in the lint baseline.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .model import (
    HOOK_METHODS,
    ClassInfo,
    LintContext,
    local_table_aliases,
    self_attr,
    subscript_root_attr,
)

#: Methods that allocate state (searched for ``self.x = ...`` targets).
INITIALIZER_METHODS = ("__init__", "initialize")


def _assignment_target_attr(target: ast.expr) -> str | None:
    """The ``self.<attr>`` root of an assignment target, if any."""
    direct = self_attr(target)
    if direct is not None:
        return direct
    if isinstance(target, ast.Subscript):
        return subscript_root_attr(target)
    return None


def assigned_attrs(fn: ast.FunctionDef) -> dict[str, int]:
    """``self.<attr>`` names directly assigned in ``fn`` -> first lineno."""
    found: dict[str, int] = {}
    for node in ast.walk(fn):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            attr = self_attr(target)
            if attr is not None and attr not in found:
                found[attr] = target.lineno
    return found


def mutated_attrs(fn: ast.FunctionDef) -> set[str]:
    """``self.<attr>`` names ``fn`` mutates (see module docstring)."""
    aliases = local_table_aliases(fn)
    mutated: set[str] = set()

    def resolve(target: ast.expr) -> str | None:
        attr = _assignment_target_attr(target)
        if attr is not None:
            return attr
        # A store *through* a local alias (``row[...] = ...``) mutates the
        # aliased state; re-binding the bare alias name does not.
        if isinstance(target, ast.Subscript):
            node: ast.AST = target
            while isinstance(node, ast.Subscript):
                node = node.value
            if isinstance(node, ast.Name):
                return aliases.get(node.id)
        return None

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = resolve(target)
                if attr is not None:
                    mutated.add(attr)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            attr = resolve(node.target)
            if attr is not None:
                mutated.add(attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            # A method call on state (or a row of it) counts as mutation.
            receiver: ast.AST = node.func.value
            while isinstance(receiver, ast.Subscript):
                receiver = receiver.value
            attr = self_attr(receiver)
            if attr is not None:
                mutated.add(attr)
            elif isinstance(receiver, ast.Name) and receiver.id in aliases:
                mutated.add(aliases[receiver.id])
    return mutated


def referenced_attrs(fn: ast.FunctionDef) -> set[str]:
    """Every ``self.<attr>`` name read or written anywhere in ``fn``."""
    return {
        attr
        for node in ast.walk(fn)
        if (attr := self_attr(node)) is not None
    }


@dataclass
class StateInventory:
    """The mutable-state picture of one (resolved) policy class."""

    #: attr -> lineno of its allocation in ``__init__``/``initialize``.
    allocated: dict[str, int] = field(default_factory=dict)
    #: attr -> hook names whose reachable code mutates it.
    mutated_by: dict[str, set[str]] = field(default_factory=dict)

    @property
    def mutable(self) -> dict[str, int]:
        """Allocated attrs that some hook mutates -> allocation lineno."""
        return {
            attr: line
            for attr, line in self.allocated.items()
            if attr in self.mutated_by
        }


def _property_methods(ctx: LintContext, cls: ClassInfo) -> dict[str, ast.FunctionDef]:
    """Property-decorated methods visible on ``cls`` (MRO-resolved)."""
    props: dict[str, ast.FunctionDef] = {}
    for owner_name in [cls.name, *ctx.mro_names(cls)]:
        owner = ctx.class_by_name.get(owner_name)
        if owner is None:
            continue
        for name, fn in owner.methods.items():
            if name in props:
                continue
            for deco in fn.decorator_list:
                if isinstance(deco, ast.Name) and deco.id == "property":
                    props[name] = fn
                    break
    return props


def _is_super_call_attr(node: ast.Attribute) -> bool:
    """Whether ``node`` is the ``.m`` of a ``super().m(...)`` access."""
    return (
        isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "super"
        and not node.value.args
    )


def _resolve_super_method(
    ctx: LintContext, owner: ClassInfo, name: str
) -> tuple[ClassInfo, ast.FunctionDef] | None:
    """``super().name`` as seen from a method defined on ``owner``."""
    for base_name in ctx.mro_names(owner):
        base = ctx.class_by_name.get(base_name)
        if base is None:
            continue
        fn = base.methods.get(name)
        if fn is not None:
            return base, fn
    return None


def _closure_attrs(
    ctx: LintContext,
    cls: ClassInfo,
    entry_owner: ClassInfo,
    entry: ast.FunctionDef,
    collect: "ast.FunctionDef -> set[str]" = referenced_attrs,  # type: ignore[valid-type]
) -> set[str]:
    """Attrs collected over ``entry`` plus reachable helpers/properties.

    Reachability covers ``self.m()`` calls (dispatched on the instance
    class ``cls``), ``super().m()`` chains (dispatched past the defining
    class — the LIP/BIP snapshot idiom), and reads of ``self.p`` where
    ``p`` is a property — a snapshot that reports ``self.optgen_hit_rate``
    covers the sampler that property consults.
    """
    props = _property_methods(ctx, cls)
    seen_fns: set[int] = set()
    attrs: set[str] = set()
    frontier: list[tuple[ClassInfo, ast.FunctionDef]] = [(entry_owner, entry)]
    while frontier:
        owner, fn = frontier.pop()
        if id(fn) in seen_fns:
            continue
        seen_fns.add(id(fn))
        attrs |= collect(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                target = node.func
                if isinstance(target.value, ast.Name) and target.value.id == "self":
                    resolved = ctx.resolve_method(cls, target.attr)
                    if resolved is not None:
                        frontier.append(resolved)
                elif _is_super_call_attr(target):
                    resolved = _resolve_super_method(ctx, owner, target.attr)
                    if resolved is not None:
                        frontier.append(resolved)
        for name in referenced_attrs(fn):
            if name in props:
                frontier.append((cls, props[name]))
    return attrs


def state_inventory(ctx: LintContext, cls: ClassInfo) -> StateInventory:
    """Infer ``cls``'s mutable-state inventory (MRO-resolved)."""
    inventory = StateInventory()
    for initializer in INITIALIZER_METHODS:
        resolved = ctx.resolve_method(cls, initializer)
        if resolved is None:
            continue
        owner, fn = resolved
        # Walk the full super() chain: subclasses allocate on top of bases.
        for owner_name in [cls.name, *ctx.mro_names(cls)]:
            owner_cls = ctx.class_by_name.get(owner_name)
            if owner_cls is None:
                continue
            init_fn = owner_cls.methods.get(initializer)
            if init_fn is None:
                continue
            for attr, line in assigned_attrs(init_fn).items():
                inventory.allocated.setdefault(attr, line)
    for hook in HOOK_METHODS:
        resolved = ctx.resolve_method(cls, hook)
        if resolved is None:
            continue
        owner, fn = resolved
        hook_mutated = _closure_attrs(ctx, cls, owner, fn, collect=mutated_attrs)
        for attr in hook_mutated:
            inventory.mutated_by.setdefault(attr, set()).add(hook)
    return inventory


def snapshot_covered_attrs(ctx: LintContext, cls: ClassInfo) -> set[str]:
    """Attrs ``snapshot_state()`` (and what it reaches) references."""
    resolved = ctx.resolve_method(cls, "snapshot_state")
    if resolved is None:
        return set()
    owner, fn = resolved
    return _closure_attrs(ctx, cls, owner, fn, collect=referenced_attrs)
