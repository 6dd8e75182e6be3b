"""The analyzer's view of source code: parsed modules, classes, helpers.

The static rules in :mod:`repro.lint.contract` operate on a
:class:`LintContext` — every file parsed once, classes indexed by name,
inheritance resolved *by simple name* within the context (policies form a
closed class hierarchy inside one package, so nominal resolution is
exact there; unknown bases are treated as external and opaque).

The helpers here encode the conventions the contract rules rely on:

* hook methods receive the access as a parameter named ``access``
  (:class:`~repro.policies.base.PolicyAccess`), so ``access.pc`` /
  ``access.is_writeback`` are recognizable attribute reads;
* PC-derived values are tracked by a single-pass, per-function taint
  walk seeded from ``access.pc`` and parameters named ``pc``;
* hot paths are marked with a ``# hot`` comment on (or directly above)
  the ``def`` line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

#: The abstract base every replacement policy derives from.
POLICY_BASE = "ReplacementPolicy"

#: The ChampSim-style hook methods of the policy contract.
HOOK_METHODS = ("find_victim", "on_hit", "on_fill", "on_eviction")

#: Hooks a concrete policy must provide (on_eviction has a default).
REQUIRED_HOOKS = ("find_victim", "on_hit", "on_fill")


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def line(self, lineno: int) -> str:
        """1-based source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


@dataclass
class ClassInfo:
    """One class definition plus the bits rules care about."""

    name: str
    module: ModuleInfo
    node: ast.ClassDef
    base_names: list[str]
    methods: dict[str, ast.FunctionDef]
    class_attrs: dict[str, ast.expr]

    @property
    def is_abstract(self) -> bool:
        """Whether the class declares any abstract method of its own."""
        return any(
            _has_abstract_decorator(fn) for fn in self.methods.values()
        )


def _base_name(node: ast.expr) -> str | None:
    """The simple name of a base-class expression (``base.Foo`` -> Foo)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _has_abstract_decorator(fn: ast.FunctionDef) -> bool:
    for deco in fn.decorator_list:
        name = _base_name(deco)
        if name in ("abstractmethod", "abstractproperty"):
            return True
    return False


def _collect_class(node: ast.ClassDef, module: ModuleInfo) -> ClassInfo:
    methods: dict[str, ast.FunctionDef] = {}
    class_attrs: dict[str, ast.expr] = {}
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef):
            methods[stmt.name] = stmt
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    class_attrs[target.id] = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                class_attrs[stmt.target.id] = stmt.value
    bases = [b for b in (_base_name(base) for base in node.bases) if b]
    return ClassInfo(
        name=node.name,
        module=module,
        node=node,
        base_names=bases,
        methods=methods,
        class_attrs=class_attrs,
    )


class LintContext:
    """Everything the rules see: parsed modules and a class index."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules = modules
        self.classes: list[ClassInfo] = []
        self.class_by_name: dict[str, ClassInfo] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    info = _collect_class(node, module)
                    self.classes.append(info)
                    self.class_by_name[info.name] = info

    # -- inheritance (nominal, within the context) ----------------------------

    def mro_names(self, cls: ClassInfo) -> list[str]:
        """Base-class names reachable from ``cls``, nearest first."""
        seen: list[str] = []
        stack = list(cls.base_names)
        while stack:
            base = stack.pop(0)
            if base in seen:
                continue
            seen.append(base)
            parent = self.class_by_name.get(base)
            if parent is not None:
                stack.extend(parent.base_names)
        return seen

    def is_policy_class(self, cls: ClassInfo) -> bool:
        """Whether ``cls`` (transitively) derives from ReplacementPolicy."""
        return POLICY_BASE in self.mro_names(cls)

    def policy_classes(self, concrete_only: bool = True) -> list[ClassInfo]:
        """All policy classes in the context (optionally concrete only)."""
        found = [c for c in self.classes if self.is_policy_class(c)]
        if concrete_only:
            found = [c for c in found if not c.is_abstract]
        return found

    def resolve_method(
        self, cls: ClassInfo, name: str
    ) -> tuple[ClassInfo, ast.FunctionDef] | None:
        """The defining (class, def) of ``name`` for ``cls``, or None.

        Abstract defs do not count as implementations.
        """
        for owner_name in [cls.name, *self.mro_names(cls)]:
            owner = self.class_by_name.get(owner_name)
            if owner is None:
                continue
            fn = owner.methods.get(name)
            if fn is not None:
                if _has_abstract_decorator(fn):
                    return None
                return owner, fn
        return None

    def resolve_class_attr(self, cls: ClassInfo, name: str) -> ast.expr | None:
        """A class-level attribute assignment, following bases."""
        for owner_name in [cls.name, *self.mro_names(cls)]:
            owner = self.class_by_name.get(owner_name)
            if owner is not None and name in owner.class_attrs:
                return owner.class_attrs[name]
        return None

    def reachable_methods(
        self, cls: ClassInfo, entry: ast.FunctionDef
    ) -> list[tuple[ClassInfo, ast.FunctionDef]]:
        """``entry`` plus every same-class helper it (transitively) calls.

        Calls are recognized as ``self.<name>(...)`` and resolved through
        the class's bases; external calls are opaque.
        """
        reached: dict[str, tuple[ClassInfo, ast.FunctionDef]] = {
            entry.name: (cls, entry)
        }
        frontier = [entry]
        while frontier:
            fn = frontier.pop()
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                target = node.func
                if not (isinstance(target.value, ast.Name) and target.value.id == "self"):
                    continue
                if target.attr in reached:
                    continue
                resolved = self.resolve_method(cls, target.attr)
                if resolved is not None:
                    reached[target.attr] = resolved
                    frontier.append(resolved[1])
        return list(reached.values())


# -- expression predicates -----------------------------------------------------


def is_access_attr(node: ast.AST, attr: str) -> bool:
    """Whether ``node`` is the attribute read ``access.<attr>``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "access"
    )


def access_pc_reads(fn: ast.FunctionDef) -> list[ast.Attribute]:
    """Every ``access.pc`` read inside one function."""
    return [
        node
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and is_access_attr(node, "pc")
    ]


def has_writeback_guard(fn: ast.FunctionDef) -> bool:
    """Whether the function inspects ``access.is_writeback`` / ``access.kind``."""
    return any(
        is_access_attr(node, "is_writeback") or is_access_attr(node, "kind")
        for node in ast.walk(fn)
    )


def self_attr(node: ast.AST) -> str | None:
    """The ``x`` of a plain ``self.x`` expression, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def subscript_root_attr(node: ast.Subscript) -> str | None:
    """The ``self.<name>`` at the root of a (possibly nested) subscript."""
    value = node.value
    while isinstance(value, ast.Subscript):
        value = value.value
    if (
        isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and value.value.id == "self"
    ):
        return value.attr
    return None


def pc_tainted_names(fn: ast.FunctionDef) -> set[str]:
    """Local names holding PC-derived values, by one forward pass.

    Seeds: parameters named ``pc`` and any expression reading
    ``access.pc``; taint flows through assignments whose right-hand side
    mentions a tainted name (calls included: hashing a PC yields a
    PC-derived index).
    """
    tainted: set[str] = {
        arg.arg for arg in fn.args.args if arg.arg == "pc"
    }

    def expr_tainted(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in tainted:
                return True
            if is_access_attr(sub, "pc"):
                return True
        return False

    for stmt in ast.walk(fn):
        if isinstance(stmt, ast.Assign) and expr_tainted(stmt.value):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    tainted.add(target.id)
        elif isinstance(stmt, ast.AugAssign) and expr_tainted(stmt.value):
            if isinstance(stmt.target, ast.Name):
                tainted.add(stmt.target.id)
    return tainted


def pc_indexed_tables(cls: ClassInfo) -> set[str]:
    """Names of ``self.<table>`` attributes indexed by PC-derived values.

    A table subscripted anywhere in the class by an expression tainted by
    ``access.pc`` (or a parameter named ``pc``) is a *PC table* — e.g.
    SHiP's ``_shct`` or Hawkeye's ``_counters``. Policies holding such
    tables must decide explicitly what PC-less writebacks do to them.
    """
    tables: set[str] = set()
    for fn in cls.methods.values():
        tainted = pc_tainted_names(fn)
        if not tainted and not access_pc_reads(fn):
            continue

        def expr_tainted(node: ast.AST, tainted_names: set[str] = tainted) -> bool:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in tainted_names:
                    return True
                if is_access_attr(sub, "pc"):
                    return True
            return False

        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and expr_tainted(node.slice):
                root = subscript_root_attr(node)
                if root is not None:
                    tables.add(root)
    return tables


def references_attr(fn: ast.FunctionDef, attrs: set[str]) -> bool:
    """Whether the function touches any ``self.<attr>`` in ``attrs``."""
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in attrs
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return True
    return False


def build_parent_map(root: ast.AST) -> dict[ast.AST, ast.AST]:
    """child -> parent links for ancestor walks."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(root):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def local_table_aliases(fn: ast.FunctionDef) -> dict[str, str]:
    """Local name -> the ``self.<attr>`` state it aliases.

    Recognizes a whole table (``rrpv = self._rrpv``, the idiom of flat
    per-line tables) and a row of one (``row = self._t[set_index]``).
    Writing through the alias writes policy state, so the
    saturating-counter rule and the snapshot inventory see through it.
    """
    aliases: dict[str, str] = {}
    for stmt in ast.walk(fn):
        if not isinstance(stmt, ast.Assign):
            continue
        if isinstance(stmt.value, ast.Subscript):
            root = subscript_root_attr(stmt.value)
        else:
            root = self_attr(stmt.value)
        if root is None:
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                aliases[target.id] = root
    return aliases


def hot_functions(module: ModuleInfo) -> list[ast.FunctionDef]:
    """Functions marked with a ``# hot`` comment on/above their def line."""
    marked: list[ast.FunctionDef] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.FunctionDef):
            on_def = "# hot" in module.line(node.lineno)
            above = "# hot" in module.line(node.lineno - 1).strip()
            if on_def or above:
                marked.append(node)
    return marked


def parse_module(path: str | Path) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises SyntaxError)."""
    p = Path(path)
    source = p.read_text()
    return ModuleInfo(path=str(p), source=source, tree=ast.parse(source, filename=str(p)))
