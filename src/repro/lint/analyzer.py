"""Lint drivers: collect files, build the context, run the rules.

Two entry points:

* :func:`lint_paths` — lint an explicit set of files/directories (used by
  the per-rule tests on fixture modules, and by ``repro lint <paths>``);
* :func:`lint_tree` — lint the live :mod:`repro` package, adding the
  runtime registry-consistency checks that need the real
  :mod:`repro.policies.registry` (every registered name constructs, the
  instance's ``name`` matches its registry key, and the class is visible
  to the static pass).
"""

from __future__ import annotations

from pathlib import Path

from ..errors import ReproError
from .findings import Finding, Severity
from .model import LintContext, ModuleInfo, parse_module
from .rules import Rule, all_rules

# Importing the rule modules registers the built-in rules.
from . import contract as _contract  # noqa: F401
from . import determinism as _determinism  # noqa: F401
from . import fastpath_audit as _fastpath_audit  # noqa: F401
from . import snapshot as _snapshot  # noqa: F401
from . import warmstate as _warmstate  # noqa: F401

#: Directories never linted (caches, build output).
_SKIP_DIRS = {"__pycache__", ".git", "build", "dist"}


def _collect_files(paths: list[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if not any(part in _SKIP_DIRS for part in p.parts)
            )
        elif path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_file():
            raise ReproError(f"not a Python file: {path}")
        else:
            raise ReproError(f"lint path does not exist: {path}")
    return files


def build_context(paths: list[str | Path]) -> tuple[LintContext, list[Finding]]:
    """Parse every file into a context; syntax errors become findings."""
    modules: list[ModuleInfo] = []
    findings: list[Finding] = []
    for path in _collect_files(paths):
        try:
            modules.append(parse_module(path))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="parse-error",
                    severity=Severity.ERROR,
                    path=str(path),
                    line=exc.lineno or 1,
                    message=f"file does not parse: {exc.msg}",
                    hint="fix the syntax error; nothing else was checked",
                )
            )
    return LintContext(modules), findings


def run_rules(ctx: LintContext, rules: list[Rule] | None = None) -> list[Finding]:
    """Run ``rules`` (default: all registered) over a built context."""
    if rules is None:
        rules = all_rules()
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.check(ctx))
    return sorted(set(findings), key=lambda f: (f.path, f.line, f.rule))


def lint_paths(
    paths: list[str | Path], rules: list[Rule] | None = None
) -> list[Finding]:
    """Lint explicit files/directories; returns sorted findings."""
    ctx, findings = build_context(paths)
    return sorted(
        set(findings + run_rules(ctx, rules)),
        key=lambda f: (f.path, f.line, f.rule),
    )


def package_root() -> Path:
    """The installed :mod:`repro` package directory."""
    import repro

    return Path(repro.__file__).resolve().parent


def _registry_findings(ctx: LintContext) -> list[Finding]:
    """Cross-check the live policy registry against the static view."""
    from ..policies.base import ReplacementPolicy
    from ..policies.registry import available_policies, make_policy

    registry_path = str(package_root() / "policies" / "registry.py")
    findings: list[Finding] = []
    static_names = {cls.name for cls in ctx.policy_classes(concrete_only=False)}
    for name in available_policies():
        try:
            instance = make_policy(name)
        except Exception as exc:  # a registered factory must construct
            findings.append(
                Finding(
                    rule="registry-consistency",
                    severity=Severity.ERROR,
                    path=registry_path,
                    line=1,
                    message=f"registered policy {name!r} fails to construct: {exc}",
                    hint="the factory must build a fresh, unattached instance",
                )
            )
            continue
        if not isinstance(instance, ReplacementPolicy):
            findings.append(
                Finding(
                    rule="registry-consistency",
                    severity=Severity.ERROR,
                    path=registry_path,
                    line=1,
                    message=f"registered policy {name!r} is not a ReplacementPolicy",
                    hint="register only ReplacementPolicy subclasses",
                )
            )
            continue
        if instance.name != name:
            findings.append(
                Finding(
                    rule="registry-consistency",
                    severity=Severity.ERROR,
                    path=registry_path,
                    line=1,
                    message=(
                        f"policy registered as {name!r} reports name="
                        f"{instance.name!r}; reports and budgets key on it"
                    ),
                    hint="make the class `name` attribute match its registry key",
                )
            )
        if type(instance).__name__ not in static_names:
            findings.append(
                Finding(
                    rule="registry-consistency",
                    severity=Severity.WARNING,
                    path=registry_path,
                    line=1,
                    message=(
                        f"class {type(instance).__name__} (policy {name!r}) is "
                        "not visible to the static analyzer"
                    ),
                    hint="define policy classes statically inside repro/policies/",
                )
            )
    return findings


def lint_tree(
    root: str | Path | None = None, rules: list[Rule] | None = None
) -> list[Finding]:
    """Lint the live package tree plus the runtime registry checks."""
    if root is None:
        root = package_root()
    ctx, findings = build_context([root])
    findings += run_rules(ctx, rules)
    findings += _registry_findings(ctx)
    return sorted(set(findings), key=lambda f: (f.path, f.line, f.rule))
