"""The shipped tree must be lint-clean, and the registry checks must bite.

These are the acceptance tests of the analyzer as a whole: the live
``repro`` package produces zero findings under the checked-in baseline
(and zero *errors* even without it), and the runtime
registry-consistency pass catches a broken registration when one is
injected.
"""

from pathlib import Path

from repro.lint import Severity, apply_baseline, lint_tree, parse_baseline
from repro.lint.findings import Finding, worst_severity
from repro.policies import registry
from repro.policies.basic import LRUPolicy

BASELINE = Path(__file__).resolve().parent.parent / "lint-baseline.txt"


class TestLiveTree:
    def test_package_is_lint_clean_under_baseline(self):
        findings = lint_tree()
        kept, suppressed = apply_baseline(
            findings, parse_baseline(BASELINE), BASELINE
        )
        assert [f.render() for f in kept] == []
        # Every checked-in suppression must still earn its keep.
        assert suppressed == len(findings)

    def test_package_has_no_errors_even_without_baseline(self):
        errors = [f for f in lint_tree() if f.severity == Severity.ERROR]
        assert [f.render() for f in errors] == []

    def test_rule_subset_also_clean(self):
        from repro.lint import make_rule

        findings = lint_tree(rules=[make_rule("pc-table-hygiene")])
        assert findings == []


class TestEngineCoverage:
    def test_engine_module_is_linted(self):
        from repro.lint.analyzer import build_context, package_root

        ctx, _ = build_context([package_root()])
        paths = {module.path for module in ctx.modules}
        assert any(p.endswith("harness/engine.py") for p in paths), (
            "the live-tree pass must cover the sweep engine"
        )


class TestRegistryConsistency:
    def test_crashing_factory_reported(self, monkeypatch):
        def explode():
            raise RuntimeError("boom")

        monkeypatch.setitem(registry._REGISTRY, "broken", explode)
        findings = [f for f in lint_tree() if f.rule == "registry-consistency"]
        assert len(findings) == 1
        assert "fails to construct" in findings[0].message
        assert findings[0].severity == Severity.ERROR

    def test_name_mismatch_reported(self, monkeypatch):
        # LRUPolicy reports name="lru", not the key it is registered under.
        monkeypatch.setitem(registry._REGISTRY, "misnamed", LRUPolicy)
        findings = [f for f in lint_tree() if f.rule == "registry-consistency"]
        assert len(findings) == 1
        assert "misnamed" in findings[0].message
        assert "lru" in findings[0].message

    def test_non_policy_registration_reported(self, monkeypatch):
        monkeypatch.setitem(registry._REGISTRY, "impostor", dict)
        findings = [f for f in lint_tree() if f.rule == "registry-consistency"]
        assert len(findings) == 1
        assert "not a ReplacementPolicy" in findings[0].message

    def test_dynamically_defined_class_is_a_warning(self, monkeypatch):
        # A class built at runtime is invisible to the static pass.
        Hidden = type("HiddenPolicy", (LRUPolicy,), {"name": "hidden"})
        monkeypatch.setitem(registry._REGISTRY, "hidden", Hidden)
        findings = [f for f in lint_tree() if f.rule == "registry-consistency"]
        assert len(findings) == 1
        assert findings[0].severity == Severity.WARNING
        assert "HiddenPolicy" in findings[0].message


class TestFindings:
    def test_render_is_file_line_severity_rule(self):
        finding = Finding(
            rule="victim-return",
            severity=Severity.ERROR,
            path="src/repro/policies/x.py",
            line=12,
            message="find_victim returns None",
            hint="return a way index",
        )
        rendered = finding.render()
        assert rendered.startswith(
            "src/repro/policies/x.py:12: error [victim-return] "
        )
        assert "hint: return a way index" in rendered

    def test_severity_orders_by_badness(self):
        assert Severity.NOTE < Severity.WARNING < Severity.ERROR
        assert str(Severity.WARNING) == "warning"

    def test_worst_severity(self):
        note = Finding("r", Severity.NOTE, "p", 1, "m", "h")
        error = Finding("r", Severity.ERROR, "p", 2, "m", "h")
        assert worst_severity([]) is None
        assert worst_severity([note]) == Severity.NOTE
        assert worst_severity([note, error]) == Severity.ERROR
