"""Per-rule fixture tests for the repro.lint static analyzer.

Each rule gets a known-bad snippet it must flag and a known-good snippet
it must pass. Fixtures are written under ``tmp_path/policies`` so the
path-scoped rules (determinism) treat them as simulation code.
"""

import textwrap

import pytest

from repro.lint import Severity, available_rules, lint_paths, make_rule
from repro.lint.rules import UnknownRuleError

EXPECTED_RULES = [
    "determinism",
    "hot-alloc",
    "pc-table-hygiene",
    "pc-writeback-guard",
    "policy-hooks",
    "saturating-counters",
    "victim-return",
]


def lint_source(tmp_path, source, rule=None, subdir="policies"):
    """Write a fixture module and lint it (with one rule, or all)."""
    target = tmp_path / subdir
    target.mkdir(parents=True, exist_ok=True)
    path = target / "fixture.py"
    path.write_text(textwrap.dedent(source))
    rules = [make_rule(rule)] if rule else None
    return lint_paths([path], rules)


class TestRuleRegistry:
    def test_all_builtin_rules_registered(self):
        assert set(EXPECTED_RULES) <= set(available_rules())

    def test_make_rule_returns_fresh_instances(self):
        assert make_rule("policy-hooks") is not make_rule("policy-hooks")

    def test_unknown_rule_raises_with_available_names(self):
        with pytest.raises(UnknownRuleError, match="policy-hooks"):
            make_rule("definitely-not-a-rule")

    def test_rules_declare_description_and_severity(self):
        for name in EXPECTED_RULES:
            rule = make_rule(name)
            assert rule.name == name
            assert rule.description
            assert isinstance(rule.severity, Severity)


class TestPolicyHooks:
    def test_missing_hooks_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            class Incomplete(ReplacementPolicy):
                name = "incomplete"

                def find_victim(self, set_index, access, tags):
                    return 0
        """, rule="policy-hooks")
        messages = [f.message for f in findings]
        assert any("on_hit" in m for m in messages)
        assert any("on_fill" in m for m in messages)
        assert all(f.severity == Severity.ERROR for f in findings)
        assert all(f.path.endswith("fixture.py") and f.line > 0 for f in findings)

    def test_missing_registry_name_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            class Anonymous(ReplacementPolicy):
                def find_victim(self, set_index, access, tags):
                    return 0

                def on_hit(self, set_index, way, access):
                    pass

                def on_fill(self, set_index, way, access):
                    pass
        """, rule="policy-hooks")
        assert len(findings) == 1
        assert "name" in findings[0].message

    def test_complete_policy_passes(self, tmp_path):
        findings = lint_source(tmp_path, """
            class Complete(ReplacementPolicy):
                name = "complete"

                def find_victim(self, set_index, access, tags):
                    return 0

                def on_hit(self, set_index, way, access):
                    pass

                def on_fill(self, set_index, way, access):
                    pass
        """, rule="policy-hooks")
        assert findings == []

    def test_hooks_inherited_from_intermediate_base_count(self, tmp_path):
        findings = lint_source(tmp_path, """
            class BaseImpl(ReplacementPolicy):
                name = "baseimpl"

                def find_victim(self, set_index, access, tags):
                    return 0

                def on_hit(self, set_index, way, access):
                    pass

                def on_fill(self, set_index, way, access):
                    pass

            class Derived(BaseImpl):
                name = "derived"
        """, rule="policy-hooks")
        assert findings == []

    def test_abstract_intermediates_are_skipped(self, tmp_path):
        findings = lint_source(tmp_path, """
            import abc

            class Skeleton(ReplacementPolicy):
                name = "skeleton"

                @abc.abstractmethod
                def find_victim(self, set_index, access, tags):
                    ...
        """, rule="policy-hooks")
        assert findings == []


class TestVictimReturn:
    def test_return_none_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            class NoneVictim(ReplacementPolicy):
                name = "nonevictim"

                def find_victim(self, set_index, access, tags):
                    for way in range(self.num_ways):
                        if tags[way] == 0:
                            return way
                    return None
        """, rule="victim-return")
        assert len(findings) == 1
        assert "returns None" in findings[0].message

    def test_negative_literal_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            class RawNegative(ReplacementPolicy):
                name = "rawnegative"

                def find_victim(self, set_index, access, tags):
                    return -1
        """, rule="victim-return")
        assert len(findings) == 1
        assert "BYPASS" in findings[0].hint

    def test_undeclared_bypass_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            class SneakyBypass(ReplacementPolicy):
                name = "sneakybypass"

                def find_victim(self, set_index, access, tags):
                    return BYPASS
        """, rule="victim-return")
        assert len(findings) == 1
        assert "supports_bypass" in findings[0].message

    def test_declared_bypass_passes(self, tmp_path):
        findings = lint_source(tmp_path, """
            class DeclaredBypass(ReplacementPolicy):
                name = "declaredbypass"
                supports_bypass = True

                def find_victim(self, set_index, access, tags):
                    if access.is_writeback:
                        return BYPASS
                    return 0
        """, rule="victim-return")
        assert findings == []

    def test_nested_function_returns_are_ignored(self, tmp_path):
        findings = lint_source(tmp_path, """
            class NestedHelper(ReplacementPolicy):
                name = "nestedhelper"

                def find_victim(self, set_index, access, tags):
                    def helper():
                        return None
                    helper()
                    return 0
        """, rule="victim-return")
        assert findings == []


class TestPCWritebackGuard:
    def test_unguarded_pc_read_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            class Unguarded(ReplacementPolicy):
                name = "unguarded"

                def on_fill(self, set_index, way, access):
                    self._sig[set_index][way] = access.pc & 255
        """, rule="pc-writeback-guard")
        assert len(findings) == 1
        assert "access.pc" in findings[0].message
        assert "is_writeback" in findings[0].hint

    def test_guarded_pc_read_passes(self, tmp_path):
        findings = lint_source(tmp_path, """
            class Guarded(ReplacementPolicy):
                name = "guarded"

                def on_fill(self, set_index, way, access):
                    if access.is_writeback:
                        return
                    self._sig[set_index][way] = access.pc & 255
        """, rule="pc-writeback-guard")
        assert findings == []

    def test_pc_read_in_helper_is_found_transitively(self, tmp_path):
        findings = lint_source(tmp_path, """
            class HelperRead(ReplacementPolicy):
                name = "helperread"

                def _signature(self, access):
                    return access.pc & 255

                def on_fill(self, set_index, way, access):
                    self._sig[set_index][way] = self._signature(access)
        """, rule="pc-writeback-guard")
        assert len(findings) == 1

    def test_guard_at_call_site_covers_helper(self, tmp_path):
        findings = lint_source(tmp_path, """
            class GuardedCaller(ReplacementPolicy):
                name = "guardedcaller"

                def _signature(self, access):
                    return access.pc & 255

                def on_fill(self, set_index, way, access):
                    if access.is_writeback:
                        return
                    self._sig[set_index][way] = self._signature(access)
        """, rule="pc-writeback-guard")
        assert findings == []


class TestPCTableHygiene:
    BAD = """
        class LeakyPredictor(ReplacementPolicy):
            name = "leakypredictor"

            def on_hit(self, set_index, way, access):
                self._table[self._line_sig[set_index][way]] = 1

            def on_fill(self, set_index, way, access):
                if access.is_writeback:
                    return
                sig = access.pc & 255
                self._table[sig] = 0
                self._line_sig[set_index][way] = sig
    """

    def test_unguarded_touch_hook_flagged(self, tmp_path):
        findings = lint_source(tmp_path, self.BAD, rule="pc-table-hygiene")
        assert len(findings) == 1
        assert "on_hit" in findings[0].message
        assert "_table" in findings[0].message

    def test_guarded_touch_hook_passes(self, tmp_path):
        good = self.BAD.replace(
            "def on_hit(self, set_index, way, access):",
            "def on_hit(self, set_index, way, access):\n"
            "                if access.is_writeback:\n"
            "                    return",
        )
        assert lint_source(tmp_path, good, rule="pc-table-hygiene") == []

    def test_policies_without_pc_tables_are_exempt(self, tmp_path):
        findings = lint_source(tmp_path, """
            class PCBlind(ReplacementPolicy):
                name = "pcblind"

                def on_hit(self, set_index, way, access):
                    self._age[set_index][way] = 0

                def on_fill(self, set_index, way, access):
                    self._age[set_index][way] = 0
        """, rule="pc-table-hygiene")
        assert findings == []


class TestSaturatingCounters:
    def test_unguarded_increment_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            class Overflowing(ReplacementPolicy):
                name = "overflowing"

                def on_hit(self, set_index, way, access):
                    self._counter[set_index][way] += 1
        """, rule="saturating-counters")
        assert len(findings) == 1
        assert findings[0].severity == Severity.WARNING

    def test_bounded_increment_passes(self, tmp_path):
        findings = lint_source(tmp_path, """
            class Bounded(ReplacementPolicy):
                name = "bounded"

                def on_hit(self, set_index, way, access):
                    if self._counter[set_index][way] < 3:
                        self._counter[set_index][way] += 1
        """, rule="saturating-counters")
        assert findings == []

    def test_row_alias_is_seen_through(self, tmp_path):
        findings = lint_source(tmp_path, """
            class Aliased(ReplacementPolicy):
                name = "aliased"

                def on_hit(self, set_index, way, access):
                    row = self._counter[set_index]
                    row[way] += 1
        """, rule="saturating-counters")
        assert len(findings) == 1

    def test_flat_table_alias_is_seen_through(self, tmp_path):
        # Flat per-line tables are aliased whole, not row by row.
        findings = lint_source(tmp_path, """
            class FlatAliased(ReplacementPolicy):
                name = "flat-aliased"

                def on_fill(self, set_index, way, access):
                    rrpv = self._rrpv
                    base = set_index * self.num_ways
                    for line in range(base, base + self.num_ways):
                        rrpv[line] += 1
        """, rule="saturating-counters")
        assert len(findings) == 1
        assert "FlatAliased.on_fill" in findings[0].message

    def test_guarded_flat_table_alias_passes(self, tmp_path):
        findings = lint_source(tmp_path, """
            class FlatBounded(ReplacementPolicy):
                name = "flat-bounded"

                def on_fill(self, set_index, way, access):
                    rrpv = self._rrpv
                    base = set_index * self.num_ways
                    for line in range(base, base + self.num_ways):
                        if rrpv[line] < 3:
                            rrpv[line] += 1
        """, rule="saturating-counters")
        assert findings == []

    def test_increment_beside_a_guarded_one_flagged(self, tmp_path):
        # Hawkeye's friendly-fill aging with one more, unguarded, update:
        # the comparison in the sibling if guards only its own body.
        findings = lint_source(tmp_path, """
            class Unbounded(ReplacementPolicy):
                name = "unbounded"

                def on_fill(self, set_index, way, access):
                    rrpv = self._rrpv
                    line = set_index * self.num_ways + way
                    if self._friendly(access.pc):
                        base = set_index * self.num_ways
                        for other in range(base, base + self.num_ways):
                            if other != line and rrpv[other] < 6:
                                rrpv[other] += 1
                            rrpv[other] += 1
                        rrpv[line] = 0
        """, rule="saturating-counters")
        assert len(findings) == 1
        assert findings[0].line == 13  # the second, unguarded, update

    def test_guard_in_enclosing_while_passes(self, tmp_path):
        # SRRIP-style aging: the loop's exit comparison is the bound.
        findings = lint_source(tmp_path, """
            class Aging(ReplacementPolicy):
                name = "aging"

                def find_victim(self, set_index, access, tags):
                    rrpv = self._rrpv[set_index]
                    while True:
                        for way in range(self.num_ways):
                            if rrpv[way] == 3:
                                return way
                        for way in range(self.num_ways):
                            rrpv[way] += 1
        """, rule="saturating-counters")
        assert findings == []


class TestDeterminism:
    BAD = """
        import random
        from time import monotonic

        class Jittery(ReplacementPolicy):
            name = "jittery"

            def on_fill(self, set_index, way, access):
                if access.is_writeback:
                    return
                self._sig[set_index][way] = hash(access.pc)
                self._rng = default_rng()
    """

    def test_nondeterminism_in_simulation_code_flagged(self, tmp_path):
        findings = lint_source(tmp_path, self.BAD, rule="determinism")
        messages = " ".join(f.message for f in findings)
        assert len(findings) == 4
        assert "random" in messages
        assert "time" in messages
        assert "hash()" in messages
        assert "default_rng" in messages

    def test_non_simulation_modules_are_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path, self.BAD, rule="determinism", subdir="harness"
        )
        assert findings == []

    def test_seeded_rng_passes(self, tmp_path):
        findings = lint_source(tmp_path, """
            class Seeded(ReplacementPolicy):
                name = "seeded"

                def initialize(self, num_sets, num_ways):
                    self._rng = default_rng(42)
        """, rule="determinism")
        assert findings == []


class TestHotAlloc:
    def test_allocation_in_hot_function_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """
            class Wasteful:
                def lookup(self, block):  # hot
                    return [w for w in range(8)]
        """, rule="hot-alloc")
        assert len(findings) == 1
        assert findings[0].severity == Severity.WARNING
        assert "comprehension" in findings[0].message

    def test_marker_above_def_line_works(self, tmp_path):
        findings = lint_source(tmp_path, """
            # hot
            def fill(block):
                return {}
        """, rule="hot-alloc")
        assert len(findings) == 1

    def test_unmarked_functions_may_allocate(self, tmp_path):
        findings = lint_source(tmp_path, """
            def initialize(num_sets, num_ways):
                return [[0] * num_ways for _ in range(num_sets)]
        """, rule="hot-alloc")
        assert findings == []

    def test_allocation_free_hot_function_passes(self, tmp_path):
        findings = lint_source(tmp_path, """
            def lookup(tags, block):  # hot
                for way, tag in enumerate(tags):
                    if tag == block:
                        return way
                return -1
        """, rule="hot-alloc")
        assert findings == []


class TestParseErrors:
    def test_syntax_error_becomes_a_finding(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n")
        assert len(findings) == 1
        assert findings[0].rule == "parse-error"
        assert findings[0].severity == Severity.ERROR


class TestDefaultRun:
    def test_comprehensively_bad_fixture_trips_many_rules(self, tmp_path):
        findings = lint_source(tmp_path, """
            import random

            class Disaster(ReplacementPolicy):
                def find_victim(self, set_index, access, tags):
                    self._table[access.pc & 255] += 1
                    return None
        """)
        rules_hit = {f.rule for f in findings}
        assert {
            "determinism",
            "policy-hooks",
            "pc-writeback-guard",
            "victim-return",
        } <= rules_hit

    def test_findings_are_sorted_and_unique(self, tmp_path):
        findings = lint_source(tmp_path, """
            class Incomplete(ReplacementPolicy):
                name = "incomplete"
        """)
        keys = [(f.path, f.line, f.rule) for f in findings]
        assert keys == sorted(keys)
        assert len(findings) == len(set(findings))  # frozen dataclass dedup
