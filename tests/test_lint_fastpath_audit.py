"""Fastpath-eligibility audit tests on fixture hierarchies.

Each drift the pass exists to catch is planted in a fixture and asserted
with the exact rule id, file and line; a faithful fixture passes clean.
"""

import textwrap

from repro.lint import Severity, lint_paths, make_rule

SUPPORT = """
class AccessKind:
    LOAD = 0
    STORE = 1
    IFETCH = 2
    PREFETCH = 3
    WRITEBACK = 4


class CacheHierarchy:
    def __init__(self, llc, l2_prefetcher=None, inclusive=False):
        self.llc = llc
        self.l2_prefetcher = l2_prefetcher
        self.inclusive = inclusive


class LRUPolicy(ReplacementPolicy):
    name = "lru"

    def initialize(self, num_sets, num_ways):
        self._stamp = [[0] * num_ways for _ in range(num_sets)]
        self._clock = 0

    def find_victim(self, set_index, access, tags):
        return 0

    def on_hit(self, set_index, way, access):
        self._clock += 1
        self._stamp[set_index][way] = self._clock

    def on_fill(self, set_index, way, access):
        self._clock += 1
        self._stamp[set_index][way] = self._clock
"""

CLEAN_FASTPATH = """
def fastpath_eligible(hierarchy, trace):
    if hierarchy.l2_prefetcher is not None:
        return False
    if hierarchy.inclusive:
        return False
    if type(hierarchy.llc.policy) is not LRUPolicy:
        return False
    if len(trace) and int(trace.kinds.max()) > 2:
        return False
    return True


def checkout(policy):
    return (policy._stamp, policy._clock)
"""


def lint_fixture(tmp_path, fastpath_source):
    root = tmp_path / "mem"
    root.mkdir(parents=True, exist_ok=True)
    (root / "support.py").write_text(textwrap.dedent(SUPPORT))
    fastpath = root / "fastpath.py"
    fastpath.write_text(textwrap.dedent(fastpath_source))
    return fastpath, lint_paths([root], [make_rule("fastpath-eligibility")])


class TestCleanFixture:
    def test_faithful_guards_pass(self, tmp_path):
        _, findings = lint_fixture(tmp_path, CLEAN_FASTPATH)
        assert findings == []


class TestMissingPredicate:
    def test_no_eligibility_function_flagged(self, tmp_path):
        path, findings = lint_fixture(tmp_path, """
            def run_fast(hierarchy, trace):
                return None
        """)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "fastpath-eligibility"
        assert finding.path == str(path)
        assert finding.line == 1
        assert finding.severity == Severity.ERROR
        assert "no top-level fastpath_eligible" in finding.message


class TestHierarchyFeatures:
    def test_uninspected_optional_feature_flagged(self, tmp_path):
        path, findings = lint_fixture(tmp_path, """
            def fastpath_eligible(hierarchy, trace):
                if hierarchy.l2_prefetcher is not None:
                    return False
                if type(hierarchy.llc.policy) is not LRUPolicy:
                    return False
                if len(trace) and int(trace.kinds.max()) > 2:
                    return False
                return True


            def checkout(policy):
                return (policy._stamp, policy._clock)
        """)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "fastpath-eligibility"
        assert finding.path == str(path)
        assert finding.line == 2  # the fastpath_eligible def line
        assert "'inclusive'" in finding.message


class TestPolicyPinning:
    def test_isinstance_instead_of_type_pin_flagged(self, tmp_path):
        _, findings = lint_fixture(tmp_path, """
            def fastpath_eligible(hierarchy, trace):
                if hierarchy.l2_prefetcher is not None:
                    return False
                if hierarchy.inclusive:
                    return False
                if not isinstance(hierarchy.llc.policy, LRUPolicy):
                    return False
                if len(trace) and int(trace.kinds.max()) > 2:
                    return False
                return True


            def checkout(policy):
                return (policy._stamp, policy._clock)
        """)
        assert len(findings) == 1
        assert "does not pin upper-level policies" in findings[0].message
        assert "isinstance" in findings[0].hint

    def test_unreferenced_mutable_state_flagged(self, tmp_path):
        path, findings = lint_fixture(tmp_path, """
            def fastpath_eligible(hierarchy, trace):
                if hierarchy.l2_prefetcher is not None:
                    return False
                if hierarchy.inclusive:
                    return False
                if type(hierarchy.llc.policy) is not LRUPolicy:
                    return False
                if len(trace) and int(trace.kinds.max()) > 2:
                    return False
                return True


            def checkout(policy):
                return (policy._stamp,)  # forgets _clock
        """)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "fastpath-eligibility"
        assert finding.path == str(path)
        assert "LRUPolicy" in finding.message
        assert "'_clock'" in finding.message


class TestKindBound:
    def test_bound_admitting_prefetch_flagged(self, tmp_path):
        _, findings = lint_fixture(tmp_path, CLEAN_FASTPATH.replace(
            "trace.kinds.max()) > 2", "trace.kinds.max()) > 3"
        ))
        assert len(findings) == 1
        message = findings[0].message
        assert "kinds<=3" in message
        assert "PREFETCH" in message

    def test_bound_excluding_ifetch_flagged(self, tmp_path):
        _, findings = lint_fixture(tmp_path, CLEAN_FASTPATH.replace(
            "trace.kinds.max()) > 2", "trace.kinds.max()) >= 2"
        ))
        assert len(findings) == 1
        assert "IFETCH" in findings[0].message

    def test_missing_bound_flagged(self, tmp_path):
        _, findings = lint_fixture(tmp_path, """
            def fastpath_eligible(hierarchy, trace):
                if hierarchy.l2_prefetcher is not None:
                    return False
                if hierarchy.inclusive:
                    return False
                if type(hierarchy.llc.policy) is not LRUPolicy:
                    return False
                return True


            def checkout(policy):
                return (policy._stamp, policy._clock)
        """)
        assert len(findings) == 1
        assert "does not bound trace.kinds" in findings[0].message

    def test_mirrored_constant_on_left_accepted(self, tmp_path):
        _, findings = lint_fixture(tmp_path, CLEAN_FASTPATH.replace(
            "int(trace.kinds.max()) > 2", "2 < int(trace.kinds.max())"
        ))
        assert findings == []


class TestLiveFastpath:
    def test_live_module_passes_the_audit(self):
        from repro.lint.analyzer import package_root

        findings = lint_paths([package_root()], [make_rule("fastpath-eligibility")])
        assert [f.render() for f in findings] == []
