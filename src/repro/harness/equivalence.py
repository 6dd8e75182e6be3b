"""Differential-equivalence harness for the execution engines.

:func:`verify_fastpath` proves — by running them — that an optimized
execution path and the reference hot loop produce **bit-identical**
:class:`~repro.core.results.SimulationResult` values: every counter,
every float, and the full telemetry profile when armed. Comparison is
over the canonical JSON serialization (the same representation the
sweep-engine cache stores), so anything the result round-trip can
express is covered. Two candidates are supported: the single-run fast
engine (:mod:`repro.mem.fastpath`, ``engine="fast"``) and the batched
multi-cell engine (:mod:`repro.mem.batch`, ``engine="batched"``, which
additionally exercises plan *sharing* — every policy of a trace replays
the same decoded access stream, exactly as a batched sweep would).

The default case matrix crosses every registered replacement policy with
GAP-kernel and SPEC-proxy traces plus an IFETCH-heavy synthetic mix (the
suite generators emit only loads/stores, and the L1I path deserves the
same scrutiny), each with telemetry off and armed. The default machine is
the tiny test geometry: its caches are miss-dominated, which maximally
exercises the fill/writeback/victim cascade where the two engines could
diverge.

Exposed on the CLI as ``repro verify-fastpath`` and exercised in CI so
any engine divergence fails the build before a benchmark number built on
the fast engine can be trusted.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..core.config import MachineConfig, small_test_machine
from ..core.results import SimulationResult
from ..core.simulator import build_hierarchy, simulate
from ..gap.suite import gap_suite
from ..mem.fastpath import fastpath_eligible
from ..policies.registry import available_policies
from ..spec.suite import build_spec_workload
from ..telemetry.collector import TelemetryConfig
from ..trace import synthetic
from ..trace.record import AccessKind
from ..trace.trace import Trace


@dataclass(frozen=True)
class EquivalenceCase:
    """Outcome of one fast-vs-reference comparison."""

    workload: str
    policy: str
    telemetry: bool
    warmup_fraction: float
    #: Whether the fast engine actually ran (an ineligible combination
    #: falls back to the reference loop, making the comparison vacuous).
    fast_used: bool
    matched: bool
    #: Top-level result fields that differed (empty when matched).
    mismatched_fields: tuple[str, ...] = ()

    def describe(self) -> str:
        """One human-readable line for reports."""
        mode = "telemetry" if self.telemetry else "plain"
        status = "ok" if self.matched else (
            "MISMATCH: " + ", ".join(self.mismatched_fields)
        )
        return (
            f"{self.workload} x {self.policy} [{mode}, "
            f"warmup={self.warmup_fraction:g}] {status}"
        )


@dataclass
class EquivalenceReport:
    """All cases of one :func:`verify_fastpath` run."""

    cases: list[EquivalenceCase]

    @property
    def passed(self) -> bool:
        """Whether every case produced bit-identical results."""
        return all(case.matched for case in self.cases)

    @property
    def failures(self) -> list[EquivalenceCase]:
        """The mismatched cases, if any."""
        return [case for case in self.cases if not case.matched]

    @property
    def fast_coverage(self) -> int:
        """How many cases actually exercised the fast engine."""
        return sum(1 for case in self.cases if case.fast_used)

    def render(self) -> str:
        """Human-readable summary (failure details first, then totals)."""
        lines = [f"  {case.describe()}" for case in self.failures]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"verify-fastpath: {verdict} — {len(self.cases)} cases "
            f"({self.fast_coverage} on the optimized engine, "
            f"{len(self.failures)} mismatches)"
        )
        return "\n".join(lines)


def _canonical(result: SimulationResult) -> str:
    """The byte string two engines must agree on."""
    return json.dumps(result.to_json_dict(), sort_keys=True)


def ifetch_mix(num_accesses: int = 12_000, seed: int = 23) -> Trace:
    """A synthetic trace where every fourth record is an IFETCH.

    The GAP/SPEC generators emit only loads and stores, so this is what
    gives the equivalence matrix (and the L1I fast path) instruction
    -fetch coverage. Fetch addresses come from the PC stream, giving the
    L1I a realistic small hot footprint.
    """
    base = synthetic.zipf_reuse(num_accesses, num_blocks=2048, seed=seed)
    addrs = base.addrs.copy()
    kinds = base.kinds.copy()
    fetch = np.arange(len(base)) % 4 == 3
    kinds[fetch] = AccessKind.IFETCH
    addrs[fetch] = base.pcs[fetch]
    return Trace.from_arrays(
        addrs, base.pcs, kinds, base.gaps, name="synthetic.ifetch_mix"
    )


def default_verification_traces(num_accesses: int = 12_000) -> dict[str, Trace]:
    """The default trace set: GAP x SPEC x the IFETCH mix."""
    traces = dict(
        gap_suite(
            scale=12, degree=8, kernels=("bfs", "pr"), max_accesses=num_accesses
        )
    )
    for suite, name in (("spec06", "mcf"), ("spec17", "lbm_r")):
        trace = build_spec_workload(suite, name, num_accesses=num_accesses)
        traces[trace.name] = trace
    mix = ifetch_mix(num_accesses)
    traces[mix.name] = mix
    return traces


def verify_fastpath(
    config: MachineConfig | None = None,
    policies: Sequence[str] | None = None,
    traces: Mapping[str, Trace] | None = None,
    warmup_fractions: Sequence[float] = (0.2,),
    include_telemetry: bool = True,
    progress: bool = False,
    engine: str = "fast",
) -> EquivalenceReport:
    """Compare a candidate engine against the reference across the matrix.

    Parameters mirror the CLI flags; with the defaults this runs every
    registered policy over five traces, telemetry off and on — a few
    hundred simulations, sized to finish in CI smoke time.

    ``engine`` selects the candidate: ``"fast"`` compares the single-run
    fast path, ``"batched"`` runs every policy of a trace through one
    shared :class:`~repro.mem.batch.BatchPlan` (via
    :func:`~repro.mem.batch.simulate_batched`) so the comparison covers
    the plan reuse a batched sweep performs, not just isolated cells.
    Ineligible policies fall back exactly as the real engines do;
    their cases are counted but marked outside ``fast_coverage``.
    """
    if engine not in ("fast", "batched"):
        raise ValueError(
            f"unknown candidate engine {engine!r}; expected 'fast' or 'batched'"
        )
    if config is None:
        config = small_test_machine()
    if policies is None:
        policies = available_policies()
    if traces is None:
        traces = default_verification_traces()
    telemetry_modes: tuple[TelemetryConfig | None, ...] = (None,)
    if include_telemetry:
        telemetry_modes = (None, TelemetryConfig(interval_instructions=5_000))

    if engine == "batched":
        from ..mem.batch import simulate_batched

    cases = []
    for workload, trace in traces.items():
        for warmup in warmup_fractions:
            for tele in telemetry_modes:
                if engine == "batched":
                    candidates = simulate_batched(
                        trace,
                        list(policies),
                        config=config,
                        warmup_fraction=warmup,
                        telemetry=tele,
                    )
                else:
                    candidates = {
                        policy: simulate(
                            trace,
                            config=config,
                            llc_policy=policy,
                            warmup_fraction=warmup,
                            telemetry=tele,
                            engine="fast",
                        )
                        for policy in policies
                    }
                for policy in policies:
                    reference = simulate(
                        trace,
                        config=config,
                        llc_policy=policy,
                        warmup_fraction=warmup,
                        telemetry=tele,
                        engine="reference",
                    )
                    candidate = candidates[policy]
                    matched = _canonical(candidate) == _canonical(reference)
                    mismatched: tuple[str, ...] = ()
                    if not matched:
                        fast_dict = candidate.to_json_dict()
                        ref_dict = reference.to_json_dict()
                        mismatched = tuple(
                            key
                            for key in sorted(set(fast_dict) | set(ref_dict))
                            if fast_dict.get(key) != ref_dict.get(key)
                        )
                    case = EquivalenceCase(
                        workload=workload,
                        policy=policy,
                        telemetry=tele is not None,
                        warmup_fraction=warmup,
                        fast_used=fastpath_eligible(
                            build_hierarchy(config, policy), trace
                        ),
                        matched=matched,
                        mismatched_fields=mismatched,
                    )
                    cases.append(case)
                    if progress:
                        import sys

                        print(f"  {case.describe()}", file=sys.stderr)
    return EquivalenceReport(cases=cases)
