"""The benchmark's workloads: what each one sweeps and how its traces are made.

Every trace is generated here from the workload seed; ``repro`` only
ever receives the finished traces. The SPEC proxies are rebuilt from
the pattern generators with the same parameters as
:mod:`repro.spec.suite` (which hard-codes its seeds), so the seed reaches
every random stream.
"""

from __future__ import annotations

from dataclasses import dataclass

POLICIES = ("lru", "srrip", "drrip", "ship", "hawkeye", "glider", "mpppb")

#: The seed runs use unless told otherwise, and one kept back for
#: confirming a claim on inputs the change was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class Sizes:
    """Trace sizes and repetition counts of one benchmark scale."""

    gap_scale: int
    gap_degree: int
    gap_accesses: int
    spec_accesses: int
    mcf_accesses: int
    gcc_accesses: int
    setup_reps: int
    min_sweeps: int


SIZES = {
    "full": Sizes(
        gap_scale=18, gap_degree=4, gap_accesses=25_000, spec_accesses=1_000,
        mcf_accesses=4_500, gcc_accesses=3_000, setup_reps=3, min_sweeps=3,
    ),
    # Self-test scale: every code path, seconds per run.
    "toy": Sizes(
        gap_scale=10, gap_degree=4, gap_accesses=3_000, spec_accesses=600,
        mcf_accesses=6_000, gcc_accesses=4_000, setup_reps=2, min_sweeps=1,
    ),
}


@dataclass(frozen=True)
class Workload:
    #: Cell engine handed to ``SweepEngine.run``.
    engine: str
    jobs: int
    #: Cells re-simulated with ``engine="reference"`` per run.
    check_cells: int
    sampled: bool = False


WORKLOADS = {
    "gap-batched": Workload(engine="batched", jobs=1, check_cells=2),
    "spec-percell": Workload(engine="fast", jobs=2, check_cells=16),
    "spec-sampled": Workload(engine="fast", jobs=1, check_cells=2, sampled=True),
}


def _proxy_seed(seed: int, index: int) -> int:
    """A per-proxy generator seed derived from the workload seed."""
    return (seed * 7919 + 101 * index) % 60_000 + 1


def _spec_proxies() -> list[tuple[str, str, object]]:
    """(suite, benchmark, make(n, seed)) for all 24 SPEC proxies.

    Parameters mirror :mod:`repro.spec.suite`; only the seeds differ.
    """
    from repro.spec import patterns as pt
    from repro.trace import synthetic as syn

    def working_set(set_bytes: int, num_pcs: int):
        return lambda n, s: syn.working_set_loop(
            n, set_bytes=set_bytes, seed=s, num_pcs=num_pcs
        )

    return [
        ("spec06", "mcf", lambda n, s: pt.pointer_working_set(
            n, structure_bytes=8 * MIB, resident_bytes=256 * KIB, seed=s)),
        ("spec06", "omnetpp", lambda n, s: pt.skewed_reuse(
            n, footprint_bytes=4 * MIB, skew=0.95, seed=s)),
        ("spec06", "xalancbmk", lambda n, s: pt.skewed_reuse(
            n, footprint_bytes=2 * MIB, skew=1.1, seed=s)),
        ("spec06", "soplex", lambda n, s: pt.scan_plus_resident(
            n, resident_bytes=1 * MIB, scan_fraction=0.4, seed=s)),
        ("spec06", "sphinx3", working_set(2 * MIB, 24)),
        ("spec06", "libquantum", lambda n, s: syn.streaming(
            n, stride=64, base=0x1_2000_0000 + (s << 32))),
        ("spec06", "gcc", lambda n, s: pt.phased_mix(
            n, resident_bytes=768 * KIB, scan_bytes=4 * MIB, seed=s)),
        ("spec06", "bwaves", lambda n, s: pt.banded_stride(
            n, band_bytes=4 * MIB, num_bands=4, seed=s)),
        ("spec06", "milc", lambda n, s: pt.thrash_cycle(
            n, cycle_bytes=3 * MIB, seed=s)),
        ("spec06", "lbm", lambda n, s: pt.banded_stride(
            n, band_bytes=8 * MIB, num_bands=2, seed=s)),
        ("spec06", "cactusADM", working_set(1536 * KIB, 16)),
        ("spec06", "GemsFDTD", lambda n, s: pt.scan_plus_resident(
            n, resident_bytes=1280 * KIB, scan_fraction=0.55, seed=s)),
        ("spec17", "mcf_r", lambda n, s: pt.pointer_working_set(
            n, structure_bytes=12 * MIB, resident_bytes=384 * KIB, seed=s)),
        ("spec17", "omnetpp_r", lambda n, s: pt.skewed_reuse(
            n, footprint_bytes=6 * MIB, skew=0.9, seed=s)),
        ("spec17", "xalancbmk_r", lambda n, s: pt.skewed_reuse(
            n, footprint_bytes=3 * MIB, skew=1.05, seed=s)),
        ("spec17", "gcc_r", lambda n, s: pt.phased_mix(
            n, resident_bytes=1 * MIB, scan_bytes=6 * MIB, seed=s)),
        ("spec17", "lbm_r", lambda n, s: pt.banded_stride(
            n, band_bytes=12 * MIB, num_bands=3, seed=s)),
        ("spec17", "cactuBSSN_r", working_set(1792 * KIB, 20)),
        ("spec17", "roms_r", lambda n, s: pt.banded_stride(
            n, band_bytes=6 * MIB, num_bands=5, seed=s)),
        ("spec17", "pop2_s", lambda n, s: pt.scan_plus_resident(
            n, resident_bytes=1152 * KIB, scan_fraction=0.45, seed=s)),
        ("spec17", "x264_r", working_set(896 * KIB, 32)),
        ("spec17", "deepsjeng_r", lambda n, s: pt.skewed_reuse(
            n, footprint_bytes=1792 * KIB, skew=1.2, seed=s)),
        ("spec17", "blender_r", lambda n, s: pt.phased_mix(
            n, resident_bytes=1280 * KIB, scan_bytes=5 * MIB, seed=s)),
        ("spec17", "fotonik3d_r", lambda n, s: pt.thrash_cycle(
            n, cycle_bytes=4 * MIB, seed=s)),
    ]


def build_traces(workload: str, seed: int, sizes: Sizes) -> dict:
    """The workload's traces for ``seed``, keyed by trace name."""
    seed %= 2**32
    if workload == "gap-batched":
        from repro.gap import suite as gap

        graph = None
        traces = {}
        for kernel in gap.GAP_KERNELS:
            spec = gap.GapWorkloadSpec(
                kernel=kernel, graph_name="kron", scale=sizes.gap_scale,
                degree=sizes.gap_degree, seed=seed,
            )
            if graph is None:
                graph = gap.build_graph(spec)
            run = gap.run_kernel(
                kernel, graph, trace_name=spec.name,
                max_accesses=sizes.gap_accesses,
            )
            traces[spec.name] = run.trace
        return traces
    proxies = _spec_proxies()
    if workload == "spec-sampled":
        lengths = {"mcf": sizes.mcf_accesses, "gcc": sizes.gcc_accesses}
        chosen = [
            (i, suite, name, build, lengths[name])
            for i, (suite, name, build) in enumerate(proxies)
            if suite == "spec06" and name in lengths
        ]
    else:
        chosen = [
            (i, suite, name, build, sizes.spec_accesses)
            for i, (suite, name, build) in enumerate(proxies)
        ]
    traces = {}
    for index, suite, name, build, length in chosen:
        trace = build(length, _proxy_seed(seed, index))
        trace.name = f"{suite}.{name}"
        traces[trace.name] = trace
    return traces


def sweep_groups(workload: Workload) -> list[tuple[list[str], str | None]]:
    """The sweeps one measurement runs: (policies, sampling strategy).

    A sampled workload runs each policy under its preferred warm-state
    synthesis strategy, one sweep per strategy; the others sweep every
    policy at once.
    """
    if not workload.sampled:
        return [(list(POLICIES), None)]
    from repro.sampling import PREFERRED_SYNTHESIS

    groups: dict[str, list[str]] = {}
    for policy in POLICIES:
        groups.setdefault(PREFERRED_SYNTHESIS[policy], []).append(policy)
    return [(policies, strategy) for strategy, policies in groups.items()]
