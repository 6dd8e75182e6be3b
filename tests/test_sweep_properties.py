"""Sweep-level property net: the default sweep path over drawn matrices.

Hypothesis draws a (workload x policy) matrix of 1-3 traces and 1-7
paper policies on ``small_test_machine()``, a subset of its cells put in
the result cache in advance, and ``jobs`` of 1 or 2. The default sweep
(per-trace batch units, split when fewer traces than ``jobs`` have
pending cells, plus the per-cell fallback) must then return, as
canonical JSON:

* the reference engine's result for every cell, so cached == uncached
  and batched == reference;
* the same matrix as an uncached ``jobs=1`` sweep, so serial ==
  parallel;

with every cell counted once (``hits + simulated`` is the cell count)
and only the cells of the ineligible trace falling back.

Tier-1 runs 25 examples (a few seconds; every ``jobs=2`` example starts
a pool); ``pytest --hypothesis-profile nightly`` runs 100.
"""

import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_trace
from repro.core.config import small_test_machine
from repro.core.simulator import DEFAULT_WARMUP_FRACTION
from repro.harness.engine import SweepEngine, cell_key
from repro.policies.registry import BASELINE_POLICY, PAPER_POLICIES
from repro.trace import synthetic
from repro.trace.record import AccessKind

POLICIES = tuple(dict.fromkeys([BASELINE_POLICY, *PAPER_POLICIES]))

#: The one trace whose cells the batched pass cannot run (WRITEBACK
#: records are outside what the optimized engines model).
INELIGIBLE = "wb"

EXAMPLES = max(25, settings().max_examples // 20)


def canonical(results: dict) -> dict:
    return {
        cell: json.dumps(result.to_json_dict(), sort_keys=True)
        for cell, result in results.items()
    }


def matrix_cells(outcome) -> dict:
    return {
        (workload, policy): result
        for workload, row in outcome.matrix.results.items()
        for policy, result in row.items()
    }


@pytest.fixture(scope="module")
def corpus():
    """The traces matrices draw from, and every cell's reference result."""
    machine = small_test_machine()
    traces = {
        "zipf": synthetic.zipf_reuse(1_500, num_blocks=300, seed=3),
        "loop": synthetic.working_set_loop(1_500, set_bytes=24 * 1024, seed=4),
        "stream": synthetic.strided(1_500, stride=64, elements=400),
        INELIGIBLE: make_trace(
            [i * 64 for i in range(200)], kinds=int(AccessKind.WRITEBACK),
            name=INELIGIBLE,
        ),
    }
    reference = SweepEngine().run(
        traces, list(POLICIES), config=machine, engine="reference"
    )
    return traces, machine, matrix_cells(reference)


@st.composite
def sweeps(draw):
    workloads = draw(st.lists(
        st.sampled_from(("zipf", "loop", "stream", INELIGIBLE)),
        min_size=1, max_size=3, unique=True,
    ))
    policies = draw(st.lists(
        st.sampled_from(POLICIES), min_size=1, max_size=len(POLICIES),
        unique=True,
    ))
    cells = [(w, p) for w in workloads for p in policies]
    cached = draw(st.sets(st.sampled_from(cells), max_size=len(cells)))
    jobs = draw(st.sampled_from((1, 2)))
    return workloads, policies, cached, jobs


@settings(max_examples=EXAMPLES, deadline=None)
@given(sweep=sweeps())
def test_default_sweep_equals_reference_and_serial(corpus, sweep):
    traces, machine, reference = corpus
    workloads, policies, cached, jobs = sweep
    drawn = {w: traces[w] for w in workloads}
    cells = [(w, p) for w in workloads for p in policies]

    with tempfile.TemporaryDirectory() as root:
        engine = SweepEngine(cache_dir=root, jobs=jobs)
        for workload, policy in cached:
            key = cell_key(traces[workload], policy, machine,
                           DEFAULT_WARMUP_FRACTION, salt=engine.salt)
            engine.cache.store(key, reference[(workload, policy)])
        outcome = engine.run(drawn, policies, config=machine)
    serial = SweepEngine(jobs=1).run(drawn, policies, config=machine)

    expected = canonical({cell: reference[cell] for cell in cells})
    assert canonical(matrix_cells(outcome)) == expected
    assert canonical(matrix_cells(serial)) == expected
    assert not outcome.errors
    assert outcome.stats.hits == len(cached)
    assert outcome.stats.hits + outcome.stats.simulated == len(cells)
    assert outcome.stats.fallbacks == sum(
        1 for cell in cells if cell[0] == INELIGIBLE and cell not in cached
    )
