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

A second property cuts a journalled sweep's journal after a drawn
number of cell records, deletes the cache entries of the later cells
except a drawn subset of survivors (a crash between the cache store and
the journal record), and reruns it: the resumed sweep must return the
reference results, resume exactly the journalled cells, load the
survivors as plain hits and leave a complete journal.

Tier-1 runs 25 examples of each (a few seconds; every ``jobs=2``
example starts a pool); ``pytest --hypothesis-profile nightly`` runs
100.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_trace
from repro.core.config import small_test_machine
from repro.core.simulator import DEFAULT_WARMUP_FRACTION
from repro.harness.engine import SweepEngine, cell_key
from repro.policies.registry import BASELINE_POLICY, PAPER_POLICIES
from repro.resilience.durability import RunJournal
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
def matrices(draw):
    workloads = draw(st.lists(
        st.sampled_from(("zipf", "loop", "stream", INELIGIBLE)),
        min_size=1, max_size=3, unique=True,
    ))
    policies = draw(st.lists(
        st.sampled_from(POLICIES), min_size=1, max_size=len(POLICIES),
        unique=True,
    ))
    return workloads, policies


@st.composite
def sweeps(draw):
    workloads, policies = draw(matrices())
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


@st.composite
def resumes(draw):
    """A matrix, a journal cut and the later records whose cells survive.

    ``cut`` is how many cell records the journal keeps; ``survivors``
    are positions of later records whose cache entries stay, as after a
    crash between the cache store and the journal record.
    """
    workloads, policies = draw(matrices())
    cells = len(workloads) * len(policies)
    cut = draw(st.integers(0, cells))
    survivors = draw(
        st.sets(st.integers(cut, cells - 1)) if cut < cells
        else st.just(set())
    )
    return workloads, policies, cut, survivors


@settings(max_examples=EXAMPLES, deadline=None)
@given(resume=resumes())
def test_resumed_sweep_equals_uninterrupted(corpus, resume):
    traces, machine, reference = corpus
    workloads, policies, cut, survivors = resume
    drawn = {w: traces[w] for w in workloads}
    cells = [(w, p) for w in workloads for p in policies]

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        engine = SweepEngine(cache_dir=root / "cache", jobs=1,
                             journal_dir=root / "journal")
        first = engine.run(drawn, policies, config=machine)
        lines = first.journal_path.read_text(encoding="utf-8").splitlines()
        header, records = lines[0], [json.loads(line) for line in lines[1:-1]]
        assert len(records) == len(cells)
        first.journal_path.write_text(
            "\n".join([header, *lines[1:cut + 1]]) + "\n", encoding="utf-8"
        )
        for position, record in enumerate(records[cut:], start=cut):
            if position not in survivors:
                engine.cache.path_for(record["key"]).unlink()

        resumed = engine.run(drawn, policies, config=machine)
        journal = RunJournal.load(resumed.journal_path)

    expected = canonical({cell: reference[cell] for cell in cells})
    assert canonical(matrix_cells(resumed)) == expected
    assert resumed.run_id == first.run_id
    assert resumed.stats.resumed == cut
    assert resumed.stats.hits == cut + len(survivors)
    assert resumed.stats.simulated == len(cells) - cut - len(survivors)
    assert journal.complete
    assert journal.completed_cells == set(cells)
