"""Wiring check of the coherence analyzer against the MSI oracle.

The analyzer replays ``interleave_trace`` through ``simulate_msi``
itself, so its per-thread invalidation, cold and upgrade counts equal
the oracle's by construction.  This file checks the wiring: the
analyzer must pass the parallelism verdicts, schedule, step count and
line size through, on all six benchmark programs, at every thread count
and schedule.  Exactness against an independently written replay is
carried by ``tests/properties/test_coherence_props.py``.

Tier-1 runs the six programs at small sizes under the default static
schedule; the full schedule matrix and the fig-10 default sizes ride
the slow marker (``interleave-crossval`` CI job).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.interp import interleave_trace
from repro.memsim.coherence import simulate_msi
from repro.memsim.geometry import ELEM_BYTES, L1_LINE_BYTES
from repro.programs import registry
from repro.static import analyze_coherence

LINE_ELEMS = L1_LINE_BYTES // ELEM_BYTES

#: (name, tier-1 params) — small enough for the interleaved oracle;
#: fft has its size baked in at build time, so no params
SMALL = [
    ("adi", {"N": 16}),
    ("swim", {"N": 16}),
    ("tomcatv", {"N": 16}),
    ("sp", {"N": 10}),
    ("sweep3d", {"N": 10}),
    ("fft", {}),
]


def build(name: str):
    if name == "fft":
        return registry.build_fft(64), 1
    entry = registry.get(name)
    return entry.build(), entry.steps


def assert_exact(name, params, threads, schedule="static"):
    program, steps = build(name)
    prof = analyze_coherence(
        program, params or None, threads=threads,
        schedule=schedule, steps=steps,
    )
    run = interleave_trace(
        program, params, threads, steps=steps, schedule=schedule
    )
    ref = simulate_msi(
        np.asarray(run.merged) // LINE_ELEMS,
        np.asarray(run.merged.writes, dtype=bool),
        run.merged_threads,
        threads,
    )
    assert prof.accesses == ref.accesses, (
        f"{name} T={threads} {schedule}: enumerated {prof.accesses} "
        f"accesses, oracle saw {ref.accesses}"
    )
    assert prof.invalidations == tuple(ref.invalidations.tolist()), (
        f"{name} T={threads} {schedule}: invalidations "
        f"{prof.invalidations} != oracle {ref.invalidations.tolist()}"
    )
    assert prof.cold == tuple(ref.cold.tolist())
    assert prof.upgrades == ref.total_upgrades
    return prof


@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("name,params", SMALL, ids=[s[0] for s in SMALL])
def test_exact_invalidation_totals(name, params, threads):
    assert_exact(name, params, threads)


@pytest.mark.parametrize("schedule", ["static,2", "guided"])
@pytest.mark.parametrize("name,params", [SMALL[0], SMALL[1]], ids=["adi", "swim"])
def test_exact_under_chunked_schedules(name, params, schedule):
    assert_exact(name, params, 4, schedule)


def test_exact_under_dynamic_schedule():
    # dynamic rotates the assignment per nest invocation; the analyzer
    # must track the invocation counter identically to the replay
    assert_exact("swim", {"N": 12}, 4, "dynamic")


def test_adi_shares_truly_not_falsely():
    # adi's nests partition alternating axes: threads exchange whole
    # rows/columns of elements, so its sharing is dominated by true
    # sharing (this is what R521 reports on adi in the baseline)
    prof = assert_exact("adi", {"N": 16}, 4)
    assert prof.total_invalidations > 0
    assert prof.true_invalidations > prof.false_invalidations


def test_sweep3d_serial_program_never_invalidates():
    prof = assert_exact("sweep3d", {"N": 10}, 4)
    assert prof.parallel_nests == ()
    assert prof.total_invalidations == 0


# -- full matrix at fig-10 sizes ----------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("schedule", ["static", "static,2", "guided", "dynamic"])
@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("name,params", SMALL, ids=[s[0] for s in SMALL])
def test_small_size_full_matrix(name, params, threads, schedule):
    assert_exact(name, params, threads, schedule)


@pytest.mark.slow
@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("name", ["adi", "swim", "tomcatv", "sp"])
def test_fig10_size_exact(name, threads):
    entry = registry.get(name)
    assert_exact(name, dict(entry.default_params), threads)
