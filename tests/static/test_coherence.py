"""The static coherence & false-sharing analyzer on synthetic kernels.

Two hand-built kernels carry the acceptance contract:

* ``colsweep`` — parallel over columns of a ``real A[10,M]`` array whose
  leading dimension is *not* a multiple of the 4-element cache line, so
  thread-boundary columns share lines without sharing elements: pure
  **false sharing**.  Padding the leading dimension to 12 aligns every
  column chunk and clears it (the R520 fix-it).
* ``rowcol`` — one nest parallel over columns writes A, the next nest
  parallel over rows rewrites it, so threads exchange the very same
  elements across nests: pure **true sharing**.

Both are checked against the MSI oracle replaying the interleaved trace
(per-thread invalidations, colds and upgrades), across schedules and
thread counts, and their witnesses are checked to name real accesses.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import compile_variant
from repro.interp import interleave_trace, trace_program
from repro.lang import Affine, Assign, Guard, Interval, Loop, parse, validate
from repro.lang.errors import AnalysisError
from repro.memsim.coherence import simulate_msi
from repro.memsim.geometry import ELEM_BYTES, L1_LINE_BYTES
from repro.programs import registry
from repro.static import analyze_coherence
from repro.verify import lint_coherence

LINE_ELEMS = L1_LINE_BYTES // ELEM_BYTES  # 4 elements per line

#: leading dimension 10 is not a multiple of 4, so ceil-block column
#: chunks of M=28 / T=4 = 7 columns end mid-line at two of the three
#: thread boundaries (keys 69|70 and 209|210 share a line)
COLSWEEP = """
program colsweep
param M
real A[10,M]
real B[10,M]
for j = 1, M {
  for i = 1, 10 {
    A[i,j] = B[i,j] + A[i,j]
  }
}
"""

COLSWEEP_PADDED = COLSWEEP.replace("[10,M]", "[12,M]")

ROWCOL = """
program rowcol
param N
real A[N,N]
for j = 1, N {
  for i = 1, N {
    A[i,j] = A[i,j] + 1.0
  }
}
for i = 1, N {
  for j = 1, N {
    A[i,j] = A[i,j] * 0.5
  }
}
"""


def build(source: str):
    return validate(parse(source))


def oracle(program, params, threads, steps, schedule="static"):
    """Replay the interleaved trace through the dynamic MSI oracle."""
    run = interleave_trace(
        program, params, threads, steps=steps, schedule=schedule
    )
    return simulate_msi(
        np.asarray(run.merged) // LINE_ELEMS,
        np.asarray(run.merged.writes, dtype=bool),
        run.merged_threads,
        threads,
    )


# -- false sharing: the unpadded column sweep ----------------------------------


def test_colsweep_false_sharing_detected():
    prof = analyze_coherence(
        build(COLSWEEP), {"M": 28}, threads=4, steps=2
    )
    assert prof.total_invalidations == 4
    assert prof.false_invalidations == 4
    assert prof.true_invalidations == 0
    assert prof.invalidations == (1, 1, 1, 1)
    # the dependence screen proves no element is cross-thread shared,
    # so every invalidation is false sharing by construction
    assert prof.false_only == ("A", "B")
    assert prof.screened_out == ()
    a = next(s for s in prof.arrays if s.array == "A")
    assert a.false_lines == 2 and a.true_lines == 0
    assert {w.kind for w in prof.witnesses} == {"false"}


def test_colsweep_witness_pinpoints_the_boundary():
    prof = analyze_coherence(
        build(COLSWEEP), {"M": 28}, threads=4, steps=2
    )
    rendered = [w.render() for w in prof.witnesses]
    # ceil-blocks of 7 columns: t0 ends at column 7, t1 starts at 8;
    # A[10,7] (key 69) and A[1,8] (key 70) share line 17
    assert (
        "false sharing on A line 17: t0 @(j=7, i=10) vs t1 @(j=8, i=1)"
        " — distinct elements +1/+2" in rendered
    )


#: a triangular, guarded two-statement nest whose first false-sharing
#: invalidation hits a line where the missing thread's last touch and
#: the other thread's last touch are the same element — the colliding
#: write is a different one
TRIANGLE = """
program triangle
param N
real A[N + 2, N + 2], B[N + 2, N + 2]
for i = 2, N - 1 {
  for j = 2, i {
    when j in [3:N - 2] { A[j + 1, i] = f(A[j - 1, i + 1], B[j, i]) }
    B[j, i] = g(A[j, i])
  }
}
"""


def test_false_witness_names_the_invalidating_write():
    program = build(TRIANGLE)
    prof = analyze_coherence(
        program, {"N": 6}, threads=2, schedule="static", steps=2
    )
    run = interleave_trace(program, {"N": 6}, 2, steps=2)
    keys = np.asarray(run.merged)
    writes = np.asarray(run.merged.writes, dtype=bool)
    false = [w for w in prof.witnesses if w.kind == "false"]
    assert false
    for w in false:
        assert w.elem_a != w.elem_b, w.render()
        wrote = (keys == w.elem_a) & writes & (run.merged_threads == w.thread_a)
        assert wrote.any(), w.render()
    # t1 writes A[4,4] (key 27) after t0 last touched line 6
    assert (
        "false sharing on A line 6: t1 @(i=4, j=3) vs t0 @(i=3, j=3)"
        " — distinct elements +3/+1" in [w.render() for w in prof.witnesses]
    )


def assert_located(program, params, w):
    """Both sides of witness ``w`` name an access that really touches
    its element: with every loop body over a bound variable guarded to
    the bound value, the program still touches it.  A side with nothing
    to bind must be a loop-free top-level statement, which runs
    serially on thread 0."""

    def narrow(stmt, values):
        if isinstance(stmt, Loop):
            body = [narrow(s, values) for s in stmt.body]
            if stmt.index in values:
                at = Interval.point(Affine.constant(values[stmt.index]))
                body = [Guard(stmt.index, (at,), tuple(body))]
            return stmt.with_body(body)
        if isinstance(stmt, Guard):
            return replace(
                stmt,
                body=tuple(narrow(s, values) for s in stmt.body),
                else_body=tuple(narrow(s, values) for s in stmt.else_body),
            )
        return stmt

    for thread, elem, bound in (
        (w.thread_a, w.elem_a, w.iter_a),
        (w.thread_b, w.elem_b, w.iter_b),
    ):
        if bound:
            values = dict(bound)
            body = [
                narrow(s, values) for s in program.body if isinstance(s, Loop)
            ]
        else:
            assert thread == 0, w.render()
            body = [s for s in program.body if isinstance(s, Assign)]
        keys = trace_program(program.with_body(body), params).global_keys()
        assert elem in keys, w.render()


def test_witness_bindings_resolve_under_dynamic_schedule():
    # dynamic rotates the chunk owners per invocation: bindings come from
    # the access's own position, so every side resolves to a loop
    entry = registry.get("adi")
    program = entry.build()
    prof = analyze_coherence(
        program, {"N": 16}, threads=4, schedule="dynamic", steps=entry.steps
    )
    assert prof.witnesses
    for w in prof.witnesses:
        assert w.iter_a and w.iter_b, w.render()
        assert_located(program, {"N": 16}, w)


def test_swim_witness_bindings_always_resolve():
    entry = registry.get("swim")
    program = compile_variant(entry.build(), "new").program
    params = dict(entry.small_params)
    prof = analyze_coherence(
        program, params, threads=4, schedule="static", steps=entry.steps
    )
    assert len(prof.witnesses) == 8
    # swim's periodic-boundary corner copies are loop-free top-level
    # statements: the sides they collide with have nothing to bind
    assert any(not (w.iter_a and w.iter_b) for w in prof.witnesses)
    for w in prof.witnesses:
        assert_located(program, params, w)


def test_padding_the_leading_dimension_clears_it():
    prof = analyze_coherence(
        build(COLSWEEP_PADDED), {"M": 28}, threads=4, steps=2
    )
    assert prof.total_invalidations == 0
    # with lead 12 every column chunk is line-aligned, so the hull
    # screen proves both arrays line-private without replaying them
    assert prof.screened_out == ("A", "B")
    assert prof.witnesses == ()


def test_r520_fires_unpadded_and_padding_clears_it():
    # the end-to-end acceptance path: lint reports the hotspot with a
    # concrete witness and the padding fix, and the fix silences it
    bag = lint_coherence(build(COLSWEEP), {"M": 28}, threads=4, steps=2)
    codes = [d.code for d in bag]
    assert "R520" in codes
    r520 = next(d for d in bag if d.code == "R520")
    assert "false sharing on A line 17" in r520.message
    assert "pad" in r520.message.lower()
    assert [
        d.code
        for d in lint_coherence(
            build(COLSWEEP_PADDED), {"M": 28}, threads=4, steps=2
        )
    ] == []


# -- true sharing: transposed nests --------------------------------------------


def test_rowcol_true_sharing_detected():
    prof = analyze_coherence(build(ROWCOL), {"N": 16}, threads=4, steps=2)
    assert prof.parallel_nests == (0, 1)
    assert prof.true_invalidations == 96
    assert prof.false_invalidations == 0
    assert prof.invalidations == (24, 24, 24, 24)
    assert {w.kind for w in prof.witnesses} == {"true"}


def test_r521_and_r522_fire_on_rowcol():
    bag = lint_coherence(build(ROWCOL), {"N": 16}, threads=4, steps=2)
    codes = [d.code for d in bag]
    assert "R521" in codes and "R522" in codes
    assert "R520" not in codes
    r522 = next(d for d in bag if d.code == "R522")
    # static,1 shreds the column chunks: 624 invalidations vs 96
    assert "96" in r522.message and "624" in r522.message


# -- exact MSI crossval on the synthetics --------------------------------------


@pytest.mark.parametrize(
    "schedule", ["static", "static,2", "guided", "dynamic"]
)
@pytest.mark.parametrize("threads", [2, 4])
def test_colsweep_matches_oracle_exactly(threads, schedule):
    program = build(COLSWEEP)
    prof = analyze_coherence(
        program, {"M": 28}, threads=threads, schedule=schedule, steps=2
    )
    ref = oracle(program, {"M": 28}, threads, 2, schedule)
    assert prof.accesses == ref.accesses
    assert prof.invalidations == tuple(ref.invalidations.tolist())
    assert prof.cold == tuple(ref.cold.tolist())
    assert prof.upgrades == ref.total_upgrades


@pytest.mark.parametrize("schedule", ["static", "static,3", "guided"])
def test_rowcol_matches_oracle_exactly(schedule):
    program = build(ROWCOL)
    prof = analyze_coherence(
        program, {"N": 13}, threads=4, schedule=schedule, steps=2
    )
    ref = oracle(program, {"N": 13}, 4, 2, schedule)
    assert prof.invalidations == tuple(ref.invalidations.tolist())
    assert prof.cold == tuple(ref.cold.tolist())
    assert prof.upgrades == ref.total_upgrades


# -- degeneracies and guard rails ----------------------------------------------


def test_single_thread_has_no_sharing():
    prof = analyze_coherence(build(ROWCOL), {"N": 12}, threads=1, steps=2)
    assert prof.total_invalidations == 0
    assert prof.sharing_arrays() == ()


def test_finer_line_means_less_false_sharing():
    # with 8-byte lines (one element each) false sharing is impossible
    prof = analyze_coherence(
        build(COLSWEEP), {"M": 28}, threads=4, steps=2,
        line_bytes=ELEM_BYTES,
    )
    assert prof.total_invalidations == 0


def test_access_budget_is_enforced():
    with pytest.raises(AnalysisError, match="accesses"):
        analyze_coherence(
            build(COLSWEEP), {"M": 28}, threads=4, steps=2, max_accesses=10
        )


def test_witnesses_can_be_disabled():
    prof = analyze_coherence(
        build(COLSWEEP), {"M": 28}, threads=4, steps=2, witnesses=False
    )
    assert prof.total_invalidations == 4
    assert prof.witnesses == ()


def test_with_invalidations_adds_to_private_misses():
    # the tune fold: invalidation misses stack on top of the capacity
    # model and can be excluded to recover the capacity-only view
    from repro.static import predict_program_multicore

    program = build(ROWCOL)
    pred = predict_program_multicore(
        program, {"N": 16}, threads=4, steps=2
    )
    assert pred.invalidations == ()
    prof = analyze_coherence(
        program, {"N": 16}, threads=4, steps=2, witnesses=False
    )
    folded = pred.with_invalidations(prof.invalidations)
    assert folded.total_invalidations == 96
    cap = 256
    base = pred.private_miss_count(cap)
    assert folded.private_miss_count(cap) == pytest.approx(base + 96)
    assert folded.private_miss_count(
        cap, include_invalidations=False
    ) == pytest.approx(base)
    # the shared view models the physically shared cache: no fold there
    assert folded.shared_miss_count(cap) == pred.shared_miss_count(cap)
    with pytest.raises(ValueError, match="4 threads"):
        pred.with_invalidations((1.0, 2.0))


def test_profile_serializes():
    prof = analyze_coherence(build(COLSWEEP), {"M": 28}, threads=4, steps=2)
    d = prof.as_dict()
    assert d["invalidations"] == [1, 1, 1, 1]
    assert d["line_bytes"] == L1_LINE_BYTES
    assert any(a["array"] == "A" for a in d["arrays"])
    text = prof.render()
    assert "colsweep" in text and "false" in text
