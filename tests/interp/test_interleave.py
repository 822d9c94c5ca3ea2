"""The interleaver against a per-chunk reference construction.

``interleave_trace`` permutes one serial codegen trace.  The reference
here builds the same run the long way: every thread's chunk loops are
traced by the interpreter, one trace per (nest invocation, thread),
and the per-thread streams are merged round-robin one access at a time
in pure Python, a drained thread dropping out.  The two must agree bit
for bit on the merged keys, writes and thread ids and on every
per-thread stream.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.codegen import CodegenUnsupported
from repro.codegen import tracer as tracer_mod
from repro.core import compile_variant
from repro.interp import interleave_trace, trace_program
from repro.lang import Loop
from repro.programs import registry
from repro.static.schedule import schedule_chunks

from conftest import build

SCHEDULES = ["static", "static,2", "guided", "dynamic"]

#: two parallel nests over different axes (the second triangular)
#: around a serial statement
SOURCE = """
program mixed
param N
real A[N, N], B[N]
for j = 1, N {
  for i = 1, N { A[i, j] = f(A[i, j], B[i]) }
}
B[1] = B[N]
for i = 1, N {
  for j = 1, i { A[i, j] = g(A[i, j]) }
}
"""


def _columns(program, body, params):
    trace = trace_program(program.with_body(tuple(body)), params)
    return trace.global_keys(), np.asarray(trace.writes, dtype=bool)


def reference_interleave(program, params, threads, steps, schedule, parallel):
    """``(merged keys, writes, thread ids, per-thread (keys, writes))``
    built from per-thread chunk traces and a round-robin merge."""
    env = dict(params)
    merged: list[tuple[int, bool, int]] = []
    private: list[list[tuple[np.ndarray, np.ndarray]]] = [
        [] for _ in range(threads)
    ]
    invocation = 0
    for _ in range(steps):
        for k, stmt in enumerate(program.body):
            if threads > 1 and k in parallel and isinstance(stmt, Loop):
                lo = int(stmt.lower.affine().evaluate(env))
                hi = int(stmt.upper.affine().evaluate(env))
                chunks = schedule_chunks(lo, hi, threads, schedule, invocation)
                invocation += 1
                columns = [
                    _columns(
                        program,
                        [replace(stmt, lower=a, upper=b) for a, b in mine],
                        params,
                    )
                    for mine in chunks
                ]
            else:
                columns = [_columns(program, [stmt], params)] + [
                    (np.empty(0, np.int64), np.empty(0, bool))
                ] * (threads - 1)
            for t, column in enumerate(columns):
                private[t].append(column)
            pos = [0] * threads
            while any(p < len(c[0]) for p, c in zip(pos, columns)):
                for t, (keys, writes) in enumerate(columns):
                    if pos[t] < len(keys):
                        merged.append(
                            (int(keys[pos[t]]), bool(writes[pos[t]]), t)
                        )
                        pos[t] += 1
    keys = np.array([m[0] for m in merged], dtype=np.int64)
    writes = np.array([m[1] for m in merged], dtype=bool)
    tids = np.array([m[2] for m in merged], dtype=np.int32)
    per_thread = [
        (
            np.concatenate([c[0] for c in cols]),
            np.concatenate([c[1] for c in cols]),
        )
        for cols in private
    ]
    return keys, writes, tids, per_thread


def assert_matches_reference(program, params, threads, steps, schedule):
    run = interleave_trace(
        program, params, threads, steps=steps, schedule=schedule
    )
    keys, writes, tids, per_thread = reference_interleave(
        program, params, threads, steps, schedule, run.parallel_nests
    )
    where = f"{program.name} T={threads} {schedule}"
    assert np.array_equal(np.asarray(run.merged), keys), where
    assert np.array_equal(run.merged.writes, writes), where
    assert np.array_equal(run.merged_threads, tids), where
    assert run.merged_threads.dtype == np.int32
    assert len(run.per_thread) == threads
    for t, (pk, pw) in enumerate(per_thread):
        assert np.array_equal(np.asarray(run.per_thread[t]), pk), (where, t)
        assert np.array_equal(run.per_thread[t].writes, pw), (where, t)
    return run


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_interleave_matches_per_chunk_reference(schedule, threads):
    program = build(SOURCE)
    run = assert_matches_reference(program, {"N": 7}, threads, 2, schedule)
    assert run.parallel_nests == (0, 2)


def test_serial_positions_index_the_serial_trace():
    program = build(SOURCE)
    params = {"N": 7}
    run = interleave_trace(program, params, 3, steps=2, schedule="static,2")
    serial = trace_program(program, params, steps=2)
    positions = run.serial_positions
    assert np.array_equal(np.sort(positions), np.arange(len(serial)))
    assert np.array_equal(
        serial.global_keys()[positions], np.asarray(run.merged)
    )
    assert np.array_equal(serial.writes[positions], run.merged.writes)


def test_forced_fallback_interleaves_identically(monkeypatch):
    """A nest codegen cannot lower is traced by the interpreter
    generator, with the same interleaving."""

    def refuse(self, node, frame, p):
        raise CodegenUnsupported("forced by test")

    monkeypatch.setattr(tracer_mod._Emitter, "emit", refuse)
    assert_matches_reference(build(SOURCE), {"N": 7}, 3, 2, "guided")


#: (name, params) — the coherence crossval sizes
SMALL = [
    ("adi", {"N": 16}),
    ("swim", {"N": 16}),
    ("tomcatv", {"N": 16}),
    ("sp", {"N": 10}),
    ("sweep3d", {"N": 10}),
    ("fft", {}),
]


@pytest.mark.slow
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("level", ["noopt", "new"])
@pytest.mark.parametrize("name,params", SMALL, ids=[s[0] for s in SMALL])
def test_programs_match_per_chunk_reference(
    name, params, level, threads, schedule
):
    if name == "fft":
        program, steps = registry.build_fft(64), 1
    else:
        entry = registry.get(name)
        program, steps = entry.build(), entry.steps
    program = compile_variant(program, level).program
    assert_matches_reference(program, params, threads, steps, schedule)
