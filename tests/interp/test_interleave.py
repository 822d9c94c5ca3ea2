"""The interleaver's per-thread partition as serial programs."""

import numpy as np
import pytest

from repro.interp import interleave_trace, trace_program
from repro.interp.interleave import thread_program

from conftest import build

#: two parallel nests over different axes around a serial statement
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


@pytest.mark.parametrize("schedule", ["static", "static,2", "guided", "dynamic"])
def test_thread_program_traces_the_threads_stream(schedule):
    program = build(SOURCE)
    params = {"N": 7}
    run = interleave_trace(program, params, 3, steps=2, schedule=schedule)
    assert run.parallel_nests == (0, 2)
    for t in range(3):
        serial = thread_program(
            program, params, 3, t, 2, schedule, run.parallel_nests
        )
        trace = trace_program(serial, params)
        stream = run.per_thread[t]
        assert np.array_equal(trace.global_keys(), np.asarray(stream))
        assert np.array_equal(trace.writes, stream.writes)
