"""Interleaved multi-thread trace generation (OpenMP-style execution).

The dynamic counterpart of ``repro.static.multicore`` and
``repro.static.coherence``: execute a program the way a ``T``-thread
OpenMP runtime would — every top-level nest whose outermost axis is
parallel (DOALL or reduction per the static parallelism analyzer) is
partitioned over its outer range by an OpenMP schedule
(:mod:`repro.static.schedule`: ``static``, ``static,k``, ``guided``,
``dynamic``), each thread runs its own iterations in order, and the
per-thread streams are merged round-robin one access at a time; a
thread that runs out of accesses drops out while the others drain.
Serial nests run entirely on thread 0.  An implicit barrier separates
consecutive nests (and steps), exactly like OpenMP's parallel-for join.

Every run is a permutation of one serial trace: tracing is value-free,
so a thread's accesses in a nest are the serial accesses of the outer
iterations the schedule gives it, in serial order.  The serial stream
comes from one :func:`repro.codegen.trace_program` call; each access's
thread follows from its outer iteration (per-iteration access counts
from :func:`repro.interp.tracegen.iteration_counts`), and each parallel nest
invocation is reordered by a stable sort on (rank within its thread,
thread id).

Two views come out of a run, both as typed
:class:`~repro.stream.AddressStream` objects in element units (the
canonical global keys — streams support the array protocol, so numpy
consumers see the key column directly):

``merged``
    the interleaved access stream every thread sees — feed it to
    :func:`~repro.locality.reuse_distances` to model a *shared* cache;
``per_thread``
    each thread's own stream (its iterations plus, for thread 0, the
    serial nests) — the *private*-cache view.

Both views carry the write mask.  The merged view also records which
thread issued every access (``merged_threads``), so the per-line MSI
coherence oracle (:mod:`repro.memsim.coherence`) can replay
invalidations over the exact interleaving, and where every access sits
in the serial trace (``serial_positions``), which maps it back to its
loop iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ..lang import Loop, Program
from ..obs import metrics, span
from ..stream import AddressStream
from .tracegen import iteration_counts


@dataclass(frozen=True)
class InterleavedRun:
    """The access streams of one simulated multi-thread execution."""

    program_name: str
    threads: int
    schedule: str
    parallel_nests: tuple[int, ...]
    merged: AddressStream  # global keys, round-robin interleaved
    per_thread: tuple[AddressStream, ...]  # each thread's private stream
    #: issuing thread of every merged access (int32, aligned with
    #: ``merged``) — the coherence oracle's third column
    merged_threads: np.ndarray
    #: index of every merged access in the serial trace (int64,
    #: aligned with ``merged``): ``merged = serial[serial_positions]``
    serial_positions: np.ndarray

    @property
    def total(self) -> int:
        return len(self.merged)


def interleave_trace(
    program: Program,
    params: Mapping[str, int],
    threads: int,
    steps: int = 1,
    schedule: str = "static",
    parallel_nests: Optional[Sequence[int]] = None,
) -> InterleavedRun:
    """Simulate a ``threads``-way OpenMP-style execution of ``program``.

    ``parallel_nests`` names the top-level statement positions to
    partition; by default the static parallelism analyzer decides
    (every nest whose outermost axis is DOALL or a reduction).
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    # lazy: codegen and the static package import this package, so
    # neither is imported here at module scope
    from ..codegen import trace_program
    from ..static.schedule import parse_schedule, schedule_assignments

    parse_schedule(schedule)  # validate the spec before tracing
    if parallel_nests is None:
        from ..static.parallelism import analyze_parallelism

        parallel_nests = analyze_parallelism(
            program, params
        ).parallel_nests()
    parallel = frozenset(parallel_nests)

    with span(
        "interleave-trace",
        program=program.name,
        threads=threads,
        schedule=schedule,
    ):
        trace = trace_program(program, params, steps)
        keys = trace.global_keys()
        writes = np.asarray(trace.writes, dtype=bool)
        tids = np.zeros(len(keys), dtype=np.int32)
        order = np.arange(len(keys), dtype=np.int64)
        nests = [
            k
            for k, stmt in enumerate(program.body)
            if k in parallel and isinstance(stmt, Loop)
        ]
        if threads > 1 and nests and len(keys):
            first_refs, counts = iteration_counts(program, params, nests)
            step_len = len(keys) // steps
            # top-level statements run in order, so within one step the
            # accesses of nest k form one run starting at starts[k]
            stmt_of = np.searchsorted(
                first_refs, trace.ref_ids[:step_len], side="right"
            ) - 1
            starts = np.searchsorted(stmt_of, nests)
            invocation = 0
            for step in range(steps):
                for k, start in zip(nests, starts.tolist()):
                    lo, per_iter = counts[k]
                    chunks = np.array(
                        schedule_assignments(
                            lo, lo + len(per_iter) - 1, threads, schedule,
                            invocation,
                        ),
                        dtype=np.int64,
                    ).reshape(-1, 3)
                    invocation += 1
                    a = step * step_len + start
                    b = a + int(per_iter.sum())
                    t = tids[a:b]
                    t[:] = np.repeat(
                        np.repeat(chunks[:, 2], chunks[:, 1] - chunks[:, 0] + 1),
                        per_iter,
                    )
                    # rank of every access within its thread's stream
                    sizes = np.bincount(t, minlength=threads)
                    rank = np.empty(b - a, dtype=np.int64)
                    rank[np.argsort(t, kind="stable")] = np.arange(
                        b - a
                    ) - np.repeat(np.cumsum(sizes) - sizes, sizes)
                    order[a:b] = a + np.lexsort((t, rank))
        per_thread_streams = tuple(
            _elem_stream(
                keys[tids == t], writes[tids == t], name=f"{program.name}/t{t}"
            )
            for t in range(threads)
        )
        metrics.inc("trace.interleaved_runs")
        metrics.inc("trace.interleaved_accesses", int(keys.size))
        return InterleavedRun(
            program_name=program.name,
            threads=threads,
            schedule=schedule,
            parallel_nests=tuple(sorted(parallel)),
            merged=_elem_stream(
                keys[order], writes[order], name=f"{program.name}/shared"
            ),
            per_thread=per_thread_streams,
            merged_threads=tids[order],
            serial_positions=order,
        )


def _elem_stream(
    keys: np.ndarray, writes: np.ndarray, name: str
) -> AddressStream:
    """An element-unit stream with the write column preserved."""
    from ..memsim.geometry import ELEM_BYTES
    from ..stream.stream import StreamMeta

    meta = StreamMeta(
        name=name, source="interleave", unit="elements", elem_bytes=ELEM_BYTES
    )
    return AddressStream(keys, writes, meta=meta)
