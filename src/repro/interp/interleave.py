"""Interleaved multi-thread trace generation (OpenMP-style execution).

The dynamic counterpart of ``repro.static.multicore`` and
``repro.static.coherence``: execute a program the way a ``T``-thread
OpenMP runtime would — every top-level nest whose outermost axis is
parallel (DOALL or reduction per the static parallelism analyzer) is
partitioned over its outer range by an OpenMP schedule
(:mod:`repro.static.schedule`: ``static``, ``static,k``, ``guided``,
``dynamic``), each thread traces its own chunks, and the per-chunk
streams are merged round-robin ``block`` accesses at a time.  Serial
nests run entirely on thread 0.  An implicit barrier separates
consecutive nests (and steps), exactly like OpenMP's parallel-for join.

Two views come out of a run, both as typed
:class:`~repro.stream.AddressStream` objects in element units (the
canonical global keys — streams support the array protocol, so numpy
consumers see the key column directly):

``merged``
    the interleaved access stream every thread sees — feed it to
    :func:`~repro.locality.reuse_distances` to model a *shared* cache;
``per_thread``
    each thread's own stream (its chunks plus, for thread 0, the serial
    nests) — the *private*-cache view.

Both views carry the interpreter's write mask, and the merged view also
records which thread issued every access (``merged_threads``), so the
per-line MSI coherence oracle (:mod:`repro.memsim.coherence`) can replay
invalidations over the exact interleaving.

Tracing a nest per thread re-uses the ordinary :func:`trace_program`
machinery on a program whose body is that thread's chunk loops; all
array declarations are kept, so ``global_keys`` agree across every
segment.  :func:`thread_program` is the same partition as one serial
program per thread, which is how an access of the merged stream is
mapped back to its loop iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from ..lang import Loop, Program, Stmt
from ..obs import metrics, span
from ..stream import AddressStream
from .tracegen import trace_program


@dataclass(frozen=True)
class InterleavedRun:
    """The access streams of one simulated multi-thread execution."""

    program_name: str
    threads: int
    schedule: str
    block: int
    parallel_nests: tuple[int, ...]
    merged: AddressStream  # global keys, round-robin interleaved
    per_thread: tuple[AddressStream, ...]  # each thread's private stream
    #: issuing thread of every merged access (int32, aligned with
    #: ``merged``) — the coherence oracle's third column
    merged_threads: np.ndarray

    @property
    def total(self) -> int:
        return len(self.merged)


def interleave_trace(
    program: Program,
    params: Mapping[str, int],
    threads: int,
    steps: int = 1,
    schedule: str = "static",
    block: int = 1,
    parallel_nests: Optional[Sequence[int]] = None,
) -> InterleavedRun:
    """Simulate a ``threads``-way OpenMP-style execution of ``program``.

    ``parallel_nests`` names the top-level statement positions to
    partition; by default the static parallelism analyzer decides
    (every nest whose outermost axis is DOALL or a reduction).
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    # lazy: the static package imports this module lazily too, so
    # neither package imports the other at module scope
    from ..static.schedule import parse_schedule, round_robin_order

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
        merged_keys: list[np.ndarray] = []
        merged_writes: list[np.ndarray] = []
        merged_tids: list[np.ndarray] = []
        priv_keys: list[list[np.ndarray]] = [[] for _ in range(threads)]
        priv_writes: list[list[np.ndarray]] = [[] for _ in range(threads)]
        for stmt, per_thread in _partition(
            program, params, threads, steps, schedule, parallel
        ):
            if per_thread is not None:
                columns = [
                    _columns(program, loops, params) for loops in per_thread
                ]
                for t, (keys, writes) in enumerate(columns):
                    if len(keys):
                        priv_keys[t].append(keys)
                        priv_writes[t].append(writes)
                mk = np.empty(
                    sum(len(c[0]) for c in columns), dtype=np.int64
                )
                mw = np.empty(len(mk), dtype=bool)
                mt = np.empty(len(mk), dtype=np.int32)
                filled = 0
                live = [(t, c) for t, c in enumerate(columns) if len(c[0])]
                for i, p, q in round_robin_order(
                    [len(c[0]) for _, c in live], block
                ):
                    t, (ck, cw) = live[i]
                    mk[filled : filled + (q - p)] = ck[p:q]
                    mw[filled : filled + (q - p)] = cw[p:q]
                    mt[filled : filled + (q - p)] = t
                    filled += q - p
                merged_keys.append(mk)
                merged_writes.append(mw)
                merged_tids.append(mt)
            else:
                keys, writes = _columns(program, (stmt,), params)
                if len(keys):
                    priv_keys[0].append(keys)
                    priv_writes[0].append(writes)
                    merged_keys.append(keys)
                    merged_writes.append(writes)
                    merged_tids.append(np.zeros(len(keys), dtype=np.int32))
        all_keys = (
            np.concatenate(merged_keys)
            if merged_keys
            else np.empty(0, np.int64)
        )
        all_writes = (
            np.concatenate(merged_writes)
            if merged_writes
            else np.empty(0, bool)
        )
        all_tids = (
            np.concatenate(merged_tids)
            if merged_tids
            else np.empty(0, np.int32)
        )
        per_thread_streams = tuple(
            _elem_stream(
                np.concatenate(p) if p else np.empty(0, np.int64),
                np.concatenate(w) if w else np.empty(0, bool),
                name=f"{program.name}/t{t}",
            )
            for t, (p, w) in enumerate(zip(priv_keys, priv_writes))
        )
        metrics.inc("trace.interleaved_runs")
        metrics.inc("trace.interleaved_accesses", int(all_keys.size))
        return InterleavedRun(
            program_name=program.name,
            threads=threads,
            schedule=schedule,
            block=block,
            parallel_nests=tuple(sorted(parallel)),
            merged=_elem_stream(
                all_keys, all_writes, name=f"{program.name}/shared"
            ),
            per_thread=per_thread_streams,
            merged_threads=all_tids,
        )


def thread_program(
    program: Program,
    params: Mapping[str, int],
    threads: int,
    thread: int,
    steps: int,
    schedule: str,
    parallel_nests: Sequence[int],
) -> Program:
    """Thread ``thread``'s share of the execution as one serial program.

    Its trace is exactly ``per_thread[thread]`` of the matching
    :func:`interleave_trace` run: the thread's chunks of every
    partitioned nest (the outer loop narrowed to each chunk) and, on
    thread 0, every serial nest, all steps in order.
    """
    body: list[Stmt] = []
    for stmt, per_thread in _partition(
        program, params, threads, steps, schedule, frozenset(parallel_nests)
    ):
        if per_thread is not None:
            body.extend(per_thread[thread])
        elif thread == 0:
            body.append(stmt)
    return program.with_body(tuple(body))


def _partition(
    program: Program,
    params: Mapping[str, int],
    threads: int,
    steps: int,
    schedule: str,
    parallel: frozenset[int],
) -> Iterator[tuple[Stmt, Optional[list[list[Loop]]]]]:
    """Every executed top-level statement, in order, with its per-thread
    chunk loops — ``None`` for a nest that runs serially on thread 0.

    A thread's chunks execute back-to-back in chunk order — for
    ``static,k`` and ``guided`` that is the order the deterministic
    dealer hands them out.  ``dynamic`` rotates the assignment once per
    partitioned nest invocation.
    """
    from ..static.schedule import schedule_chunks

    env = dict(params)
    invocation = 0
    for _ in range(steps):
        for k, stmt in enumerate(program.body):
            if threads > 1 and k in parallel and isinstance(stmt, Loop):
                lo = int(stmt.lower.affine().evaluate(env))
                hi = int(stmt.upper.affine().evaluate(env))
                per_thread = schedule_chunks(
                    lo, hi, threads, schedule, invocation
                )
                invocation += 1
                yield stmt, [
                    [replace(stmt, lower=a, upper=b) for a, b in chunks]
                    for chunks in per_thread
                ]
            else:
                yield stmt, None


def _columns(
    program: Program, body: Sequence[Stmt], params: Mapping[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(keys, writes)`` columns of ``body`` run in sequence."""
    trace = trace_program(program.with_body(tuple(body)), params)
    return trace.global_keys(), np.asarray(trace.writes, dtype=bool)


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
