"""Coherence and false-sharing analysis (line-granularity model).

The multicore reuse model (:mod:`repro.static.multicore`) predicts
capacity behaviour; this module predicts the *coherence* component a
multi-thread run adds on top: invalidation misses, classified as

* **true sharing** — two threads touch the same element, at least one
  writing it (the value actually flows between cores); a DOALL axis
  cannot true-share within one nest (that is what the race analyzer
  proves), so true sharing is a *cross-nest* phenomenon: the producing
  nest was partitioned over a different axis than the consumer;
* **false sharing** — two threads touch *distinct* elements that live
  on the same cache line; the line ping-pongs even though no value
  flows.  The canonical cure is padding the leading dimension to a
  whole number of lines, which the R520 lint suggests.

The counts come from the one interleaved trace every multicore consumer
shares: :func:`repro.interp.interleave_trace` partitions every parallel
nest (the nests the parallelism analyzer proves DOALL) with the shared
schedule machinery (:mod:`repro.static.schedule`) and merges the
per-thread streams round-robin; :func:`repro.memsim.coherence.simulate_msi`
replays the merged stream through the owner-tracking MSI automaton.
Cold, invalidation and upgrade counts are therefore the oracle's by
construction (DESIGN §10).  What this module adds is vectorized over
that stream: an invalidation is *true* when another thread wrote the
very element earlier in the stream, *false* otherwise.

Two static screens keep the classification focused:

* a **hull screen**: per-thread linearized footprint intervals (the
  rectangular hull of each reference restricted to a thread's chunk,
  widened by a line) prove most arrays are never line-shared across
  threads at all — they are left out of the classification;
* a **dependence screen**: :func:`repro.static.dependence_test.attainable`
  over cross-thread reference pairs proves when no element can be
  touched by two different threads — every line overlap of such an
  array is false sharing by construction.

Witnesses are concrete: the first invalidation on each of the first
few lines, paired with the write it collided with (the last write to
the element by another thread for true sharing, the write that
invalidated the line for false sharing), with the two global element
keys, their offsets within the line, and the loop-variable bindings of
both accesses, located from their positions in the merged stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ..lang import Program
from ..lang.errors import AnalysisError
from ..obs import metrics, span
from .model import StaticRef, build_model
from .multicore import _ref_box, _scope_ranges
from .parallelism import (
    ParallelismProfile,
    _strides,
    _Unsupported,
    analyze_parallelism,
    bind_params,
)
from .schedule import parse_schedule, schedule_chunks

#: access ceiling: programs whose traced access count exceeds this
#: raise (callers degrade gracefully — the tuner falls back to the
#: capacity-only objective)
DEFAULT_MAX_ACCESSES = 8_000_000

#: how many sharing witnesses the profile keeps
MAX_WITNESSES = 8


# -- result types -------------------------------------------------------------


@dataclass(frozen=True)
class SharingWitness:
    """One concrete cross-thread sharing event on one cache line."""

    array: str
    line: int  # global line id (global key // line_elems)
    kind: str  # "true" | "false"
    thread_a: int  # the thread whose write the miss collided with
    thread_b: int  # the thread whose access missed on it
    elem_a: int  # global element key thread_a touched
    elem_b: int  # global element key thread_b touched
    offset_a: int  # element offset of elem_a within the line
    offset_b: int
    #: loop-variable bindings of the two accesses, outermost first
    #: (empty for an access outside every loop)
    iter_a: tuple[tuple[str, int], ...] = ()
    iter_b: tuple[tuple[str, int], ...] = ()

    def render(self) -> str:
        def env(bindings: tuple[tuple[str, int], ...]) -> str:
            if not bindings:
                return "(top level)"
            return "(" + ", ".join(f"{k}={v}" for k, v in bindings) + ")"

        what = (
            "same element"
            if self.kind == "true"
            else f"distinct elements +{self.offset_a}/+{self.offset_b}"
        )
        return (
            f"{self.kind} sharing on {self.array} line {self.line}: "
            f"t{self.thread_a} @{env(self.iter_a)} vs "
            f"t{self.thread_b} @{env(self.iter_b)} — {what}"
        )


@dataclass(frozen=True)
class ArraySharing:
    """Per-array sharing summary at line granularity."""

    array: str
    shared_lines: int  # lines touched by >= 2 threads
    true_lines: int  # shared lines with a cross-thread element write
    false_lines: int  # shared+written lines with disjoint elements
    invalidations: int
    true_invalidations: int
    false_invalidations: int


@dataclass(frozen=True)
class CoherenceProfile:
    """Predicted coherence behaviour of one multi-thread execution."""

    program_name: str
    params: tuple[tuple[str, int], ...]
    threads: int
    schedule: str
    steps: int
    line_elems: int
    line_bytes: int
    parallel_nests: tuple[int, ...]
    accesses: int
    #: per-thread compulsory line misses (first touches)
    cold: tuple[int, ...]
    #: per-thread invalidation misses
    invalidations: tuple[int, ...]
    #: writes that invalidated at least one other thread's copy
    upgrades: int
    arrays: tuple[ArraySharing, ...]
    witnesses: tuple[SharingWitness, ...]
    #: arrays the hull screen proved line-private (never shared)
    screened_out: tuple[str, ...]
    #: arrays the dependence screen proved element-private (any line
    #: overlap is false sharing by construction)
    false_only: tuple[str, ...] = ()

    @property
    def total_cold(self) -> int:
        return int(sum(self.cold))

    @property
    def total_invalidations(self) -> int:
        return int(sum(self.invalidations))

    @property
    def true_invalidations(self) -> int:
        return sum(a.true_invalidations for a in self.arrays)

    @property
    def false_invalidations(self) -> int:
        return sum(a.false_invalidations for a in self.arrays)

    def sharing_arrays(self) -> tuple[ArraySharing, ...]:
        return tuple(a for a in self.arrays if a.shared_lines)

    def render(self) -> str:
        size = ", ".join(f"{k}={v}" for k, v in self.params)
        lines = [
            f"coherence prediction: {self.program_name} at {size} — "
            f"{self.threads} threads, {self.schedule} schedule, "
            f"{self.line_bytes}B lines",
            f"  accesses: {self.accesses} "
            f"(cold lines: {self.total_cold}, "
            f"invalidation misses: {self.total_invalidations}, "
            f"upgrades: {self.upgrades})",
            f"  invalidations per thread: "
            f"{', '.join(str(v) for v in self.invalidations)}",
        ]
        shared = self.sharing_arrays()
        if shared:
            lines.append("  shared arrays:")
            for a in sorted(
                shared, key=lambda s: -s.invalidations
            ):
                lines.append(
                    f"    {a.array}: {a.shared_lines} shared lines "
                    f"({a.true_lines} true, {a.false_lines} false), "
                    f"{a.invalidations} invalidations "
                    f"({a.true_invalidations} true, "
                    f"{a.false_invalidations} false)"
                )
        else:
            lines.append("  no cross-thread line sharing")
        if self.screened_out:
            lines.append(
                f"  hull screen proved private: "
                f"{', '.join(self.screened_out)}"
            )
        for w in self.witnesses:
            lines.append(f"  witness: {w.render()}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "program": self.program_name,
            "params": dict(self.params),
            "threads": self.threads,
            "schedule": self.schedule,
            "steps": self.steps,
            "line_bytes": self.line_bytes,
            "accesses": self.accesses,
            "cold": list(self.cold),
            "invalidations": list(self.invalidations),
            "total_invalidations": self.total_invalidations,
            "true_invalidations": self.true_invalidations,
            "false_invalidations": self.false_invalidations,
            "upgrades": self.upgrades,
            "arrays": [
                {
                    "array": a.array,
                    "shared_lines": a.shared_lines,
                    "true_lines": a.true_lines,
                    "false_lines": a.false_lines,
                    "invalidations": a.invalidations,
                    "true_invalidations": a.true_invalidations,
                    "false_invalidations": a.false_invalidations,
                }
                for a in self.arrays
            ],
            "witnesses": [w.render() for w in self.witnesses],
            "screened_out": list(self.screened_out),
        }


# -- screens ------------------------------------------------------------------


def _ref_key_range(
    ref: StaticRef,
    env: Mapping[str, int],
    strides: Mapping[str, tuple[int, ...]],
    bases: Mapping[str, int],
    outer_span: Optional[tuple[int, int]],
) -> Optional[tuple[int, int]]:
    """Concrete [lo, hi] interval of the ref's global keys with the
    outer loop restricted to ``outer_span`` (the linearized hull)."""
    box = _ref_box(ref, env, outer_span)
    if box is None:
        return None
    ss = strides[ref.array]
    if len(box) != len(ss):
        return None
    lo = hi = bases[ref.array]
    for (blo, bhi), s in zip(box, ss):
        lo += (blo - 1) * s if s >= 0 else (bhi - 1) * s
        hi += (bhi - 1) * s if s >= 0 else (blo - 1) * s
    return int(lo), int(hi)


def _thread_ranges(
    refs: Sequence[StaticRef],
    parallel: frozenset[int],
    env: Mapping[str, int],
    threads: int,
    schedule: str,
    strides: Mapping[str, tuple[int, ...]],
    bases: Mapping[str, int],
) -> Optional[list[tuple[int, tuple[int, int], bool]]]:
    """(thread, key range, is_write) spans of every ref of one array;
    None when any ref falls outside the interval engine's subset."""
    out: list[tuple[int, tuple[int, int], bool]] = []
    for ref in refs:
        if ref.nest in parallel and ref.scope:
            try:
                ranges = _scope_ranges(ref, env)
            except _Unsupported:
                return None
            lo, hi = ranges[ref.scope[0].index]
            if hi < lo:
                continue
            chunks = schedule_chunks(lo, hi, threads, schedule)
            for t in range(threads):
                if not chunks[t]:
                    continue
                span_t = (chunks[t][0][0], chunks[t][-1][1])
                rng = _ref_key_range(ref, env, strides, bases, span_t)
                if rng is None:
                    return None
                out.append((t, rng, ref.is_write))
        else:
            rng = _ref_key_range(ref, env, strides, bases, None)
            if rng is None:
                return None
            out.append((0, rng, ref.is_write))
    return out


def _screen_arrays(
    model,
    parallel: frozenset[int],
    env: Mapping[str, int],
    threads: int,
    schedule: str,
    line_elems: int,
    strides: Mapping[str, tuple[int, ...]],
    bases: Mapping[str, int],
) -> tuple[set[str], set[str]]:
    """(provably line-private arrays, provably element-private arrays).

    Line-private: no two different threads' footprint hulls overlap
    even after widening by a line — the array can produce no sharing at
    all.  Element-private: the unwidened hulls never overlap across
    threads, so any line sharing is false sharing by construction (the
    dependence screen refines this with an exact equality test).
    """
    by_array: dict[str, list[StaticRef]] = {}
    for ref in model.refs:
        by_array.setdefault(ref.array, []).append(ref)
    line_private: set[str] = set()
    elem_private: set[str] = set()
    for array, refs in by_array.items():
        spans = _thread_ranges(
            refs, parallel, env, threads, schedule, strides, bases
        )
        if spans is None:
            continue  # not provable: keep the array in the classifier
        line_shared = False
        for i, (t1, (a1, b1), _w1) in enumerate(spans):
            for t2, (a2, b2), _w2 in spans[i + 1 :]:
                if t1 == t2:
                    continue
                # two hulls share a line iff their line-id ranges meet
                if max(a1, a2) // line_elems <= min(b1, b2) // line_elems:
                    line_shared = True
                    break
            if line_shared:
                break
        if not line_shared:
            line_private.add(array)
        elif not _may_share_element(
            refs, parallel, env, threads, schedule
        ):
            elem_private.add(array)
    return line_private, elem_private


def _may_share_element(
    refs: Sequence[StaticRef],
    parallel: frozenset[int],
    env: Mapping[str, int],
    threads: int,
    schedule: str,
) -> bool:
    """May two *different* threads reach the same element of the array,
    at least one writing it?  Cross-thread equality feasibility per
    subscript dimension via the dependence tester's interval+gcd check
    (:func:`repro.static.dependence_test.attainable`), with each ref's
    outer loop restricted to its thread's iteration span.  ``True``
    means "maybe" — ``False`` is a proof, which makes every line
    overlap of the array false sharing by construction."""
    from .dependence_test import attainable
    from .schedule import thread_span

    def spans_of(ref: StaticRef) -> Optional[list[tuple[int, tuple[int, int]]]]:
        """(thread, outer-var span) placements of one ref."""
        if ref.nest in parallel and ref.scope:
            try:
                ranges = _scope_ranges(ref, env)
            except _Unsupported:
                return None
            lo, hi = ranges[ref.scope[0].index]
            out = []
            for t in range(threads):
                a, b = thread_span(lo, hi, threads, t, schedule)
                if a <= b:
                    out.append((t, (a, b)))
            return out
        return [(0, (0, -1))]  # serial: thread 0, no outer restriction

    def dim_terms(ref, rng, sign):
        terms = []
        for sub in ref.subs:
            row = []
            for n, coeff in sub.coeffs:
                if coeff.denominator != 1:
                    raise _Unsupported(str(coeff))
                lo, hi = rng.get(n, (env.get(n, 0), env.get(n, 0)))
                row.append((sign * int(coeff), lo, hi))
            terms.append((sign * sub.const, row))
        return terms

    for i, r1 in enumerate(refs):
        for r2 in refs[i:]:
            if not (r1.is_write or r2.is_write):
                continue
            p1 = spans_of(r1)
            p2 = spans_of(r2)
            if p1 is None or p2 is None:
                return True  # cannot prove: assume sharing possible
            if len(r1.subs) != len(r2.subs):
                return True
            for t1, s1 in p1:
                for t2, s2 in p2:
                    if t1 == t2:
                        continue
                    try:
                        rng1 = _scope_ranges(
                            r1, env, s1 if s1[0] <= s1[1] else None
                        )
                        rng2 = _scope_ranges(
                            r2, env, s2 if s2[0] <= s2[1] else None
                        )
                        terms1 = dim_terms(r1, rng1, 1)
                        terms2 = dim_terms(r2, rng2, -1)
                    except _Unsupported:
                        return True
                    feasible = True
                    for (c1, row1), (c2, row2) in zip(terms1, terms2):
                        c = c1 + c2
                        if c.denominator != 1:
                            feasible = False
                            break
                        if not attainable(0, int(c), row1 + row2):
                            feasible = False
                            break
                    if feasible:
                        return True
    return False


# -- classification -----------------------------------------------------------


def _multi_thread(ids: np.ndarray, tids: np.ndarray, threads: int) -> np.ndarray:
    """The distinct ``ids`` that two or more threads touch."""
    owners, counts = np.unique(
        np.unique(ids * threads + tids) // threads, return_counts=True
    )
    return owners[counts > 1]


def _true_invalidations(
    keys: np.ndarray,
    writes: np.ndarray,
    tids: np.ndarray,
    positions: np.ndarray,
) -> np.ndarray:
    """Per position: did another thread write the same element earlier?

    Per element it is enough to know the first write and the first
    write by any thread other than the first writer."""
    wpos = np.flatnonzero(writes)
    if not len(wpos):
        return np.zeros(len(positions), dtype=bool)
    order = np.argsort(keys[wpos], kind="stable")
    wpos = wpos[order]
    wkeys = keys[wpos]
    wtids = tids[wpos]
    first = np.ones(len(wpos), dtype=bool)
    first[1:] = wkeys[1:] != wkeys[:-1]
    group = np.cumsum(first) - 1
    elems = wkeys[first]
    first_pos = wpos[first]
    first_tid = wtids[first]
    other = wtids != first_tid[group]
    other_pos = np.full(len(elems), len(keys), dtype=np.int64)
    g, at = np.unique(group[other], return_index=True)
    other_pos[g] = wpos[other][at]

    e = keys[positions]
    t = tids[positions]
    gi = np.minimum(np.searchsorted(elems, e), len(elems) - 1)
    written = elems[gi] == e
    before = np.where(t != first_tid[gi], first_pos[gi], other_pos[gi])
    return written & (before < positions)


def _array_summaries(
    names: Sequence[str],
    starts: np.ndarray,
    line_elems: int,
    keys: np.ndarray,
    writes: np.ndarray,
    tids: np.ndarray,
    threads: int,
    inv_lines: np.ndarray,
    inv_true: np.ndarray,
) -> tuple[ArraySharing, ...]:
    """Per-array line and invalidation counts over the classified
    accesses; a line belongs to the array holding its first element."""
    lines = keys // line_elems
    shared = _multi_thread(lines, tids, threads)
    true_lines = np.unique(
        np.intersect1d(_multi_thread(keys, tids, threads), keys[writes])
        // line_elems
    )
    is_true = np.isin(shared, true_lines)
    is_false = ~is_true & np.isin(shared, lines[writes])
    counted = np.isin(inv_lines, shared)
    inv_lines = inv_lines[counted]
    inv_true = inv_true[counted]

    def per_array(line_ids: np.ndarray) -> np.ndarray:
        owner = np.searchsorted(starts, line_ids * line_elems, side="right")
        return np.bincount(owner - 1, minlength=len(names))

    rows = np.stack(
        [
            per_array(shared),
            per_array(shared[is_true]),
            per_array(shared[is_false]),
            per_array(inv_lines),
            per_array(inv_lines[inv_true]),
            per_array(inv_lines[~inv_true]),
        ],
        axis=1,
    )
    return tuple(
        ArraySharing(name, *(int(v) for v in row))
        for name, row in sorted(zip(names, rows.tolist()))
        if row[0]
    )


def _bindings(
    program: Program,
    env: Mapping[str, int],
    threads: int,
    steps: int,
    schedule: str,
    parallel: frozenset[int],
    tids: np.ndarray,
    positions: Sequence[int],
) -> dict[int, tuple[tuple[str, int], ...]]:
    """Loop-variable bindings of the accesses at ``positions`` of the
    merged stream.  An access's rank among its thread's accesses is its
    index into that thread's serial program."""
    from ..interp.interleave import thread_program
    from ..interp.tracegen import access_bindings

    out: dict[int, tuple[tuple[str, int], ...]] = {}
    for t in sorted({int(tids[p]) for p in positions}):
        mine = sorted({p for p in positions if tids[p] == t})
        ranks = np.cumsum(tids == t)[mine] - 1
        found = access_bindings(
            thread_program(program, env, threads, t, steps, schedule, parallel),
            env,
            ranks.tolist(),
        )
        out.update(zip(mine, found))
    return out


# -- entry point --------------------------------------------------------------


def analyze_coherence(
    program: Program,
    params: Optional[Mapping[str, int]] = None,
    threads: int = 4,
    schedule: str = "static",
    steps: int = 1,
    line_bytes: Optional[int] = None,
    parallelism: Optional[ParallelismProfile] = None,
    max_accesses: int = DEFAULT_MAX_ACCESSES,
    witnesses: bool = True,
) -> CoherenceProfile:
    """Predict the coherence behaviour of a ``threads``-way execution.

    The nests the parallelism analyzer proves parallel are partitioned
    and interleaved by :func:`repro.interp.interleave_trace`; the merged
    stream is replayed through the MSI owner-tracking automaton at
    ``line_bytes`` granularity and its invalidations are classified.
    """
    # lazy: the interpreter imports the static package lazily too, so
    # neither package imports the other at module scope
    from ..interp.interleave import interleave_trace
    from ..interp.tracegen import trace_length
    from ..memsim.coherence import simulate_msi
    from ..memsim.geometry import ELEM_BYTES, L1_LINE_BYTES

    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    parse_schedule(schedule)
    lb = line_bytes if line_bytes is not None else L1_LINE_BYTES
    line_elems = max(1, lb // ELEM_BYTES)
    env = bind_params(program, params)
    with span(
        "coherence-analyze",
        program=program.name,
        threads=threads,
        schedule=schedule,
    ):
        if parallelism is None:
            parallelism = analyze_parallelism(program, params)
        parallel = frozenset(parallelism.parallel_nests())
        if trace_length(program, env) * steps > max_accesses:
            raise AnalysisError(
                f"coherence analysis exceeds {max_accesses} "
                f"accesses at this size; raise max_accesses or "
                f"analyze a smaller instance"
            )
        # global keys lay the arrays back to back in declaration order
        names = [decl.name for decl in program.arrays]
        sizes = np.array(
            [math.prod(decl.shape(env)) for decl in program.arrays],
            dtype=np.int64,
        )
        starts = np.cumsum(sizes) - sizes
        line_private, elem_private = _screen_arrays(
            build_model(program), parallel, env, threads, schedule,
            line_elems, _strides(program, env),
            dict(zip(names, starts.tolist())),
        )
        run = interleave_trace(
            program, env, threads, steps, schedule,
            parallel_nests=parallel,
        )
        keys = np.asarray(run.merged)
        writes = np.asarray(run.merged.writes, dtype=bool)
        tids = run.merged_threads
        msi = simulate_msi(keys // line_elems, writes, tids, threads)

        # arrays the hull screen proved line-private cannot contribute
        # sharing: their contiguous key ranges are left unclassified
        classify = np.ones(len(keys), dtype=bool)
        for k, name in enumerate(names):
            if name in line_private:
                classify &= (keys < starts[k]) | (keys >= starts[k] + sizes[k])
        inv_pos = np.flatnonzero(msi.invalidation_mask & classify)
        inv_true = _true_invalidations(
            keys, writes & classify, tids, inv_pos
        )
        inv_lines = keys[inv_pos] // line_elems
        arrays = _array_summaries(
            names, starts, line_elems,
            keys[classify], writes[classify], tids[classify], threads,
            inv_lines, inv_true,
        )

        witness_objs: list[SharingWitness] = []
        if witnesses:
            # (inv index, position of the colliding write) per witness
            picks = []
            _, first = np.unique(inv_lines, return_index=True)
            for k in np.sort(first)[:MAX_WITNESSES].tolist():
                pos = inv_pos[k]
                if inv_true[k]:
                    # the last write of the same element by another thread
                    hit = (keys[:pos] == keys[pos]) & (tids[:pos] != tids[pos])
                else:
                    # the write that took the line away
                    hit = keys[:pos] // line_elems == inv_lines[k]
                picks.append((k, int(np.flatnonzero(hit & writes[:pos])[-1])))
            bindings = _bindings(
                program, env, threads, steps, schedule, parallel, tids,
                [p for k, other in picks for p in (other, int(inv_pos[k]))],
            )
            for k, other in picks:
                pos = int(inv_pos[k])
                line = int(inv_lines[k])
                elem_a, elem_b = int(keys[other]), int(keys[pos])
                owner = np.searchsorted(starts, line * line_elems, "right")
                witness_objs.append(
                    SharingWitness(
                        array=names[owner - 1],
                        line=line,
                        kind="true" if inv_true[k] else "false",
                        thread_a=int(tids[other]),
                        thread_b=int(tids[pos]),
                        elem_a=elem_a,
                        elem_b=elem_b,
                        offset_a=elem_a % line_elems,
                        offset_b=elem_b % line_elems,
                        iter_a=bindings[other],
                        iter_b=bindings[pos],
                    )
                )
        metrics.inc("analysis.coherence.profiles")
        return CoherenceProfile(
            program_name=program.name,
            params=tuple(sorted(env.items())),
            threads=threads,
            schedule=schedule,
            steps=steps,
            line_elems=line_elems,
            line_bytes=lb,
            parallel_nests=tuple(sorted(parallel)),
            accesses=len(keys),
            cold=tuple(int(c) for c in msi.cold),
            invalidations=tuple(int(v) for v in msi.invalidations),
            upgrades=msi.total_upgrades,
            arrays=arrays,
            witnesses=tuple(witness_objs),
            screened_out=tuple(sorted(line_private)),
            false_only=tuple(sorted(elem_private)),
        )
