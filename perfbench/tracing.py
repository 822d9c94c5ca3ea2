"""Spans around the calls the benchmark makes into each layer.

The traced run records one span per layer call — name, start, end and
parent — in memory, and turns them into per-layer *self* times: a
span's duration minus the part of it that its child spans cover.  Calls
the benchmark makes itself (``static``, ``locality``, ...) are wrapped
at the call site with :meth:`SpanRecorder.span`; calls that happen
inside ``repro.harness.run`` are reached by :func:`instrument`, which
swaps a layer's public function for a recording wrapper while the
traced passes run and puts the original back afterwards.  No span lives
inside the program itself.

A separate memory pass (``SpanRecorder.memory = True``) turns on
``tracemalloc`` only around the ``stream`` and ``memsim`` calls, so its
overhead never reaches a timed pass.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial, wraps
from typing import Iterator, Optional

#: the clock of every timed region: CPU seconds of this process, which
#: leave out the time the process waits for a core on a shared host
CLOCK = time.process_time


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }


class NullRecorder:
    """Tracing off: every hook is a no-op (the end-to-end runs)."""

    active = False
    job = ""

    def span(self, name: str):
        return nullcontext()

    def add(self, name: str, value: float) -> None:
        pass


@dataclass
class SpanRecorder:
    """In-memory span tree plus named counters for one traced run."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    #: memory pass: peak bytes allocated inside stream/memsim calls
    memory: bool = False
    peaks: dict[str, float] = field(default_factory=dict)
    #: jobs whose stream/memsim calls the memory pass must repeat
    memory_jobs: set = field(default_factory=set)
    #: name of the job running now (set by the runner)
    job: str = ""
    _stack: list[int] = field(default_factory=list)

    @property
    def active(self) -> bool:
        """Spans record only inside a timed job, never inside its checks."""
        return bool(self._stack)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, CLOCK(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = CLOCK()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def measure_peak(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; in the memory pass keep the peak bytes it allocated."""
        self.memory_jobs.add(self.job)
        if not self.memory:
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.peaks[name] = max(self.peaks.get(name, 0), peak)
        per_access = peak / max(len(out) if name == "stream" else out.accesses, 1)
        self.peaks[f"{name}.per_access"] = max(self.peaks.get(f"{name}.per_access", 0.0), per_access)
        return out

    def self_times(self, lo: int = 0) -> dict[str, float]:
        """Seconds per span name over ``spans[lo:]``, children excluded."""
        covered = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                covered[sp.parent] += sp.end - sp.start
        out: dict[str, float] = {}
        for index in range(lo, len(self.spans)):
            sp = self.spans[index]
            own = sp.end - sp.start - covered[index]
            out[sp.name] = out.get(sp.name, 0.0) + own
        return out


def _traced(rec: SpanRecorder, name: str, fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        with rec.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _traced_codegen(rec: SpanRecorder, fn):
    @wraps(fn)
    def trace_program(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        with rec.span("codegen.trace"):
            trace = fn(*args, **kwargs)
        rec.add("codegen.accesses", len(trace))
        return trace

    return trace_program


def _traced_addresses(rec: SpanRecorder, fn):
    @wraps(fn)
    def addresses(self, trace, *args, **kwargs):
        if not rec.active:
            return fn(self, trace, *args, **kwargs)
        with rec.span("stream.addresses"):
            return rec.measure_peak("stream", fn, self, trace, *args, **kwargs)

    return addresses


def _traced_simulate(rec: SpanRecorder, fn):
    @wraps(fn)
    def simulate_hierarchy(trace, layout, machine, engine=None, timings=None):
        if not rec.active:
            return fn(trace, layout, machine, engine=engine, timings=timings)
        timings = {} if timings is None else timings
        before = dict(timings)
        with rec.span("memsim.simulate"):
            stats = fn(trace, layout, machine, engine=engine, timings=timings)
        for level in ("l1", "l2", "tlb", "dram"):
            rec.add(f"memsim.{level}_s", timings.get(level, 0.0) - before.get(level, 0.0))
        rec.add("memsim.accesses", stats.accesses)
        return stats

    return simulate_hierarchy


def _memory_probe(rec: SpanRecorder, fn):
    """The levels' own allocations: addresses arrive already built."""

    @wraps(fn)
    def simulate_addresses(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        return rec.measure_peak("memsim", fn, *args, **kwargs)

    return simulate_addresses


def _traced_step(rec: SpanRecorder, fn):
    """One ``core.<pass>`` span per pipeline step (verifier checks nest inside)."""

    @wraps(fn)
    def _run_step(self, program, step, *args, **kwargs):
        if not rec.active:
            return fn(self, program, step, *args, **kwargs)
        with rec.span(f"core.{step.name}"):
            return fn(self, program, step, *args, **kwargs)

    return _run_step


def _counted_run(rec: SpanRecorder, fn):
    """Count the loops of every compiled variant (``core.loops_out``)."""

    @wraps(fn)
    def run(*args, **kwargs):
        variant = fn(*args, **kwargs)
        if rec.active:
            rec.add("core.loops_out", variant.program.stats().get("loops", 0))
        return variant

    return run


@contextmanager
def instrument(rec: SpanRecorder) -> Iterator[None]:
    """Patch each layer's public entry point to record spans into ``rec``."""
    import repro.codegen
    import repro.harness.experiment
    import repro.memsim.hierarchy
    import repro.verify.legality
    from repro.core.pm.manager import PassManager
    from repro.core.regroup.layout import Layout
    from repro.verify import PassVerifier

    patches = [
        (repro.codegen, "trace_program", partial(_traced_codegen, rec)),
        (repro.harness.experiment, "simulate_hierarchy", partial(_traced_simulate, rec)),
        (repro.memsim.hierarchy, "simulate_addresses", partial(_memory_probe, rec)),
        (Layout, "addresses", partial(_traced_addresses, rec)),
        (PassManager, "_run_step", partial(_traced_step, rec)),
        (PassManager, "run", partial(_counted_run, rec)),
        (PassVerifier, "check", lambda f: _traced(rec, "verify.check", f)),
        (
            repro.verify.legality,
            "snapshot_program",
            lambda f: _traced(rec, "verify.snapshot", f),
        ),
    ]
    with ExitStack() as stack:
        for owner, attr, make in patches:
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
            stack.callback(setattr, owner, attr, original)
        yield
