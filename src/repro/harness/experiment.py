"""Shared experiment driver used by benchmarks/ and examples/.

:func:`measure_variant` takes an application (by registry name or as a
program), compiles it at an optimization level, generates the trace at
the chosen size, simulates the scaled memory hierarchy, and returns one
:class:`VariantResult` — the row unit of every Fig. 10 / §6 table.  The
whole path is instrumented with :mod:`repro.obs` spans (compile passes,
trace-gen, per-cache simulation stages), so a surrounding
:class:`~repro.obs.SpanCollector` sees the full stage tree.

The :func:`repro.harness.run` front door drives this module; the
historical ``measure`` / ``measure_application`` shims are gone.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from .. import codegen
from ..core import CompiledVariant, compile_pipeline, compile_variant
from ..core.fusion import FusionOptions
from ..core.regroup import RegroupOptions
from ..interp.trace import AccessTrace
from ..lang import Program, SimulationError, validate
from ..memsim import (
    ENGINES,
    MACHINES,
    MachineConfig,
    MemStats,
    default_engine,
    scaled_machine,
    simulate_hierarchy,
    simulate_stream,
)
from ..obs import SpanEvent, metrics, span
from ..programs import registry
from ..stream import AddressStream
from ..verify import PassVerifier
from .cache import TraceCache, layout_fingerprint


@dataclass
class VariantResult:
    """Everything measured for one (program, level) pair."""

    program: str
    level: str
    params: Mapping[str, int]
    stats: MemStats
    variant: Optional[CompiledVariant]
    trace_length: int
    #: per-stage wall-clock seconds (trace-gen, addresses, l1, l2, tlb)
    timings: dict = field(default_factory=dict)
    #: wall-clock seconds of the whole measurement (filled by the runner)
    seconds: float = 0.0
    #: observability spans collected over the measurement (serial runs)
    spans: list[SpanEvent] = field(default_factory=list)
    #: metrics-registry delta observed over the measurement
    metrics: dict = field(default_factory=dict)

    def row(self) -> dict:
        return {
            "program": self.program,
            "level": self.level,
            "accesses": self.stats.accesses,
            "l1": self.stats.l1_misses,
            "l2": self.stats.l2_misses,
            "tlb": self.stats.tlb_misses,
            "seconds": self.stats.seconds,
            "bytes": self.stats.data_transferred_bytes,
        }


@contextmanager
def stage_timer(timings: dict, stage: str):
    """Accumulate a block's wall-clock seconds under ``timings[stage]``.

    The benchmark-side counterpart of the stages ``simulate_hierarchy``
    times internally — e.g. wrap an Olken ``reuse_distances`` pass with
    ``stage_timer(timings, "distance")`` to fill the timing table's
    ``distance`` column.  New code should prefer :func:`repro.obs.span`,
    which feeds the same numbers into structured events.
    """
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - t0


def _generate_trace(
    program: Program,
    params: Mapping[str, int],
    steps: int,
    timings: dict,
) -> AccessTrace:
    """Generate the trace with the codegen tracer, under the pinned span.

    The codegen tracer is proven bit-for-bit identical to the
    interpreter-based generator (the differential suite under
    ``tests/codegen/``) and falls back to it per nest, so it is the one
    production path.  It is resolved at call time so instrumentation
    that wraps ``repro.codegen.trace_program`` sees every trace.
    """
    with span("trace-gen", steps=steps) as sp:
        trace = codegen.trace_program(program, params, steps=steps)
    timings["trace-gen"] = sp.duration_s
    metrics.inc("trace.generated")
    metrics.inc("trace.accesses", len(trace))
    return trace


def machine_for(spec) -> MachineConfig:
    """Build the scaled machine for a registry entry's MachineSpec."""
    if isinstance(spec, str):
        return MACHINES[spec]()
    base = MACHINES[spec.base]()
    return scaled_machine(
        base, spec.l1_bytes, spec.l2_bytes, spec.tlb_entries, spec.page_bytes
    )


def measure_variant(
    program: Program,
    level: str,
    params: Mapping[str, int],
    machine: MachineConfig,
    steps: int = 1,
    name: Optional[str] = None,
    fusion_options: Optional[FusionOptions] = None,
    regroup_options: Optional[RegroupOptions] = None,
    engine: Optional[str] = None,
    cache: Optional[TraceCache] = None,
    verify: Union[bool, PassVerifier] = False,
    result_cache: bool = True,
    pipeline: Optional[object] = None,
) -> VariantResult:
    """Compile at ``level``, trace, and simulate one program variant.

    ``engine`` names the simulation engine (``"fast"``/``"reference"``;
    default per :func:`repro.memsim.default_engine`).  ``cache``
    replays address streams — and whole results, when the machine and
    simulation engine also match — from disk instead of re-tracing;
    ``result_cache=False`` keeps the trace cache but always
    re-simulates (benchmarking).
    ``verify`` threads a pass-legality check through
    :func:`~repro.core.compile_variant` (True, or a
    :class:`~repro.verify.PassVerifier` whose history the caller wants).
    ``pipeline`` overrides ``level`` for compilation: a registered
    pipeline name, a pass-name sequence, or a
    :class:`~repro.core.PipelineSpec` (``level`` stays the row label).
    Per-stage seconds land in :attr:`VariantResult.timings`.
    """
    engine = engine or default_engine()
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    timings: dict[str, float] = {}
    with span("compile", level=level) as sp:
        if pipeline is not None:
            variant = compile_pipeline(
                program,
                pipeline,
                fusion_options=fusion_options,
                regroup_options=regroup_options,
                verify=verify,
            )
        else:
            variant = compile_variant(
                program,
                level,
                fusion_options=fusion_options,
                regroup_options=regroup_options,
                verify=verify,
            )
    timings["compile"] = sp.duration_s
    validate(variant.program)
    layout = variant.layout(params)

    def _result(stats: MemStats, trace_length: int) -> VariantResult:
        return VariantResult(
            program=name or program.name,
            level=level,
            params=dict(params),
            stats=stats,
            variant=variant,
            trace_length=trace_length,
            timings=timings,
        )

    if cache is not None:
        tkey = cache.trace_key(
            str(variant.program), params, steps, layout_fingerprint(layout)
        )
        rkey = cache.result_key(tkey, machine, engine)
        if result_cache:
            stats = cache.load_result(rkey)
            if stats is not None:
                return _result(stats, stats.accesses)
        stream = cache.load_trace(tkey)
        if stream is None:
            trace = _generate_trace(variant.program, params, steps, timings)
            with span("addresses") as sp:
                stream = AddressStream.from_trace(
                    trace, layout, name=name or program.name, source="codegen"
                )
            timings["addresses"] = sp.duration_s
            cache.store_trace(tkey, stream)
        stats = simulate_stream(stream, machine, engine=engine, timings=timings)
        if result_cache:
            cache.store_result(rkey, stats)
        return _result(stats, len(stream))

    trace = _generate_trace(variant.program, params, steps, timings)
    stats = simulate_hierarchy(
        trace, layout, machine, engine=engine, timings=timings
    )
    return _result(stats, len(trace))


def trace_for(
    app: str,
    level: str = "noopt",
    params: Optional[Mapping[str, int]] = None,
    steps: Optional[int] = None,
    with_instr: bool = False,
) -> AccessTrace:
    """Convenience: the access trace of an application at one level."""
    entry = registry.get(app)
    program = validate(entry.build())
    variant = compile_variant(program, level)
    return codegen.trace_program(
        variant.program,
        params or entry.default_params,
        steps=entry.steps if steps is None else steps,
        with_instr=with_instr,
    )
