"""The experiment front door: ``run(RunRequest) -> RunResult``.

One entry point replaces the historical trio (``measure``,
``measure_application``, ``run_application``), removed in v2.0.  A
:class:`RunRequest` names *what* to run —
program (registry name or :class:`~repro.lang.Program`), levels, size,
machine, option objects — and *how* — engine, cache, verification,
parallelism, and observability sinks (:class:`~repro.obs.TraceConfig`).

Serial requests keep the full :class:`~repro.harness.VariantResult`
(including the compiled variant and collected spans); parallel requests
fan out through :class:`~repro.harness.ParallelRunner` and come back
variant-less but otherwise identical.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from ..lang import Program, ReproError, validate
from ..memsim import MACHINES, MachineConfig
from ..obs import RunLog, TraceConfig, make_event, spec_logging
from ..programs import registry
from ..verify import PassVerifier
from .cache import TraceCache
from .experiment import VariantResult, machine_for, measure_variant
from .parallel import ExperimentRecord, ExperimentSpec, ParallelRunner, progress_line


@dataclass(frozen=True)
class RunRequest:
    """Everything one experiment run needs, as a single value.

    ``program``
        a registry application name or a parsed/validated
        :class:`~repro.lang.Program`;
    ``levels``
        one level, a comma-separated string, or a sequence of levels;
    ``pipeline``
        compile through a specific pipeline instead of ``levels``: a
        registered pipeline name, a sequence of registered pass names,
        or a :class:`~repro.core.PipelineSpec`.  Custom (unnamed)
        pipelines run serially only;
    ``params`` / ``machine`` / ``steps``
        default to the registry entry's values (``machine`` also accepts
        a machine name, a :class:`~repro.programs.registry.MachineSpec`,
        or a built :class:`~repro.memsim.MachineConfig`);
    ``fusion_options`` / ``regroup_options`` / ``engine`` / ``verify``
        threaded to :func:`~repro.core.compile_variant` and the
        simulator exactly as their keyword twins there;
    ``cache``
        ``True`` (default directory), a path, or a
        :class:`~repro.harness.TraceCache`;
    ``jobs``
        1 = serial (default); ``None`` = one worker per CPU; n = that
        many workers (parallel runs need a registry ``program`` name);
    ``result_cache``
        ``False`` keeps the trace cache but always re-simulates;
    ``trace``
        observability sinks (:class:`~repro.obs.TraceConfig`).
    """

    program: Union[str, Program]
    levels: Union[str, Sequence[str]] = ("noopt",)
    pipeline: Optional[object] = None
    params: Optional[Mapping[str, int]] = None
    machine: Optional[Union[str, MachineConfig, object]] = None
    steps: Optional[int] = None
    name: Optional[str] = None
    fusion_options: Optional[object] = None
    regroup_options: Optional[object] = None
    #: cache-simulation engine, "fast" or "reference" (default per
    #: :func:`repro.memsim.default_engine`)
    engine: Optional[str] = None
    cache: Union[None, bool, str, Path, TraceCache] = None
    verify: Union[bool, PassVerifier] = False
    jobs: Optional[int] = 1
    result_cache: bool = True
    trace: Optional[TraceConfig] = None


@dataclass
class RunResult:
    """The outcome of one :func:`run` call."""

    request: RunRequest
    results: list[VariantResult]
    run_dir: Optional[Path] = None
    seconds: float = 0.0

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> VariantResult:
        return self.results[index]

    def rows(self) -> list[dict]:
        return [r.row() for r in self.results]

    def records(self) -> list[ExperimentRecord]:
        """Slim, picklable view (the old ``run_application`` shape)."""
        return [
            ExperimentRecord(
                program=r.program,
                level=r.level,
                params=dict(r.params),
                trace_length=r.trace_length,
                stats=r.stats,
                timings=dict(r.timings),
                seconds=r.seconds,
            )
            for r in self.results
        ]


def _resolve_levels(levels: Union[str, Sequence[str]]) -> list[str]:
    if isinstance(levels, str):
        return [lv for lv in levels.split(",") if lv]
    return list(levels)


def _resolve_cache(cache: Union[None, bool, str, Path, TraceCache]) -> Optional[TraceCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return TraceCache()
    if isinstance(cache, TraceCache):
        return cache
    return TraceCache(cache)


def _resolve_machine(machine, entry) -> MachineConfig:
    if isinstance(machine, MachineConfig):
        return machine
    if isinstance(machine, str):
        return MACHINES[machine]()
    if machine is not None:  # a MachineSpec-like object
        return machine_for(machine)
    if entry is not None:
        return machine_for(entry.machine_spec)
    from ..programs.registry import MachineSpec

    return machine_for(MachineSpec())


def run(request: RunRequest) -> RunResult:
    """Execute one experiment request; the single front door."""
    from ..core.pm import resolve_pipeline

    pipeline_spec = None
    if request.pipeline is not None:
        pipeline_spec = resolve_pipeline(request.pipeline)
        levels = [pipeline_spec.name]
    else:
        levels = _resolve_levels(request.levels)
        for level in levels:
            resolve_pipeline(level)  # strict: bogus names raise here
    if not levels:
        raise ReproError("RunRequest.levels is empty")
    cache = _resolve_cache(request.cache)

    if isinstance(request.program, str):
        entry = registry.get(request.program)
        program = validate(entry.build())
        name = request.name or request.program
        params = dict(request.params) if request.params is not None else dict(entry.default_params)
        steps = entry.steps if request.steps is None else request.steps
    else:
        entry = None
        program = request.program
        name = request.name or program.name
        if request.params is None:
            raise ReproError("RunRequest with a Program object requires params")
        params = dict(request.params)
        steps = 1 if request.steps is None else request.steps
    machine = _resolve_machine(request.machine, entry)

    parallel = request.jobs is None or request.jobs > 1
    if parallel and len(levels) > 1:
        if not isinstance(request.program, str):
            raise ReproError(
                "parallel runs (jobs != 1) need a registry application name; "
                "compiled variants do not cross process boundaries"
            )
        specs = [
            ExperimentSpec(
                app=request.program,
                level=level,
                params=params,
                steps=steps,
                machine=machine,
                fusion_options=request.fusion_options,
                regroup_options=request.regroup_options,
                engine=request.engine,
                cache_dir=str(cache.root) if cache is not None else None,
                verify=bool(request.verify),
                result_cache=request.result_cache,
            )
            for level in levels
        ]
        runner = ParallelRunner(jobs=request.jobs, trace=request.trace)
        t0 = time.perf_counter()
        records = runner.run(specs)
        results = [
            VariantResult(
                program=r.program,
                level=r.level,
                params=dict(r.params),
                stats=r.stats,
                variant=None,
                trace_length=r.trace_length,
                timings=dict(r.timings),
                seconds=r.seconds,
            )
            for r in records
        ]
        return RunResult(
            request,
            results,
            run_dir=runner.last_run_dir,
            seconds=time.perf_counter() - t0,
        )

    # serial path: full VariantResults, spans and metrics attached
    cfg = request.trace
    log = RunLog.create(cfg.runs_root, cfg.run_id) if cfg and cfg.events else None
    memory = bool(cfg and cfg.memory)
    progress = bool(cfg and cfg.progress)
    if log is not None:
        log.write(make_event("run_start", run_id=log.run_id, total=len(levels)))
    results = []
    slowest: Optional[VariantResult] = None
    t0 = time.perf_counter()
    for index, level in enumerate(levels):
        with spec_logging(log, index, name, level, memory=memory) as collector:
            result = measure_variant(
                program,
                level,
                params,
                machine,
                steps=steps,
                name=name,
                fusion_options=request.fusion_options,
                regroup_options=request.regroup_options,
                engine=request.engine,
                cache=cache,
                verify=request.verify,
                result_cache=request.result_cache,
                pipeline=pipeline_spec,
            )
        result.seconds = collector.seconds
        result.spans = collector.events
        result.metrics = collector.metrics
        results.append(result)
        if slowest is None or result.seconds > slowest.seconds:
            slowest = result
        if progress:
            print(
                progress_line(
                    len(results),
                    len(levels),
                    f"{result.program}/{result.level}",
                    result.seconds,
                    time.perf_counter() - t0,
                    f"{slowest.program}/{slowest.level}",
                    slowest.seconds,
                ),
                file=sys.stderr,
                flush=True,
            )
    seconds = time.perf_counter() - t0
    if log is not None:
        log.write(
            make_event(
                "run_end",
                run_id=log.run_id,
                completed=len(results),
                total=len(levels),
                seconds=round(seconds, 9),
                slowest={
                    "program": slowest.program,
                    "level": slowest.level,
                    "seconds": round(slowest.seconds, 9),
                },
            )
        )
    return RunResult(
        request,
        results,
        run_dir=log.run_dir if log is not None else None,
        seconds=seconds,
    )
