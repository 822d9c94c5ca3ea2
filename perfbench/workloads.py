"""The benchmark's three workloads: job lists, output checks, answers.

Each workload is a list of :class:`Job` values.  A job's ``run`` is the
timed work; its ``check`` runs afterwards, outside the timed region,
and compares the output with a reference the program under test did not
produce for that purpose (a committed file, a second tracer or
interpreter, the dynamic MSI oracle, a cache simulation).  References
that cost real time are computed once per process and cached on the
workload.  A check that fails raises :class:`CheckFailed`; the job then
counts as failed.  A successful check returns a small summary dict the
workload folds into its simulated and predicted answers.

* ``measure`` — compile → trace → simulate through ``repro.harness``:
  the four Fig. 10 applications at registry sizes, plus a scaling part
  (adi at N = 257) whose working set is about 2.5× larger.
* ``analyze`` — the static toolchain: verified compiles, static reuse,
  parallelism, multicore prediction and coherence at ``small_params``.
* ``reuse`` — the paper's Fig. 3 study: interpreter traces with
  instruction ids, Fenwick reuse distances, reuse-driven reordering.

:func:`job_names` lists every job without building anything, so the
metric list in ``BENCHMARK.json`` can be checked against the code.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.codegen import run_program as codegen_run_program
from repro.codegen import trace_program as codegen_trace_program
from repro.core import compile_variant
from repro.harness import RunRequest, run
from repro.harness.experiment import machine_for
from repro.harness.sweep import scaling_sweep
from repro.interp import interleave_trace
from repro.interp import run_program as interp_run_program
from repro.interp import trace_program as interp_trace_program
from repro.lang import validate
from repro.locality import miss_count, reuse_distances
from repro.memsim import simulate_hierarchy
from repro.memsim.bandwidth import bandwidth_record
from repro.memsim.cache import CacheConfig, simulate_cache
from repro.memsim.coherence import simulate_msi
from repro.memsim.geometry import ELEM_BYTES, L1_LINE_BYTES
from repro.programs import registry
from repro.reusedriven import reuse_driven_order
from repro.static import analyze_coherence, analyze_program
from repro.static.multicore import predict_multicore
from repro.static.parallelism import analyze_parallelism

#: measure, Fig. 10 part: every application at every level, registry sizes
FIG10_APPS = ("swim", "tomcatv", "adi", "sp")
FIG10_LEVELS = ("noopt", "fusion", "new")
#: measure, scaling part: (application, levels, sizes)
SCALING = (("adi", ("noopt", "new"), (257,)),)
#: analyze: (application, level) at the registry's small_params
ANALYZE = (
    ("adi", "noopt"),
    ("adi", "new"),
    ("tomcatv", "noopt"),
    ("tomcatv", "new"),
    ("swim", "noopt"),
    ("swim", "new"),
)
#: reuse: (application, sizes); the last sp size also compiles at fusion
REUSE = (("adi", (50, 100)), ("sp", (8, 12)))
THREADS = 4
SCHEDULE = "static"
#: problem size of the value check (compiled variant vs original)
VALUE_N = 8
#: ``tiny=True`` runs every job list at these sizes (the smoke test)
TINY = {"adi": 10, "swim": 10, "tomcatv": 10, "sp": 8}
#: simulated output of every measure job, full and tiny sizes, as
#: :func:`record` gives it (written by ``perfbench/make_reference.py``)
REFERENCE = Path(__file__).resolve().parent / "reference.json"


class CheckFailed(Exception):
    """An output disagreed with its reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    #: metric key: ``<program>.<level>[.N<n>]``
    name: str
    run: Callable[[object], object]
    check: Callable[[object], dict]


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job] = field(default_factory=list)
    #: references computed once per process, keyed by job or program
    refs: dict = field(default_factory=dict)

    def reference(self, key, compute: Callable[[], object]):
        if key not in self.refs:
            self.refs[key] = compute()
        return self.refs[key]

    @staticmethod
    def answers(summaries: dict[str, dict]) -> dict[str, float]:
        """Simulated traffic/time and static prediction error of one pass."""
        sims = [s["sim"] for s in summaries.values() if "sim" in s]
        points = [p for s in summaries.values() for p in s.get("pred", ())]
        return {
            "sim_traffic_mb": sum(b for b, _ in sims) / 1e6,
            "sim_time_s": sum(t for _, t in sims),
            "pred_err": sum(points) / len(points) if points else 0.0,
        }


def _plan(workload: str, tiny: bool) -> list[tuple]:
    """The job list as (program, level, N or None for registry sizes)."""
    if workload == "measure":
        plan = [(a, lv, TINY[a] if tiny else None) for a in FIG10_APPS for lv in FIG10_LEVELS]
        plan += [
            (a, lv, TINY[a] + 2 if tiny else n) for a, lvs, ns in SCALING for lv in lvs for n in ns
        ]
        return plan
    if workload == "analyze":
        return [(a, lv, TINY[a] if tiny else registry.get(a).small_params["N"]) for a, lv in ANALYZE]
    if workload == "reuse":
        return [
            (a, "reuse", n)
            for a, ns in REUSE
            for n in ((TINY[a],) if tiny else ns)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def job_names(workload: str, tiny: bool = False) -> list[str]:
    """Every job name of ``workload``, without building any program."""
    return [
        f"{a}.{lv}" if n is None else f"{a}.{lv}.N{n}" for a, lv, n in _plan(workload, tiny)
    ]


# -- shared references ------------------------------------------------------


def _capacities(app: str) -> tuple[int, int]:
    """L1 and L2 capacities of the application's machine, in elements."""
    machine = machine_for(registry.get(app).machine_spec)
    return machine.l1.size_bytes // ELEM_BYTES, machine.l2.size_bytes // ELEM_BYTES


def _resolve_slice(ref: dict, origin) -> np.ndarray:
    """Apply a (possibly chained) split-array origin to original data."""
    chain = []
    step = origin
    while step is not None:
        chain.append(step)
        step = step.parent
    data = ref[chain[-1].name]
    for step in reversed(chain):
        data = np.take(data, step.index - 1, axis=step.dim)
    return data


def _check_values(wl: Workload, app: str, program, variant_program) -> None:
    """The compiled variant (codegen executor) equals the original (interpreter).

    A variant whose text was already checked in this process is not run
    again: equal text means equal outputs.
    """
    key = ("values-checked", str(variant_program))
    if key in wl.refs:
        return
    entry = registry.get(app)
    params = {"N": VALUE_N}
    ref = wl.reference(
        ("values", app),
        lambda: interp_run_program(program, params, seed=wl.seed, steps=entry.steps),
    )
    out = codegen_run_program(variant_program, params, seed=wl.seed, steps=entry.steps)
    for name, data in ref.items():
        if name in out:
            expect(np.array_equal(data, out[name]), f"{app}: array {name} differs")
            continue
        slices = [
            decl
            for decl in variant_program.arrays
            if decl.origin == name and decl.origin_slice is not None
        ]
        expect(bool(slices), f"{app}: array {name} is missing from the variant")
        for decl in slices:
            expected = _resolve_slice(ref, decl.origin_slice)
            expect(
                np.array_equal(expected, out[decl.name]),
                f"{app}: split array {decl.name} differs",
            )
    wl.refs[key] = True


def _static_total(wl: Workload, app: str, program, params: dict) -> int:
    """Accesses of the noopt variant, counted by the static model."""
    entry = registry.get(app)
    profile = wl.reference(
        ("static-total", app),
        lambda: analyze_program(compile_variant(program, "noopt").program, steps=entry.steps),
    )
    return int(profile.total_accesses().evaluate(params))


def _fa_misses(keys: np.ndarray, capacity: int) -> int:
    """Misses of a fully-associative LRU cache with one-element lines."""
    return int(np.count_nonzero(simulate_cache(CacheConfig("fa", capacity, 1, 0), keys)))


# -- measure ----------------------------------------------------------------


def record(out) -> dict:
    """The simulated output of a measure job, field for field."""
    if isinstance(out, list):  # scaling_sweep points
        return {"points": [dataclasses.asdict(point) for point in out]}
    return {"trace_length": out.trace_length, **dataclasses.asdict(out.stats)}


def _expect_reference(name: str, out, reference: dict) -> None:
    expect(name in reference, f"{name}: no entry in {REFERENCE.name}")
    got, want = record(out), reference[name]
    differ = sorted(k for k in want.keys() | got.keys() if got.get(k) != want.get(k))
    expect(not differ, f"{name}: {', '.join(differ)} differ from {REFERENCE.name}")


def _fig10_job(
    wl: Workload, app: str, level: str, n, programs: dict, membw: dict, reference: dict
) -> Job:
    """One Fig. 10 row; ``n`` None means registry sizes (checked against membw)."""
    params = None if n is None else {"N": n}
    name = f"{app}.{level}" if n is None else f"{app}.{level}.N{n}"

    def run_job(rec):
        with rec.span("harness.run"):
            return run(RunRequest(app, levels=level, params=params)).results[0]

    def check(result) -> dict:
        _expect_reference(name, result, reference)
        if params is None:
            row = bandwidth_record(app, level, result.stats)
            if level in ("noopt", "new"):
                want = membw[f"{app}/{level}"]
                for key, value in want.items():
                    expect(row[key] == value, f"{app}/{level}: {key} {row[key]} != {value}")
            accesses = membw[f"{app}/noopt"]["accesses"]
        else:
            accesses = _static_total(wl, app, programs[app], params)
        expect(
            result.stats.accesses == accesses and result.trace_length == accesses,
            f"{app}/{level}: traced {result.trace_length} accesses, noopt traces {accesses}",
        )
        _check_values(wl, app, programs[app], result.variant.program)
        if level == "noopt":
            return {}
        return {"sim": (result.stats.data_transferred_bytes, result.stats.seconds)}

    return Job(name, run_job, check)


def _scaling_job(
    wl: Workload, app: str, level: str, n: int, programs: dict, reference: dict
) -> Job:
    name = f"{app}.{level}.N{n}"

    def run_job(rec):
        with rec.span("harness.sweep"):
            return scaling_sweep(app, [level], [n])

    def check(points) -> dict:
        _expect_reference(name, points, reference)
        total = _static_total(wl, app, programs[app], {"N": n})
        for point in points:
            expect(point.accesses == total, f"{name}: {point.accesses} != {total}")
        return {}

    return Job(name, run_job, check)


# -- analyze ----------------------------------------------------------------


@dataclass
class Analysis:
    variant: object
    profile: object
    parallelism: object
    multicore: object
    coherence: object


def _analyze_job(wl: Workload, app: str, level: str, n: int, programs: dict) -> Job:
    entry = registry.get(app)
    params = {"N": n}
    steps = entry.steps
    name = f"{app}.{level}.N{params['N']}"

    def run_job(rec) -> Analysis:
        variant = compile_variant(programs[app], level, verify=True)
        program = variant.program
        with rec.span("static.reuse"):
            profile = analyze_program(program, steps=steps)
        with rec.span("static.parallelism"):
            par = analyze_parallelism(program, params)
        with rec.span("static.multicore"):
            pred = predict_multicore(profile, par, params, THREADS, SCHEDULE)
        with rec.span("static.coherence"):
            coh = analyze_coherence(
                program, params, threads=THREADS, schedule=SCHEDULE, steps=steps, parallelism=par
            )
        return Analysis(variant, profile, par, pred, coh)

    def reference(variant) -> dict:
        program = variant.program
        trace = codegen_trace_program(program, params, steps=steps)
        distances = reuse_distances(trace.global_keys())
        interleaved = interleave_trace(program, params, THREADS, steps=steps, schedule=SCHEDULE)
        msi = simulate_msi(
            np.asarray(interleaved.merged) // (L1_LINE_BYTES // ELEM_BYTES),
            np.asarray(interleaved.merged.writes, dtype=bool),
            interleaved.merged_threads,
            THREADS,
        )
        stats = simulate_hierarchy(
            trace, variant.layout(params), machine_for(entry.machine_spec)
        )
        return {
            "accesses": len(trace),
            "misses": [miss_count(distances, cap) for cap in _capacities(app)],
            "msi": msi,
            "sim": (stats.data_transferred_bytes, stats.seconds),
        }

    def check(out: Analysis) -> dict:
        ref = wl.reference(name, lambda: reference(out.variant))
        static_total = int(out.profile.total_accesses().evaluate(params))
        expect(static_total == ref["accesses"], f"{name}: static {static_total} != traced {ref['accesses']}")
        unknown = out.parallelism.by_verdict("unknown")
        expect(not unknown, f"{name}: {len(unknown)} unknown axes")
        msi, coh = ref["msi"], out.coherence
        expect(coh.accesses == msi.accesses, f"{name}: coherence accesses differ")
        expect(coh.cold == tuple(msi.cold.tolist()), f"{name}: cold misses differ")
        expect(
            coh.invalidations == tuple(msi.invalidations.tolist()),
            f"{name}: invalidations differ",
        )
        expect(coh.upgrades == msi.total_upgrades, f"{name}: upgrades differ")
        pred = [
            abs(out.profile.miss_count(params, cap) - exact) / exact
            for cap, exact in zip(_capacities(app), ref["misses"])
        ]
        summary = {"pred": pred}
        if level == "new":
            summary["sim"] = ref["sim"]
        return summary

    return Job(name, run_job, check)


# -- reuse ------------------------------------------------------------------


@dataclass
class ReuseCurves:
    #: (label, keys, distances) for every distance profile computed
    curves: list
    original: object
    reordered: object
    fused: Optional[tuple]


def _reuse_job(wl: Workload, app: str, n: int, fused: bool, programs: dict) -> Job:
    """Fig. 3 for one size; ``fused`` also compiles and profiles fusion."""
    entry = registry.get(app)
    params = {"N": n}
    name = f"{app}.reuse.N{n}"

    def distances(rec, label: str, trace, curves: list) -> None:
        with rec.span("locality.reuse"):
            keys = trace.global_keys()
            dist = reuse_distances(keys)
        rec.add("locality.accesses", len(keys))
        curves.append((label, keys, dist))

    def run_job(rec) -> ReuseCurves:
        program = programs[app]
        curves: list = []
        with rec.span("interp.trace"):
            trace = interp_trace_program(program, params, with_instr=True)
        distances(rec, "program order", trace, curves)
        with rec.span("reusedriven.order"):
            reordered = reuse_driven_order(trace)
        distances(rec, "reuse driven", reordered.trace, curves)
        fused_out = None
        if fused:
            variant = compile_variant(program, "fusion")
            with rec.span("interp.trace"):
                ftrace = interp_trace_program(variant.program, params)
            distances(rec, "reuse-based fusion", ftrace, curves)
            fused_out = (variant, ftrace)
        return ReuseCurves(curves, trace, reordered.trace, fused_out)

    def check(out: ReuseCurves) -> dict:
        for label, keys, dist in out.curves:
            for cap in _capacities(app):
                got, want = miss_count(dist, cap), _fa_misses(keys, cap)
                expect(got == want, f"{name} [{label}] capacity {cap}: {got} != {want}")
        before, after = out.original, out.reordered
        expect(len(before) == len(after), f"{name}: reordered trace has {len(after)} accesses")
        expect(
            np.array_equal(np.sort(_access_codes(before)), np.sort(_access_codes(after))),
            f"{name}: reordered trace is not a permutation of the original",
        )
        if out.fused is None:
            return {}
        variant, ftrace = out.fused
        stats = simulate_hierarchy(ftrace, variant.layout(params), machine_for(entry.machine_spec))
        return {"sim": (stats.data_transferred_bytes, stats.seconds)}

    return Job(name, run_job, check)


def _access_codes(trace) -> np.ndarray:
    """One integer per access: its datum and whether it writes."""
    return trace.global_keys() * 2 + np.asarray(trace.writes, dtype=np.int64)


# -- set-up -----------------------------------------------------------------


def build(workload: str, seed: int, root: Path, tiny: bool = False) -> Workload:
    """Set up ``workload``: build its programs, load references, list jobs."""
    wl = Workload(workload, seed)
    plan = _plan(workload, tiny)
    programs = {a: validate(registry.get(a).build()) for a in dict.fromkeys(a for a, _, _ in plan)}
    if workload == "measure":
        membw = json.loads((root / "BENCH_membw.json").read_text())["results"]
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        fig10 = len(FIG10_APPS) * len(FIG10_LEVELS)
        wl.jobs = [
            _fig10_job(wl, a, lv, n, programs, membw, reference) for a, lv, n in plan[:fig10]
        ]
        wl.jobs += [
            _scaling_job(wl, a, lv, n, programs, reference) for a, lv, n in plan[fig10:]
        ]
    elif workload == "analyze":
        wl.jobs = [_analyze_job(wl, a, lv, n, programs) for a, lv, n in plan]
    else:
        last = {a: n for a, _, n in plan}
        wl.jobs = [_reuse_job(wl, a, n, a == "sp" and n == last[a], programs) for a, _, n in plan]
    return wl
