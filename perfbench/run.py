"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload measure --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is the separate
traced run that reports per-layer self times (see ``perfbench/README.md``).
The load is a closed loop in one process: each job starts when the
previous one returns.  The seed permutes the job order of every pass
and seeds the inputs of the value checks.  ``--out FILE`` also appends
the result, tagged with workload, seed and trace flag, to a JSON-lines
file that ``perfbench/compare.py`` reads.

The last line of standard output is the result object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import ctypes
import functools
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

from tracing import CLOCK

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: set-up is repeated this many times, each in a fresh interpreter;
#: setup_s reports the median
SETUP_REPEATS = 5
#: one set-up: imports, program builds, references, job list
SETUP_PROBE = """\
import sys
from pathlib import Path
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.build({workload!r}, {seed!r}, Path({root!r}))
"""
#: passes traced in a --trace 1 run get this share of --seconds
TRACED_SHARE = 0.5
WORKLOADS = ("measure", "analyze", "reuse")

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_rate", "ratio"),
    ("sim_traffic_mb", "MB"),
    ("sim_time_s", "sim_s"),
)
PASSES = ("inline", "unroll", "split_arrays", "distribute", "constprop", "simplify", "fusion", "regroup")
LAYERS = (
    *((f"core.{p}_s", "s") for p in PASSES),
    ("core.loops_out", "count"),
    ("core.analysis_cache_hit_rate", "ratio"),
    ("verify.check_s", "s"),
    ("verify.snapshots", "count"),
    ("verify.s_per_snapshot", "s"),
    ("codegen.trace_s", "s"),
    ("codegen.accesses_per_s", "1/s"),
    ("codegen.fallback_share", "ratio"),
    ("stream.addresses_s", "s"),
    ("stream.peak_mb", "MB"),
    ("memsim.l1_s", "s"),
    ("memsim.l2_s", "s"),
    ("memsim.tlb_s", "s"),
    ("memsim.dram_s", "s"),
    ("memsim.accesses_per_s", "1/s"),
    ("memsim.scalar_fallback_share", "ratio"),
    ("memsim.peak_mb", "MB"),
    ("memsim.bytes_per_access", "B"),
    ("interp.trace_s", "s"),
    ("locality.reuse_s", "s"),
    ("locality.accesses_per_s", "1/s"),
    ("reusedriven.order_s", "s"),
    ("static.reuse_s", "s"),
    ("static.reuse_refs", "count"),
    ("static.reuse_components", "count"),
    ("static.parallelism_s", "s"),
    ("static.axes", "count"),
    ("static.multicore_s", "s"),
    ("static.coherence_s", "s"),
    ("static.pred_err", "ratio"),
    ("harness.overhead_s", "s"),
    ("bench.traced_pass_s", "s"),
    ("bench.trace_overhead", "ratio"),
)

#: the self-time metrics; together they cover a traced pass
SELF_TIMES = (
    *(f"core.{p}_s" for p in PASSES),
    "verify.check_s",
    "codegen.trace_s",
    "stream.addresses_s",
    *(f"memsim.{level}_s" for level in ("l1", "l2", "tlb", "dram")),
    "interp.trace_s",
    "locality.reuse_s",
    "reusedriven.order_s",
    *(f"static.{a}_s" for a in ("reuse", "parallelism", "multicore", "coherence")),
    "harness.overhead_s",
)


def per_layer_metrics() -> list:
    """Every per-layer metric as (name, unit): layers, then one row per job."""
    from workloads import job_names

    jobs = [(f"job.{name}_s", "s") for workload in WORKLOADS for name in job_names(workload)]
    return list(LAYERS) + jobs


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the tagged result to this JSON-lines file")
    return parser.parse_args(argv)


def isolate(scratch: Path) -> None:
    """Keep a warm cache or a stray variable from changing what runs."""
    for var in ("REPRO_ENGINE", "REPRO_TRACE_ENGINE"):
        os.environ.pop(var, None)
    # no BLAS worker threads: their start-up and spinning would count
    # as this process's CPU time (set before numpy is first imported)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "cache")
    os.environ["REPRO_RUNS_DIR"] = str(scratch / "runs")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


# -- peak resident memory ----------------------------------------------------


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where there is none."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return None
    trim = libc.malloc_trim
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def settle() -> None:
    """Free what earlier jobs left behind, so that a job's peak memory and
    time do not depend on which jobs ran before it."""
    gc.collect()
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def reset_peak_rss() -> None:
    """Reset the kernel's high-water mark of this process (Linux 4.0+).

    Where that is refused the mark stays the process's lifetime peak.
    """
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mib() -> float:
    """``VmHWM`` in MiB; ``ru_maxrss`` where /proc is unavailable."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- the closed loop ---------------------------------------------------------


class Runner:
    """Runs passes over a workload's jobs and keeps what they measured."""

    def __init__(self, workload, rec):
        self.workload = workload
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self.peak_mib = 0.0
        self.job_seconds = {job.name: [] for job in workload.jobs}
        self.answers = None
        #: metrics-registry counters moved by the jobs (checks excluded)
        self.counters = {}

    def run_pass(self, order) -> float:
        """One pass over ``order``; returns its timed seconds."""
        from repro.obs import metrics

        total = 0.0
        summaries = {}
        for job in order:
            self.attempted += 1
            self.rec.job = job.name
            settle()
            reset_peak_rss()
            before = metrics.snapshot()
            t0 = CLOCK()
            try:
                with self.rec.span("job"):
                    out = job.run(self.rec)
            except Exception:
                seconds = CLOCK() - t0
                print(f"job {job.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
                self.failed += 1
                total += seconds
                continue
            seconds = CLOCK() - t0
            self.peak_mib = max(self.peak_mib, peak_rss_mib())
            moved = metrics.REGISTRY.delta(before, metrics.snapshot())["counters"]
            for name, value in moved.items():
                self.counters[name] = self.counters.get(name, 0) + value
            total += seconds
            self.job_seconds[job.name].append(seconds)
            try:
                summaries[job.name] = job.check(out)
            except Exception:
                print(f"job {job.name} failed its check:\n{traceback.format_exc()}", file=sys.stderr)
                self.failed += 1
            del out
        self.answers = self.workload.answers(summaries)
        return total

    def loop(self, seconds: float, rng) -> list:
        """Closed loop: whole passes until ``seconds`` are timed; at least one."""
        jobs = list(self.workload.jobs)
        times = []
        while not times or sum(times) < seconds:
            rng.shuffle(jobs)
            times.append(self.run_pass(jobs))
        return times


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(workload: str, seed: int) -> float:
    """Median CPU seconds of a fresh interpreter setting the workload up."""
    code = SETUP_PROBE.format(
        src=str(ROOT / "src"), here=str(HERE), workload=workload, seed=seed, root=str(ROOT)
    )
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = _children_cpu()
        subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
        times.append(_children_cpu() - t0)
    return statistics.median(times)


def end_to_end(wl, seconds: float) -> tuple:
    """The untraced run: (runner, end-to-end values without setup_s)."""
    from tracing import NullRecorder

    runner = Runner(wl, NullRecorder())
    times = runner.loop(seconds, random.Random(wl.seed))
    values = {
        "pass_s": statistics.median(times),
        "peak_rss_mb": runner.peak_mib,
        "ok_rate": (runner.attempted - runner.failed) / runner.attempted,
        "sim_traffic_mb": runner.answers["sim_traffic_mb"],
        "sim_time_s": runner.answers["sim_time_s"],
    }
    print(f"{wl.name}: {len(times)} passes, pass seconds {times}", file=sys.stderr)
    return runner, values


def traced(wl, seconds: float) -> tuple:
    """The traced run: (runner, per-layer values, recorder).

    Untraced passes for ``TRACED_SHARE`` of ``seconds`` (job rows and
    the trace-overhead base), traced passes for the rest, then one
    memory pass over the jobs that reached ``stream`` or ``memsim``.
    """
    from tracing import NullRecorder, SpanRecorder, instrument

    rng = random.Random(wl.seed)
    budget = seconds * TRACED_SHARE
    untraced = Runner(wl, NullRecorder())
    plain = untraced.loop(budget, rng)

    rec = SpanRecorder()
    runner = Runner(wl, rec)
    per_pass = []
    jobs = list(wl.jobs)
    with instrument(rec):
        while not per_pass or sum(p["bench.traced_pass_s"] for p in per_pass) < budget:
            rng.shuffle(jobs)
            lo, counters, moved = len(rec.spans), dict(rec.counters), dict(runner.counters)
            seconds = runner.run_pass(jobs)
            delta = {k: v - moved.get(k, 0) for k, v in runner.counters.items()}
            per_pass.append(_layer_values(rec, lo, counters, delta, seconds))
        rec.memory = True
        memory_jobs = [j for j in wl.jobs if j.name in rec.memory_jobs]
        if memory_jobs:
            Runner(wl, rec).run_pass(memory_jobs)
    values = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    values["static.pred_err"] = runner.answers["pred_err"]
    values["stream.peak_mb"] = rec.peaks.get("stream", 0) / 1e6
    values["memsim.peak_mb"] = rec.peaks.get("memsim", 0) / 1e6
    values["memsim.bytes_per_access"] = rec.peaks.get("memsim.per_access", 0.0)
    values["bench.trace_overhead"] = values["bench.traced_pass_s"] / statistics.median(plain)
    for name, times in untraced.job_seconds.items():
        values[f"job.{name}_s"] = statistics.median(times) if times else 0.0
    print(f"{wl.name}: {len(plain)} untraced and {len(per_pass)} traced passes", file=sys.stderr)
    runner.attempted += untraced.attempted
    runner.failed += untraced.failed
    return runner, values, rec


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_values(rec, lo: int, counters_before: dict, delta: dict, seconds: float) -> dict:
    """Per-layer numbers of one traced pass (spans from index ``lo`` on)."""
    own = rec.self_times(lo)
    count = {k: rec.counters.get(k, 0.0) - counters_before.get(k, 0.0) for k in rec.counters}
    snapshots = sum(1 for sp in rec.spans[lo:] if sp.name == "verify.snapshot")
    values = {"bench.traced_pass_s": seconds}
    for p in PASSES:
        values[f"core.{p}_s"] = own.get(f"core.{p}", 0.0)
    values["core.loops_out"] = count.get("core.loops_out", 0.0)
    hits = delta.get("analysis.cache.hits", 0)
    values["core.analysis_cache_hit_rate"] = _ratio(hits, hits + delta.get("analysis.cache.misses", 0))
    values["verify.check_s"] = own.get("verify.check", 0.0) + own.get("verify.snapshot", 0.0)
    values["verify.snapshots"] = snapshots
    values["verify.s_per_snapshot"] = _ratio(values["verify.check_s"], snapshots)
    values["codegen.trace_s"] = own.get("codegen.trace", 0.0)
    values["codegen.accesses_per_s"] = _ratio(count.get("codegen.accesses", 0.0), values["codegen.trace_s"])
    values["codegen.fallback_share"] = _ratio(
        delta.get("codegen.trace.nests.fallback", 0), delta.get("codegen.trace.nests", 0)
    )
    values["stream.addresses_s"] = own.get("stream.addresses", 0.0)
    for level in ("l1", "l2", "tlb", "dram"):
        values[f"memsim.{level}_s"] = count.get(f"memsim.{level}_s", 0.0)
    values["memsim.accesses_per_s"] = _ratio(count.get("memsim.accesses", 0.0), own.get("memsim.simulate", 0.0))
    values["memsim.scalar_fallback_share"] = _ratio(
        delta.get("engine.fast.scalar_fallback", 0) + delta.get("engine.fast.fa_scalar_fallback", 0),
        delta.get("engine.fast.calls", 0),
    )
    values["interp.trace_s"] = own.get("interp.trace", 0.0)
    values["locality.reuse_s"] = own.get("locality.reuse", 0.0)
    values["locality.accesses_per_s"] = _ratio(count.get("locality.accesses", 0.0), values["locality.reuse_s"])
    values["reusedriven.order_s"] = own.get("reusedriven.order", 0.0)
    values["static.reuse_s"] = own.get("static.reuse", 0.0)
    values["static.reuse_refs"] = delta.get("analysis.static.refs", 0)
    values["static.reuse_components"] = delta.get("analysis.static.components", 0)
    values["static.parallelism_s"] = own.get("static.parallelism", 0.0)
    values["static.axes"] = delta.get("analysis.parallelism.axes", 0)
    values["static.multicore_s"] = own.get("static.multicore", 0.0)
    values["static.coherence_s"] = own.get("static.coherence", 0.0)
    values["harness.overhead_s"] = sum(
        own.get(name, 0.0) for name in ("job", "harness.run", "harness.sweep")
    )
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    try:
        isolate(scratch)
        from workloads import build

        if args.trace:
            wl = build(args.workload, args.seed, ROOT)
            runner, values, rec = traced(wl, args.seconds)
            spans = ROOT / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            spans.write_text(json.dumps([sp.as_dict() for sp in rec.spans]))
            names = per_layer_metrics()
        else:
            setup_s = setup_seconds(args.workload, args.seed)
            wl = build(args.workload, args.seed, ROOT)
            runner, values = end_to_end(wl, args.seconds)
            values["setup_s"] = setup_s
            names = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in names},
    }
    if args.out is not None:
        tagged = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result}
        with open(args.out, "a") as f:
            f.write(json.dumps(tagged) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
