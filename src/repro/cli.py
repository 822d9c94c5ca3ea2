"""Command-line front end: the source-to-source tool as a tool.

Subcommands:

* ``fuse FILE``      — parse a mini-language file, run an optimization
  level (default: the paper's full strategy), print the transformed source;
* ``regroup FILE``   — print the data-regrouping decision and, given ``-p
  N=...``, the concrete placements;
* ``report APP``     — Fig. 10-style measurement of a bundled application
  (or a file) across optimization levels on the scaled machine;
* ``profile APP``    — run one (program, level, params) and print the
  nested stage/pass span tree (seconds + peak MB) plus metric deltas;
* ``runs``           — list and summarize past ``runs/<id>/events.jsonl``
  run logs;
* ``levels``         — list the optimization levels;
* ``apps``           — list the bundled benchmark applications;
* ``bench-engine``   — time the fast vs. reference simulation engines on
  one application and assert their metrics are bit-identical;
* ``bench-codegen``  — time the interpreter vs. codegen trace backends
  across applications and assert the traces are bit-identical
  (``--json-out BENCH_codegen.json`` records the payload);
* ``cache``          — inspect or clear the on-disk trace/result cache;
* ``lint``           — static IR verification of a program (structure,
  loop bounds, subscript bounds, def-use hygiene); ``--static`` adds the
  predictive S3xx locality lints and the R5xx parallelism/race lints,
  ``--explain CODE`` documents any diagnostic code;
* ``static-reuse``   — the symbolic (trace-free) reuse profile of a
  program: per-reference distance polynomials, predicted histogram and
  evadable classes at any input size;
* ``parallelism``    — dependence-based parallelism analysis: classify
  every loop axis DOALL / reduction / serial (with a concrete race
  witness for serial axes); ``--threads T`` adds the per-thread
  private-cache + shared-cache reuse prediction;
* ``verify-pass``    — certify that every pass of an optimization level
  preserves the program's dependence structure;
* ``pipeline``       — introspect the pass-pipeline registry (``--json``
  emits the machine-readable pipeline-description schema);
* ``tune``           — static-profile-driven pipeline autotuning: rank
  legal candidate pipelines by predicted misses, dynamically validate
  the top-k frontier, and gate the committed ``BENCH_tune.json``
  artifact with ``--check``.

Examples::

    python -m repro fuse kernel.loop --level fusion
    python -m repro regroup kernel.loop -p N=512
    python -m repro report adi --levels noopt,fusion,new --verify
    python -m repro profile adi --level new --params N=200
    python -m repro profile adi --level new --json
    python -m repro runs
    python -m repro bench-engine adi
    python -m repro cache --clear
    python -m repro lint kernel.loop --json
    python -m repro lint --static --all-apps --baseline lint-baseline.json
    python -m repro lint --explain S301
    python -m repro static-reuse adi -p N=256
    python -m repro static-reuse adi --level fusion --json
    python -m repro parallelism adi --level fusion
    python -m repro parallelism --all-apps --check
    python -m repro parallelism swim --threads 4 --schedule dynamic
    python -m repro verify-pass adi --level new
    python -m repro verify-pass --before a.loop --after b.loop
    python -m repro pipeline --json
    python -m repro tune tomcatv --top-k 3
    python -m repro tune --all-apps --json-out BENCH_tune.json
    python -m repro tune --check --baseline BENCH_tune.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

from .core import OPT_LEVELS, compile_pipeline, compile_variant
from .core.pm import (
    PIPELINES,
    custom_pipeline,
    describe_pipeline,
    known_levels,
    lint_passes,
    resolve_pipeline,
)
from .harness import (
    NORMALIZED_HEADERS,
    TIMING_HEADERS,
    RunRequest,
    TraceCache,
    format_table,
    machine_for,
    merge_json_artifact,
    normalized_rows,
    run,
    timing_rows,
)
from .lang import Program, ReproError, parse, to_source, validate
from .memsim import ENGINES
from .obs import (
    REGISTRY,
    SCHEMA_VERSION,
    MetricsRegistry,
    SpanCollector,
    TraceConfig,
    format_metric_delta,
    format_span_tree,
    list_runs,
    summarize_run,
    validate_event,
)
from .programs import APPLICATIONS, registry
from .programs.registry import MachineSpec
from .tune import ENABLERS as TUNE_ENABLERS
from .verify import PassLegalityError, PassVerifier, Severity, lint_program, verify_pass


def _load_program(path: str) -> Program:
    source = Path(path).read_text()
    return validate(parse(source))


def _parse_params(items: Optional[Sequence[str]]) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in items or ():
        name, _, value = item.partition("=")
        if not value:
            raise SystemExit(f"bad parameter {item!r}; expected NAME=INT")
        out[name] = int(value)
    return out


def _parse_passes(args: argparse.Namespace):
    """The ``--passes a,b,c`` override as a pipeline spec (or None)."""
    names = getattr(args, "passes", None)
    if not names:
        return None
    return custom_pipeline([n.strip() for n in names.split(",")])


def cmd_fuse(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    variant = compile_variant(program, args.level)
    print(to_source(variant.program), end="")
    if variant.fusion_report is not None and args.verbose:
        print("\n# " + variant.fusion_report.summary().replace("\n", "\n# "),
              file=sys.stderr)
    return 0


def cmd_regroup(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    variant = compile_variant(program, args.level)
    if variant.regroup is None:
        print("optimization level produced no regrouping plan", file=sys.stderr)
        return 1
    print(variant.regroup.describe())
    params = _parse_params(args.param)
    if params:
        layout = variant.layout(params)
        print(f"\nplacements at {params} (element offsets / strides):")
        for name, placement in sorted(layout.placements.items()):
            print(f"  {name}: offset {placement.offset}, strides {placement.strides}")
    return 0


def _resolve_measure_target(args: argparse.Namespace):
    """The shared (program, params, machine, steps) resolution for every
    measuring subcommand: registry names keep registry defaults, files
    require explicit parameters and get the default scaled machine."""
    params = _parse_params(args.param) or None
    if args.target in APPLICATIONS:
        return args.target, params, None, args.steps
    program = _load_program(args.target)
    if params is None:
        raise SystemExit("measuring a file requires -p NAME=INT")
    steps = args.steps if args.steps is not None else 1
    return program, params, machine_for(MachineSpec()), steps


def cmd_report(args: argparse.Namespace) -> int:
    pipeline = _parse_passes(args)
    levels = args.levels.split(",")
    if pipeline is None:
        unknown = [lv for lv in levels if lv not in known_levels()]
        if unknown:
            raise SystemExit(
                f"unknown levels: {unknown}; known levels: "
                f"{', '.join(known_levels())} (see 'repro levels')"
            )
    cache = TraceCache(args.cache_dir) if args.cache else None
    program, params, machine, steps = _resolve_measure_target(args)
    results = run(
        RunRequest(
            program=program,
            levels=levels,
            pipeline=pipeline,
            params=params,
            machine=machine,
            steps=steps,
            engine=args.engine,
            cache=cache,
            verify=args.verify,
        )
    ).results
    if isinstance(program, str):
        title = f"{program} (registry application, scaled machine)"
    else:
        title = f"{program.name} ({args.target})"
    print(format_table(NORMALIZED_HEADERS, normalized_rows(results), title=title))
    if args.bandwidth:
        from .memsim import BANDWIDTH_HEADERS, bandwidth_rows

        print()
        print(
            format_table(
                BANDWIDTH_HEADERS,
                bandwidth_rows(results),
                title="effective bandwidth (memory traffic, DRAM row "
                "buffer, energy)",
            )
        )
    if args.parallelism:
        print()
        print(_parallelism_table(program, results, args.threads))
    if args.coherence:
        print()
        print(_coherence_table(program, results, args.threads))
    if args.timings:
        print()
        print(
            format_table(
                TIMING_HEADERS,
                timing_rows(results),
                title="per-stage seconds ('-' = served from cache)",
            )
        )
    return 0


def _parallelism_table(program, results, threads: int) -> str:
    """Per-level axis verdicts + predicted multicore misses for a report."""
    from .static import analyze_parallelism, predict_program_multicore

    target = program if isinstance(program, str) else program.name
    l1, l2 = _cache_elems(target)
    steps = _lint_steps(target)
    headers = (
        "level", "doall", "reduction", "serial", "par nests",
        f"L1p misses ({l1})", f"L2s misses ({l2})",
    )
    rows: list[list[object]] = []
    for r in results:
        if r.variant is None:
            continue
        prof = analyze_parallelism(r.variant.program, r.params)
        pred = predict_program_multicore(
            r.variant.program, dict(prof.params), threads=threads, steps=steps
        )
        counts = prof.counts()
        outer = sum(1 for v in prof.verdicts if v.depth == 0)
        rows.append([
            r.level,
            counts["doall"],
            counts["reduction"],
            counts["serial"],
            f"{len(prof.parallel_nests())}/{outer}",
            f"{pred.private_miss_count(l1):.0f}",
            f"{pred.shared_miss_count(l2):.0f}",
        ])
    return format_table(
        headers, rows,
        title=f"parallelism & multicore prediction "
        f"({threads} threads, static schedule)",
    )


def _coherence_table(program, results, threads: int) -> str:
    """Per-level predicted coherence behaviour for a report."""
    from .lang import AnalysisError
    from .static import analyze_coherence

    target = program if isinstance(program, str) else program.name
    steps = _lint_steps(target)
    headers = (
        "level", "invalidations", "true", "false",
        "shared lines", "upgrades",
    )
    rows: list[list[object]] = []
    for r in results:
        if r.variant is None:
            continue
        try:
            prof = analyze_coherence(
                r.variant.program, dict(r.params), threads=threads,
                steps=steps, witnesses=False,
            )
        except AnalysisError:
            rows.append([r.level, "-", "-", "-", "-", "-"])
            continue
        rows.append([
            r.level,
            prof.total_invalidations,
            prof.true_invalidations,
            prof.false_invalidations,
            sum(a.shared_lines for a in prof.arrays),
            prof.upgrades,
        ])
    return format_table(
        headers, rows,
        title=f"coherence prediction ({threads} threads, static schedule, "
        f"line granularity)",
    )


def cmd_bench_engine(args: argparse.Namespace) -> int:
    """Time fast vs. reference engines; fail unless metrics are identical."""
    levels = args.levels.split(",")
    entry = registry.get(args.app)
    machine = machine_for(entry.machine_spec)
    params = _parse_params(args.param) or None

    headers = ("level", "engine", "l1", "l2", "tlb", "sim total")
    rows: list[list[object]] = []
    totals = dict.fromkeys(ENGINES, 0.0)
    identical = True
    sim_stages = ("l1", "l2", "tlb")
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        # a throwaway trace cache: repeats replay the address stream from
        # disk; result_cache=False forces every repeat to re-simulate
        cache = TraceCache(tmp)
        for level in levels:
            stats_by = {}
            for engine in ("reference", "fast"):
                best, best_timings, best_stats = float("inf"), {}, None
                for _ in range(args.repeats):
                    result = run(
                        RunRequest(
                            program=args.app,
                            levels=(level,),
                            params=params,
                            steps=args.steps,
                            engine=engine,
                            cache=cache,
                            result_cache=False,
                        )
                    ).results[0]
                    elapsed = sum(result.timings.get(s, 0.0) for s in sim_stages)
                    if elapsed < best:
                        best, best_timings = elapsed, result.timings
                        best_stats = result.stats
                stats_by[engine] = best_stats
                totals[engine] += best
                rows.append(
                    [level, engine]
                    + [best_timings.get(s, 0.0) for s in sim_stages]
                    + [best]
                )
            if stats_by["fast"] != stats_by["reference"]:
                identical = False
                print(f"ENGINE MISMATCH at level {level}:", file=sys.stderr)
                print(f"  reference: {stats_by['reference']}", file=sys.stderr)
                print(f"  fast:      {stats_by['fast']}", file=sys.stderr)

    shown_params = dict(params) if params else dict(entry.default_params)
    title = (
        f"{args.app} engine comparison ({machine.name}, params {shown_params}, "
        f"best of {args.repeats}; seconds)"
    )
    print(format_table(headers, rows, title=title))
    speedup = totals["reference"] / totals["fast"] if totals["fast"] else 0.0
    print(
        f"\nmetrics bit-identical across engines: {identical}\n"
        f"sim wall-clock: reference {totals['reference']:.3f}s, "
        f"fast {totals['fast']:.3f}s -> {speedup:.2f}x speedup"
    )
    return 0 if identical else 1


def cmd_bench_codegen(args: argparse.Namespace) -> int:
    """Time the interpreter vs. codegen tracers; assert traces identical.

    Measures end-to-end ``trace_program`` wall-clock (compile excluded,
    trace construction included) at the registry's default — fig-10 —
    sizes, best of ``--repeats``.  Writes the machine-readable
    ``BENCH_codegen.json`` payload with ``--json-out``.
    """
    import numpy as np

    from .codegen import trace_fingerprint
    from .codegen import trace_program as codegen_trace
    from .interp import trace_program as interp_trace

    apps = args.apps.split(",")
    levels = args.levels.split(",")
    headers = ("program", "level", "accesses", "interp", "codegen", "speedup")
    rows: list[list[object]] = []
    records: list[dict[str, object]] = []
    totals = {"interp": 0.0, "codegen": 0.0}
    identical = True
    for app in apps:
        entry = registry.get(app)
        params = _parse_params(args.param) or dict(entry.default_params)
        steps = args.steps if args.steps is not None else entry.steps
        program = validate(entry.build())
        for level in levels:
            variant = compile_variant(program, level)
            times: dict[str, float] = {}
            traces: dict[str, object] = {}
            for tracer, fn in (("interp", interp_trace), ("codegen", codegen_trace)):
                best = float("inf")
                for _ in range(args.repeats):
                    t0 = time.perf_counter()
                    trace = fn(variant.program, params, steps=steps)
                    best = min(best, time.perf_counter() - t0)
                times[tracer], traces[tracer] = best, trace
            a, b = traces["interp"], traces["codegen"]
            same = (
                a.array_names == b.array_names
                and a.array_sizes == b.array_sizes
                and all(
                    np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("array_ids", "elems", "writes", "ref_ids")
                )
            )
            if not same:
                identical = False
                print(f"TRACE MISMATCH at {app}/{level}", file=sys.stderr)
            totals["interp"] += times["interp"]
            totals["codegen"] += times["codegen"]
            speedup = times["interp"] / times["codegen"] if times["codegen"] else 0.0
            rows.append(
                [app, level, len(a), times["interp"], times["codegen"],
                 f"{speedup:.1f}x"]
            )
            records.append(
                {
                    "program": app,
                    "level": level,
                    "params": params,
                    "steps": steps,
                    "accesses": len(a),
                    "interp_seconds": round(times["interp"], 6),
                    "codegen_seconds": round(times["codegen"], 6),
                    "speedup": round(speedup, 2),
                    "identical": same,
                    "fingerprint": trace_fingerprint(a),
                }
            )
    overall = totals["interp"] / totals["codegen"] if totals["codegen"] else 0.0
    print(
        format_table(
            headers, rows,
            title=f"tracer comparison (best of {args.repeats}; seconds)",
        )
    )
    print(
        f"\ntraces bit-identical across tracers: {identical}\n"
        f"trace-gen wall-clock: interp {totals['interp']:.3f}s, "
        f"codegen {totals['codegen']:.3f}s -> {overall:.2f}x speedup"
    )
    if args.json_out:
        merged = merge_json_artifact(
            args.json_out,
            {f"{r['program']}/{r['level']}": r for r in records},
            {
                "benchmark": "trace-generation: interpreter vs codegen backend",
                "repeats": args.repeats,
                "overall_speedup": round(overall, 2),
                "identical": identical,
            },
            key="results",
        )
        print(f"wrote {args.json_out} ({len(merged)} variant(s))")
    return 0 if identical else 1


def _resolve_trace_target(args: argparse.Namespace):
    """(program, params, steps, machine) for the trace subcommands."""
    params = _parse_params(args.param) or None
    try:
        entry = registry.get(args.target)
    except KeyError:
        entry = None
    if entry is not None:
        program = validate(entry.build())
        return (
            program,
            dict(params or entry.default_params),
            args.steps if args.steps is not None else entry.steps,
            machine_for(entry.machine_spec),
        )
    if args.target == "fft":
        from .programs.registry import build_fft

        n = (params or {}).get("n", 64)
        return (
            validate(build_fft(n)),
            {},
            args.steps if args.steps is not None else 1,
            machine_for(MachineSpec()),
        )
    program = _load_program(args.target)
    if params is None:
        raise SystemExit("tracing a source file requires -p NAME=INT")
    steps = args.steps if args.steps is not None else 1
    return program, params, steps, machine_for(MachineSpec())


def cmd_trace_export(args: argparse.Namespace) -> int:
    """Trace one (program, level) and write the address stream to disk."""
    from .codegen import trace_program
    from .stream import AddressStream, write_stream, write_stream_csv

    program, params, steps, _ = _resolve_trace_target(args)
    variant = compile_variant(program, args.level)
    layout = variant.layout(params)
    trace = trace_program(variant.program, params, steps=steps)
    stream = AddressStream.from_trace(
        trace, layout, name=f"{program.name}/{args.level}", source="codegen"
    )
    out = Path(args.output)
    as_csv = args.format == "csv" or (args.format == "auto" and out.suffix == ".csv")
    if as_csv:
        write_stream_csv(out, stream)
    else:
        write_stream(out, stream)
    print(
        f"wrote {out} ({'csv' if as_csv else 'binary'}): {len(stream):,} "
        f"accesses, {int(stream.writes.sum()):,} writes, "
        f"fingerprint {stream.fingerprint()}"
    )
    return 0


def _warn_missing_geometry(stream) -> None:
    if not stream.meta.has_geometry:
        print(
            "S501 trace imported without geometry metadata: simulating "
            "under the shared machine geometry (32 B L1 / 128 B L2 lines, "
            "8 B elements); see 'repro lint --explain S501'",
            file=sys.stderr,
        )


def cmd_trace_import(args: argparse.Namespace) -> int:
    """Load a stream from disk (ours or foreign CSV) and simulate it."""
    from .memsim import (
        BANDWIDTH_HEADERS,
        MACHINES,
        bandwidth_row,
        simulate_stream,
    )
    from .stream import StreamFormatError, read_stream

    try:
        stream = read_stream(args.file)
    except (OSError, StreamFormatError, ValueError) as exc:
        raise SystemExit(f"cannot read {args.file}: {exc}")
    _warn_missing_geometry(stream)
    if args.machine:
        machine = MACHINES[args.machine]()
    elif args.app:
        machine = machine_for(registry.get(args.app).machine_spec)
    else:
        machine = machine_for(MachineSpec())
    stats = simulate_stream(stream, machine, engine=args.engine)
    print(f"{args.file}: {stream!r}")
    print(
        f"{machine.name}: L1 misses {stats.l1_misses:,}, "
        f"L2 misses {stats.l2_misses:,}, TLB misses {stats.tlb_misses:,}, "
        f"writebacks {stats.l2_writebacks:,}"
    )
    print(
        format_table(
            BANDWIDTH_HEADERS,
            [bandwidth_row(stream.meta.name, stats)],
            title="effective bandwidth",
        )
    )
    if args.reuse:
        from .locality import reuse_distances

        elem = stream.meta.elem_bytes or 8
        ids = (
            stream.addresses // elem
            if stream.meta.unit == "bytes"
            else stream.addresses
        )
        distances = reuse_distances(ids)
        cold = int((distances == -1).sum())
        reuse = distances[distances != -1]
        mean = float(reuse.mean()) if len(reuse) else 0.0
        print(
            f"exact reuse (element granularity): {len(reuse):,} reuses, "
            f"{cold:,} cold, mean distance {mean:,.1f}"
        )
    return 0


def cmd_trace_info(args: argparse.Namespace) -> int:
    """Print a stream file's metadata without simulating it."""
    from .stream import StreamFormatError, read_stream

    try:
        stream = read_stream(args.file)
    except (OSError, StreamFormatError, ValueError) as exc:
        raise SystemExit(f"cannot read {args.file}: {exc}")
    meta = stream.meta
    print(f"{args.file}: {stream!r}")
    print(f"  fingerprint: {stream.fingerprint()}")
    print(f"  meta: {json.dumps(meta.to_json(), sort_keys=True)}")
    if not meta.has_geometry:
        print("  geometry: MISSING (S501) - simulation will assume defaults")
    return 0


#: the §6 program set ``bench-membw`` reports by default
MEMBW_APPS = "swim,tomcatv,adi,sp,sweep3d,fft"


def _membw_results(app: str, levels: list[str], args: argparse.Namespace):
    """Measured VariantResults for one bench-membw program."""
    if app == "fft":
        from .programs.registry import build_fft

        request = RunRequest(
            program=validate(build_fft()),  # the study kernel at DEFAULT_N
            levels=tuple(levels),
            params={},
            steps=1,
            engine=args.engine,
            name="fft",
        )
    else:
        request = RunRequest(
            program=app, levels=tuple(levels), engine=args.engine
        )
    return run(request).results


def _membw_roundtrip(args: argparse.Namespace) -> list[str]:
    """Export -> import -> re-simulate must reproduce the direct stats."""
    from .codegen import trace_program
    from .memsim import simulate_stream
    from .stream import (
        AddressStream,
        read_stream,
        write_stream,
        write_stream_csv,
    )

    failures: list[str] = []
    entry = registry.get("adi")
    program = validate(entry.build())
    variant = compile_variant(program, "new")
    params = dict(entry.default_params)
    layout = variant.layout(params)
    trace = trace_program(variant.program, params, steps=entry.steps)
    stream = AddressStream.from_trace(
        trace, layout, name="adi/new", source="codegen"
    )
    machine = machine_for(entry.machine_spec)
    direct = simulate_stream(stream, machine, engine=args.engine)
    with tempfile.TemporaryDirectory(prefix="repro-membw-") as tmp:
        for fmt, writer in (("binary", write_stream), ("csv", write_stream_csv)):
            path = Path(tmp) / ("t.ast" if fmt == "binary" else "t.csv")
            writer(path, stream)
            loaded = read_stream(path)
            if loaded.fingerprint() != stream.fingerprint():
                failures.append(f"round-trip ({fmt}): stream fingerprint changed")
                continue
            replayed = simulate_stream(loaded, machine, engine=args.engine)
            if replayed != direct:
                failures.append(
                    f"round-trip ({fmt}): simulation diverged after "
                    f"export/import ({replayed} != {direct})"
                )
    return failures


def cmd_bench_membw(args: argparse.Namespace) -> int:
    """Effective-bandwidth report across the §6 program set.

    Per program and level: memory traffic in bytes (the paper's "data
    transferred", as actual quantities), the effective bandwidth over
    the synthesized run time, and the DRAM row-buffer/energy behaviour.
    ``--json-out`` merges the machine-readable rows into
    ``BENCH_membw.json``; ``--check --baseline FILE`` re-derives every
    committed row and verifies the export/import round trip instead.
    """
    from .memsim import BANDWIDTH_HEADERS, bandwidth_record, bandwidth_rows

    apps = args.apps.split(",")
    levels = args.levels.split(",")
    records: dict[str, dict] = {}
    for app in apps:
        results = _membw_results(app, levels, args)
        print(
            format_table(
                BANDWIDTH_HEADERS,
                bandwidth_rows(results),
                title=f"{app} effective bandwidth",
            )
        )
        if app != apps[-1]:
            print()
        for r in results:
            records[f"{app}/{r.level}"] = bandwidth_record(app, r.level, r.stats)

    exit_code = 0
    if args.check:
        if not args.baseline:
            raise SystemExit("bench-membw --check requires --baseline FILE")
        baseline = json.loads(Path(args.baseline).read_text()).get("results", {})
        failures: list[str] = []
        for key, expected in sorted(baseline.items()):
            got = records.get(key)
            if got is None:
                failures.append(f"{key}: committed row was not re-measured")
            elif got != expected:
                diffs = [
                    f"{f}: {expected[f]} -> {got[f]}"
                    for f in expected
                    if got.get(f) != expected[f]
                ]
                failures.append(f"{key}: {'; '.join(diffs)}")
        failures.extend(_membw_roundtrip(args))
        print()
        if failures:
            print("bench-membw --check: bandwidth regressions detected:")
            for line in failures:
                print(f"  {line}")
            exit_code = 1
        else:
            print(
                f"bench-membw --check ok: {len(baseline)} committed row(s) "
                f"reproduce exactly; trace export/import round-trips to "
                f"identical simulation"
            )
    if args.json_out:
        merged = merge_json_artifact(
            args.json_out,
            records,
            {"benchmark": "effective memory bandwidth and DRAM behaviour"},
            key="results",
        )
        print(f"\nwrote {args.json_out} ({len(merged)} row(s))")
    return exit_code


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one (program, level) run: span tree, metrics, peak memory."""
    target, params, machine, steps = _resolve_measure_target(args)
    outcome = run(
        RunRequest(
            program=target,
            levels=(args.level,),
            pipeline=_parse_passes(args),
            params=params,
            machine=machine,
            steps=steps,
            engine=args.engine,
            cache=TraceCache(args.cache_dir) if args.cache else None,
            verify=args.verify,
            trace=TraceConfig(memory=not args.no_memory),
        )
    )
    result = outcome.results[0]
    _profile_parallelism(result)
    if args.json:
        events = [sp.to_event() for sp in result.spans]
        for event in events:
            validate_event(event)
        print(
            json.dumps(
                {
                    "v": SCHEMA_VERSION,
                    "program": result.program,
                    "level": result.level,
                    "params": dict(result.params),
                    "seconds": round(result.seconds, 9),
                    "spans": events,
                    "metrics": result.metrics,
                },
                indent=2,
            )
        )
        return 0
    title = (
        f"{result.program}/{result.level} "
        f"(params {dict(result.params)}; seconds{' / peak MB' if not args.no_memory else ''})"
    )
    print(format_span_tree(result.spans, title=title))
    print()
    print(format_metric_delta(result.metrics))
    summary = _analysis_cache_summary(result.metrics)
    if summary:
        print()
        print(summary)
    print(
        f"\ntotal {result.seconds:.3f}s | trace {result.trace_length:,} accesses"
    )
    return 0


def _profile_parallelism(result) -> None:
    """Fold one parallelism-analysis pass into a profile result.

    Runs the static parallelism analyzer over the compiled variant in
    its own span/metrics window and merges the ``parallelism`` span and
    the ``analysis.parallelism.*`` counters into the run's profile, so
    ``repro profile`` shows the analyzer next to compile/trace/simulate.
    """
    from .static import analyze_parallelism

    if result.variant is None:
        return
    before = REGISTRY.snapshot()
    collector = SpanCollector()
    with collector:
        analyze_parallelism(result.variant.program, dict(result.params))
    delta = MetricsRegistry.delta(before, REGISTRY.snapshot())
    counters = result.metrics.setdefault("counters", {})
    for key, value in delta.get("counters", {}).items():
        counters[key] = counters.get(key, 0) + value
    result.metrics.setdefault("gauges", {}).update(delta.get("gauges", {}))
    result.spans = list(result.spans) + collector.events


def _analysis_cache_summary(delta) -> str:
    """One-look analysis-cache effectiveness (per kind) from a metrics delta."""
    counters = delta.get("counters", {}) if delta else {}
    total = {e: int(counters.get(f"analysis.cache.{e}", 0))
             for e in ("hits", "misses", "evictions")}
    if not any(total.values()):
        return ""
    kinds = sorted(
        {k.split(".")[2] for k in counters
         if k.startswith("analysis.cache.") and k.count(".") == 3}
    )
    parts = []
    for kind in kinds:
        h, m, e = (int(counters.get(f"analysis.cache.{kind}.{ev}", 0))
                   for ev in ("hits", "misses", "evictions"))
        parts.append(f"{kind} {h}h/{m}m/{e}e")
    lookups = total["hits"] + total["misses"]
    rate = 100.0 * total["hits"] / lookups if lookups else 0.0
    return (
        f"analysis cache: {total['hits']} hits, {total['misses']} misses, "
        f"{total['evictions']} evictions ({rate:.0f}% hit rate)\n"
        f"  per kind: " + "; ".join(parts)
    )


def cmd_runs(args: argparse.Namespace) -> int:
    """List past run logs (``runs/<id>/events.jsonl``) with summaries."""
    run_dirs = list_runs(args.runs_root)
    summaries = [summarize_run(d) for d in run_dirs]
    if args.json:
        print(json.dumps({"v": SCHEMA_VERSION, "runs": summaries}, indent=2))
        return 0
    if not summaries:
        root = args.runs_root or "runs"
        print(f"no run logs under {root}/ (enable with TraceConfig(events=True))")
        return 0
    headers = ("run", "started", "specs", "seconds", "events", "slowest")
    rows: list[list[object]] = []
    for s in summaries:
        slowest = s.get("slowest")
        started = s.get("started")
        rows.append(
            [
                s["run_id"],
                (
                    time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(started))
                    if started
                    else "-"
                ),
                f"{s.get('completed', 0)}/{s.get('total', 0)}",
                s.get("seconds", 0.0),
                s["events"],
                (
                    f"{slowest['program']}/{slowest['level']} "
                    f"{slowest['seconds']:.2f}s"
                    if slowest
                    else "-"
                ),
            ]
        )
    print(format_table(headers, rows, title="recorded runs (schema v1 event logs)"))
    return 0


def _load_target(target: str) -> Program:
    """A registry application name or a mini-language source file."""
    try:
        return validate(registry.get(target).build())
    except KeyError:
        return _load_program(target)


def _lint_steps(target: str) -> int:
    """The registry's body-repetition count for an app, 1 for files."""
    try:
        return registry.get(target).steps
    except KeyError:
        return 1


def _schedule_spec(spec: str) -> str:
    """argparse type: validate an OpenMP schedule spec up front."""
    from .static import parse_schedule

    try:
        parse_schedule(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spec


def _thread_count(text: str) -> int:
    """argparse type: a thread count of at least 1."""
    try:
        threads = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid thread count {text!r}"
        ) from None
    if threads < 1:
        raise argparse.ArgumentTypeError(
            f"thread count must be >= 1, got {threads}"
        )
    return threads


def _diag_counts(bag) -> dict[str, int]:
    """Per-code diagnostic counts, the unit of the lint baseline."""
    counts: dict[str, int] = {}
    for d in bag:
        counts[d.code] = counts.get(d.code, 0) + 1
    return counts


def cmd_lint(args: argparse.Namespace) -> int:
    from .verify.codes import explain_code, format_code_table

    if args.explain:
        print(explain_code(args.explain))
        return 0
    if args.codes:
        print(format_code_table())
        return 0
    if args.self_check:
        # "repro lint --self" = lint the compiler itself, not a program:
        # delegate to ruff (configured in pyproject.toml) when available
        import subprocess

        try:
            import ruff  # noqa: F401
        except ImportError:
            print(
                "ruff is not installed; install it and run 'ruff check .'\n"
                "(rules are configured under [tool.ruff] in pyproject.toml)",
                file=sys.stderr,
            )
            return 0
        return subprocess.call([sys.executable, "-m", "ruff", "check", "."])

    if args.all_apps:
        from .programs import STUDY_PROGRAMS

        targets = sorted(set(APPLICATIONS) | set(STUDY_PROGRAMS))
    elif args.target:
        targets = [args.target]
    else:
        raise SystemExit(
            "lint needs a program (file or app name), --all-apps, --self, "
            "--codes, or --explain CODE"
        )

    bags: dict[str, object] = {}
    for target in targets:
        program = _load_target(target)
        bag = lint_program(program, assume=args.assume)
        if args.static:
            from .codegen.plan import lint_codegen
            from .static import lint_static
            from .verify import lint_coherence, lint_races

            bag.extend(
                lint_static(
                    program, steps=_lint_steps(target), assume=args.assume
                )
            )
            bag.extend(lint_codegen(program))
            bag.extend(lint_races(program))
            bag.extend(
                lint_coherence(program, steps=_lint_steps(target))
            )
        bags[program.name] = bag

    if args.write_baseline:
        baseline = {name: _diag_counts(bag) for name, bag in bags.items()}
        Path(args.write_baseline).write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        )
        total = sum(sum(c.values()) for c in baseline.values())
        print(
            f"wrote {args.write_baseline}: {total} accepted diagnostic(s) "
            f"across {len(baseline)} program(s)"
        )
        return 0

    regressions: list[str] = []
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        for name, bag in bags.items():
            accepted = baseline.get(name, {})
            for code, count in sorted(_diag_counts(bag).items()):
                if count > int(accepted.get(code, 0)):
                    regressions.append(
                        f"{name}: {code} x{count} "
                        f"(baseline {int(accepted.get(code, 0))})"
                    )

    if args.json:
        if len(bags) == 1 and not args.baseline:
            # single program, no baseline: the original flat payload
            ((name, bag),) = bags.items()
            print(bag.to_json(program=name))
        else:
            payload = {
                "programs": {
                    name: json.loads(bag.to_json())
                    for name, bag in bags.items()
                },
                "regressions": regressions,
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for name, bag in bags.items():
            print(f"lint {name}:")
            print(bag.render())
        if regressions:
            print("\nnew diagnostics not in baseline:")
            for line in regressions:
                print(f"  {line}")

    if regressions:
        return 1
    if any(bag.has_errors() for bag in bags.values()):
        return 1
    # with a baseline the baseline is the contract; without one, warnings
    # fail only under --strict
    if args.strict and not args.baseline:
        if any(bag.warnings for bag in bags.values()):
            return 1
    return 0


def cmd_static_reuse(args: argparse.Namespace) -> int:
    """Print the symbolic reuse profile — computed without any trace."""
    from .obs import metrics as _metrics
    from .static import analyze_program

    program = _load_target(args.target)
    steps = args.steps if args.steps is not None else _lint_steps(args.target)
    if args.level:
        program = compile_variant(program, args.level).program
    params = _parse_params(args.param) or None

    before = _metrics.snapshot()["counters"]
    profile = analyze_program(program, steps=steps, assume=args.assume)
    after = _metrics.snapshot()["counters"]
    traced = sum(
        v - before.get(k, 0.0)
        for k, v in after.items()
        if k.startswith("trace.")
    )
    static_runs = after.get("analysis.static.runs", 0.0) - before.get(
        "analysis.static.runs", 0.0
    )

    if args.json:
        payload = profile.to_json(params)
        payload["metrics"] = {
            "analysis.static.runs": static_runs,
            "trace.accesses": traced,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(profile.render(params))
        print(
            f"# analysis.static.runs +{static_runs:g}; "
            f"trace events generated: {traced:g}"
        )
    return 0 if traced == 0 else 1


def _cache_elems(target: str) -> tuple[int, int]:
    """L1/L2 capacities in array elements: the registry entry's scaled
    machine for an app, the default spec for a file."""
    from .memsim.geometry import CacheGeometry

    try:
        spec = registry.get(target).machine_spec
    except KeyError:
        spec = MachineSpec()
    geometry = CacheGeometry.from_spec(spec)
    return geometry.l1_elems, geometry.l2_elems


def cmd_parallelism(args: argparse.Namespace) -> int:
    """Classify every loop axis; optionally predict multicore misses."""
    from .static import analyze_parallelism, predict_program_multicore

    if args.all_apps:
        from .programs import STUDY_PROGRAMS

        targets = sorted(set(APPLICATIONS) | set(STUDY_PROGRAMS))
    elif args.target:
        targets = [args.target]
    else:
        raise SystemExit(
            "parallelism needs a program (file or app name) or --all-apps"
        )

    params = _parse_params(args.param) or None
    payloads: list[dict] = []
    unknown = 0
    for target in targets:
        program = _load_target(target)
        if args.level:
            program = compile_variant(program, args.level).program
        profile = analyze_parallelism(program, params)
        unknown += profile.counts()["unknown"]
        pred = None
        if args.threads:
            steps = args.steps if args.steps is not None else _lint_steps(target)
            pred = predict_program_multicore(
                program,
                dict(profile.params),
                threads=args.threads,
                schedule=args.schedule,
                steps=steps,
            )
        if args.json:
            entry: dict[str, object] = {"parallelism": profile.as_dict()}
            if pred is not None:
                entry["multicore"] = pred.as_dict()
            payloads.append(entry)
            continue
        size = ", ".join(f"{k}={v}" for k, v in profile.params)
        counts = profile.counts()
        summary = ", ".join(f"{v} {k}" for k, v in counts.items() if v)
        print(
            f"parallelism {profile.program_name} at {size}: "
            f"{summary or 'no loops'}"
        )
        for v in profile.verdicts:
            print(f"  {v.describe()}")
        if pred is not None:
            l1, l2 = _cache_elems(target)
            print(pred.render(l1, l2))
        if target != targets[-1]:
            print()

    if args.json:
        if len(payloads) == 1:
            print(json.dumps(payloads[0], indent=2))
        else:
            print(json.dumps(payloads, indent=2))
    if args.check and unknown:
        print(
            f"parallelism --check: {unknown} axis verdict(s) are 'unknown'",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_coherence(args: argparse.Namespace) -> int:
    """Static coherence prediction: invalidation misses, sharing, witnesses."""
    from .lang import AnalysisError
    from .static import analyze_coherence

    if args.all_apps:
        from .programs import STUDY_PROGRAMS

        targets = sorted(set(APPLICATIONS) | set(STUDY_PROGRAMS))
    elif args.target:
        targets = [args.target]
    else:
        raise SystemExit(
            "coherence needs a program (file or app name) or --all-apps"
        )

    params = _parse_params(args.param) or None
    payloads: list[dict] = []
    for target in targets:
        program = _load_target(target)
        if args.level:
            program = compile_variant(program, args.level).program
        steps = args.steps if args.steps is not None else _lint_steps(target)
        try:
            profile = analyze_coherence(
                program,
                params,
                threads=args.threads,
                schedule=args.schedule,
                steps=steps,
            )
        except AnalysisError as exc:
            print(f"coherence {program.name}: skipped ({exc})")
            if target != targets[-1]:
                print()
            continue
        if args.json:
            payloads.append(profile.as_dict())
            continue
        print(profile.render())
        if target != targets[-1]:
            print()
    if args.json:
        print(json.dumps(payloads[0] if len(payloads) == 1 else payloads,
                         indent=2))
    return 0


def cmd_verify_pass(args: argparse.Namespace) -> int:
    params = _parse_params(args.param) or None
    # the verifier snapshots a tiny execution; one body repetition suffices
    args.steps = 1 if args.steps is None else args.steps
    if args.before or args.after:
        if not (args.before and args.after):
            raise SystemExit("--before and --after must be given together")
        before = _load_program(args.before)
        after = _load_program(args.after)
        bag = verify_pass(
            before, after,
            pass_name=args.pass_name, params=params, steps=args.steps,
        )
        if args.json:
            print(bag.to_json(before=before.name, after=after.name,
                              certified=not bag.has_errors()))
        elif bag.has_errors():
            print(f"ILLEGAL: {args.pass_name} broke the dependence structure")
            print(bag.render(min_severity=Severity.ERROR))
        else:
            print(
                f"certified: {args.pass_name} preserves all dependences "
                f"({before.name} -> {after.name})"
            )
        return 1 if bag.has_errors() else 0

    targets = [args.target] if args.target else sorted(APPLICATIONS)
    pipeline = _parse_passes(args)
    levels = [pipeline.name] if pipeline is not None else args.levels.split(",")
    results: list[dict[str, object]] = []
    failures = 0
    for target in targets:
        program = _load_target(target)
        for level in levels:
            verifier = PassVerifier(program, params, steps=args.steps)
            try:
                if pipeline is not None:
                    compile_pipeline(program, pipeline, verify=verifier)
                else:
                    compile_variant(program, level, verify=verifier)
                error = None
            except PassLegalityError as exc:
                failures += 1
                error = exc
            passes = [name for name, _ in verifier.history]
            results.append({
                "program": program.name,
                "level": level,
                "passes": passes,
                "certified": error is None,
                "diagnostics": (
                    [d.to_json() for d in error.bag] if error else []
                ),
            })
            if not args.json:
                if error is None:
                    print(
                        f"ok {program.name}/{level}: "
                        f"{len(passes)} pass(es) certified "
                        f"({', '.join(passes) or 'none'})"
                    )
                else:
                    broken = passes[-1] if passes else level
                    print(f"ILLEGAL {program.name}/{level}: pass {broken!r}")
                    print(error.bag.render(min_severity=Severity.ERROR))
    if args.json:
        import json as _json

        print(_json.dumps({"results": results, "failures": failures}, indent=2))
    return 1 if failures else 0


def cmd_cache(args: argparse.Namespace) -> int:
    cache = TraceCache(args.dir)
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}/")
    info = cache.info()
    print(
        f"{cache.root}/: {info['traces']} traces, {info['results']} results, "
        f"{info['tune']} tune scores, {info['bytes'] / 1e6:.1f} MB"
    )
    return 0


def cmd_levels(_args: argparse.Namespace) -> int:
    for level in OPT_LEVELS:
        print(f"  {level:10s} {PIPELINES[level].description}")
    print("  (compound levels like fusion1+regroup are also accepted)")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Introspect the pass-pipeline registry."""
    if args.lint:
        bag = lint_passes()
        print(bag.render())
        return 1 if bag.has_errors() or (args.strict and bag.warnings) else 0
    if args.json:
        from .core.pm import registry_to_json, spec_to_json

        if args.describe:
            print(json.dumps(spec_to_json(resolve_pipeline(args.describe)), indent=2))
        else:
            print(json.dumps(registry_to_json(), indent=2))
        return 0
    if args.describe:
        spec = resolve_pipeline(args.describe)
        print(describe_pipeline(spec))
        return 0
    for name, spec in PIPELINES.items():
        passes = " -> ".join(s.describe() for s in spec.steps)
        print(f"  {name:16s} {spec.description}")
        print(f"  {'':16s}   {passes}")
    return 0


def _parse_size(text: str) -> dict[str, int]:
    """One ``--at N=161,steps...`` binding: comma-separated NAME=INT pairs."""
    out: dict[str, int] = {}
    for piece in text.split(","):
        name, _, value = piece.partition("=")
        if not value:
            raise SystemExit(f"bad size {text!r}; expected NAME=INT[,NAME=INT...]")
        out[name.strip()] = int(value)
    return out


def cmd_tune(args: argparse.Namespace) -> int:
    """Autotune pass pipelines per program by statically predicted misses."""
    from .tune import TuneRequest, check_baseline, tune

    cache = args.cache_dir if args.cache_dir else (None if args.no_cache else True)
    if args.check:
        if not args.baseline:
            raise SystemExit("tune --check requires --baseline FILE")
        baseline = json.loads(Path(args.baseline).read_text())
        failures = check_baseline(
            baseline, budget_seconds=args.budget, cache=cache
        )
        if failures:
            print("tune --check: predicted-miss regressions detected:")
            for line in failures:
                print(f"  {line}")
            return 1
        n = len(baseline.get("programs", {}))
        print(
            f"tune --check ok: {n} program(s), tuned pipelines predict no "
            f"more misses than any named level (budget {args.budget:.0f}s)"
        )
        return 0

    if args.all_apps:
        targets = sorted(APPLICATIONS) + [t for t in args.target if t not in APPLICATIONS]
    elif args.target:
        targets = list(args.target)
    else:
        raise SystemExit("tune needs one or more app names, or --all-apps, or --check")

    sizes = None
    explicit = [_parse_size(t) for t in args.at or ()]
    base = _parse_params(args.param)
    if base or explicit:
        sizes = ([base] if base else []) + explicit

    payload: dict[str, object] = {}
    exit_code = 0
    for target in targets:
        request = TuneRequest(
            program=target,
            sizes=sizes,
            steps=args.steps,
            objective=args.objective,
            threads=args.threads,
            schedule=args.schedule,
            enablers=tuple(args.enablers.split(",")) if args.enablers else (),
            fusion_levels=tuple(
                int(v) for v in args.fusion_levels.split(",")
            ),
            regroup=not args.no_regroup,
            max_candidates=args.max_candidates,
            top_k=args.top_k,
            validate_top=not args.no_validate,
            engine=args.engine,
            cache=cache,
            verify=not args.no_verify,
            trace=TraceConfig(events=True, runs_root=args.runs_root)
            if args.events
            else None,
        )
        result = tune(request)
        entry = result.to_json()
        entry["target"] = target
        payload[result.program] = entry
        if not args.json:
            print(result.table())
            best = result.best
            verdict = (
                "STRICT WIN over every named level"
                if result.strict_win
                else "a grid candidate ties the best named level"
                if best.kind == "candidate"
                else "a named level is already optimal in this grid"
            )
            print(
                f"best: {best.signature} -> {best.score:.0f} predicted misses "
                f"({verdict}; {len(result.candidates)} candidates, "
                f"{result.seconds:.1f}s)"
            )
            if result.rank_agreement is not None:
                print(
                    f"dynamic validation (top {len(result.validated)}): "
                    f"static ranking "
                    f"{'confirmed' if result.rank_agreement else 'NOT confirmed'}"
                )
                if not result.rank_agreement:
                    exit_code = 1
            if target != targets[-1]:
                print()
    if args.json:
        print(json.dumps({"programs": payload}, indent=2))
    if args.json_out:
        merged = merge_json_artifact(
            args.json_out,
            payload,
            {
                "benchmark": "static-profile pipeline autotuning",
                "objective": args.objective,
            },
        )
        print(f"wrote {args.json_out} ({len(merged)} program(s))")
    return exit_code


def cmd_apps(_args: argparse.Namespace) -> int:
    for name, entry in APPLICATIONS.items():
        facts = entry.paper_facts
        print(
            f"  {name:8s} {facts['source']:20s} paper input {facts['input_size']}, "
            f"default {dict(entry.default_params)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Global cache-reuse compiler (Ding & Kennedy, IPPS 2001) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # shared option groups: every measuring subcommand spells program
    # parameters, the engine choice, verification, and caching the same way
    params_args = argparse.ArgumentParser(add_help=False)
    params_args.add_argument(
        "-p", "--param", "--params", dest="param", action="append",
        metavar="NAME=INT",
        help="one program-parameter binding per flag (repeat for more, "
        "e.g. -p N=161 -p steps=5)",
    )
    params_args.add_argument(
        "--steps", type=int, default=None,
        help="body repetitions (default: the app's registry value, 1 for files)",
    )
    engine_args = argparse.ArgumentParser(add_help=False)
    engine_args.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="cache-simulation engine (default: $REPRO_ENGINE, else fast)",
    )
    verify_args = argparse.ArgumentParser(add_help=False)
    verify_args.add_argument(
        "--verify", action="store_true",
        help="certify pass legality during compilation",
    )
    cache_args = argparse.ArgumentParser(add_help=False)
    cache_args.add_argument(
        "--cache", action="store_true", help="use the on-disk trace/result cache"
    )
    cache_args.add_argument("--cache-dir", default=None, help="cache directory")
    passes_args = argparse.ArgumentParser(add_help=False)
    passes_args.add_argument(
        "--passes", default=None, metavar="P1,P2,...",
        help="compile through this comma-separated pass list instead of a "
        "level ('repro pipeline --json' lists every registered pass with "
        "its metadata)",
    )

    fuse = sub.add_parser("fuse", help="transform a mini-language source file")
    fuse.add_argument("file")
    fuse.add_argument("--level", default="fusion", help="optimization level")
    fuse.add_argument("-v", "--verbose", action="store_true")
    fuse.set_defaults(fn=cmd_fuse)

    regroup = sub.add_parser("regroup", help="show the data-regrouping decision")
    regroup.add_argument("file")
    regroup.add_argument("--level", default="new")
    regroup.add_argument("-p", "--param", action="append", metavar="NAME=INT")
    regroup.set_defaults(fn=cmd_regroup)

    report = sub.add_parser(
        "report",
        help="measure optimization levels",
        parents=[params_args, engine_args, verify_args, cache_args, passes_args],
    )
    report.add_argument("target", help="registry app name or source file")
    report.add_argument("--levels", default="noopt,fusion,new")
    report.add_argument(
        "--timings", action="store_true", help="print per-stage wall-clock table"
    )
    report.add_argument(
        "--bandwidth", action="store_true",
        help="append the effective-bandwidth table (memory traffic in MB, "
        "GB/s over the synthesized run time, DRAM row-buffer hit rate, "
        "energy)",
    )
    report.add_argument(
        "--parallelism", action="store_true",
        help="append per-level axis verdicts and the predicted multicore "
        "miss table (private L1 per thread, shared L2)",
    )
    report.add_argument(
        "--coherence", action="store_true",
        help="append the per-level coherence table (predicted invalidation "
        "misses, true/false sharing lines)",
    )
    report.add_argument(
        "--threads", type=_thread_count, default=4,
        help="thread count for the --parallelism and --coherence "
        "predictions (default 4)",
    )
    report.set_defaults(fn=cmd_report)

    profile = sub.add_parser(
        "profile",
        help="span-tree profile of one (program, level) run",
        parents=[params_args, engine_args, verify_args, cache_args, passes_args],
    )
    profile.add_argument("target", help="registry app name or source file")
    profile.add_argument("--level", default="new", help="optimization level")
    profile.add_argument(
        "--no-memory", action="store_true",
        help="skip tracemalloc peak-memory tracking (faster)",
    )
    profile.add_argument(
        "--json", action="store_true",
        help="emit schema-v1 span events as JSON instead of the tree",
    )
    profile.set_defaults(fn=cmd_profile)

    runs = sub.add_parser("runs", help="list recorded run logs")
    runs.add_argument(
        "--runs-root", default=None,
        help="directory run logs live under (default runs/ or $REPRO_RUNS_DIR)",
    )
    runs.add_argument("--json", action="store_true", help="JSON output")
    runs.set_defaults(fn=cmd_runs)

    bench = sub.add_parser(
        "bench-engine",
        help="compare fast vs. reference simulation engines",
        parents=[params_args],
    )
    bench.add_argument("app", nargs="?", default="adi", help="registry app name")
    bench.add_argument("--levels", default="noopt,fusion,new")
    bench.add_argument("--repeats", type=int, default=3)
    bench.set_defaults(fn=cmd_bench_engine)

    bench_cg = sub.add_parser(
        "bench-codegen",
        help="compare interpreter vs. codegen trace generation",
        parents=[params_args],
    )
    bench_cg.add_argument(
        "--apps", default="adi,swim,tomcatv,sp",
        help="comma-separated registry apps (fig-10 set by default)",
    )
    bench_cg.add_argument("--levels", default="noopt,fusion,new")
    bench_cg.add_argument("--repeats", type=int, default=3)
    bench_cg.add_argument(
        "--json-out", default=None, metavar="FILE",
        help="also write the machine-readable payload (BENCH_codegen.json)",
    )
    bench_cg.set_defaults(fn=cmd_bench_codegen)

    bench_bw = sub.add_parser(
        "bench-membw",
        help="effective-bandwidth and DRAM report across the paper's programs",
        parents=[engine_args],
    )
    bench_bw.add_argument(
        "--apps", default=MEMBW_APPS,
        help=f"comma-separated programs (default {MEMBW_APPS})",
    )
    bench_bw.add_argument("--levels", default="noopt,new")
    bench_bw.add_argument(
        "--json-out", default=None, metavar="FILE",
        help="merge the machine-readable rows into FILE (BENCH_membw.json); "
        "existing rows for other program/level pairs are kept",
    )
    bench_bw.add_argument(
        "--check", action="store_true",
        help="verify the committed --baseline rows reproduce exactly and "
        "the trace export/import round trip preserves the simulation",
    )
    bench_bw.add_argument("--baseline", default=None, metavar="FILE")
    bench_bw.set_defaults(fn=cmd_bench_membw)

    trace = sub.add_parser(
        "trace", help="export, import, or inspect address-stream files"
    )
    trace_sub = trace.add_subparsers(dest="action", required=True)
    texp = trace_sub.add_parser(
        "export",
        help="trace a program and write the address stream to disk",
        parents=[params_args],
    )
    texp.add_argument("target", help="registry app name, 'fft', or source file")
    texp.add_argument("-o", "--output", required=True, metavar="FILE")
    texp.add_argument("--level", default="new", help="optimization level")
    texp.add_argument(
        "--format", choices=("auto", "binary", "csv"), default="auto",
        help="on-disk format (auto: csv for .csv paths, binary otherwise)",
    )
    texp.set_defaults(fn=cmd_trace_export)
    timp = trace_sub.add_parser(
        "import",
        help="load a stream (.ast binary or CSV) and simulate it",
        parents=[engine_args],
    )
    timp.add_argument("file", help="stream file (binary .ast or CSV)")
    timp.add_argument(
        "--machine", choices=("octane", "origin2000"), default=None,
        help="simulate on this base machine (default: the default scaled spec)",
    )
    timp.add_argument(
        "--app", default=None,
        help="simulate on this registry app's scaled machine instead",
    )
    timp.add_argument(
        "--reuse", action="store_true",
        help="also run the exact reuse-distance analyzer on the stream",
    )
    timp.set_defaults(fn=cmd_trace_import)
    tinf = trace_sub.add_parser("info", help="print a stream file's metadata")
    tinf.add_argument("file")
    tinf.set_defaults(fn=cmd_trace_info)

    cache = sub.add_parser("cache", help="inspect or clear the trace/result cache")
    cache.add_argument("--dir", default=None, help="cache directory (default .cache)")
    cache.add_argument("--clear", action="store_true")
    cache.set_defaults(fn=cmd_cache)

    lint = sub.add_parser(
        "lint", help="static IR verification of a program"
    )
    lint.add_argument(
        "target", nargs="?", help="registry app name or source file"
    )
    lint.add_argument("--json", action="store_true", help="JSON output")
    lint.add_argument(
        "--strict", action="store_true", help="warnings also fail (exit 1)"
    )
    lint.add_argument(
        "--assume", type=int, default=None, metavar="MIN",
        help="assumed parameter lower bound for symbolic checks (default 8)",
    )
    lint.add_argument(
        "--self", dest="self_check", action="store_true",
        help="lint the compiler's own sources via ruff instead",
    )
    lint.add_argument(
        "--static", action="store_true",
        help="also run the predictive S3xx locality lints "
        "(symbolic reuse profile; no trace is generated)",
    )
    lint.add_argument(
        "--all-apps", action="store_true",
        help="lint every bundled application instead of one target",
    )
    lint.add_argument(
        "--explain", metavar="CODE",
        help="document one diagnostic code (e.g. S301) and exit",
    )
    lint.add_argument(
        "--codes", action="store_true",
        help="print the full diagnostic-code registry table and exit",
    )
    lint.add_argument(
        "--baseline", metavar="FILE",
        help="accepted-diagnostics file; any diagnostic beyond it fails",
    )
    lint.add_argument(
        "--write-baseline", metavar="FILE",
        help="record the current diagnostics as the accepted baseline",
    )
    lint.set_defaults(fn=cmd_lint)

    static = sub.add_parser(
        "static-reuse",
        help="symbolic (trace-free) reuse profile of a program",
        parents=[params_args],
    )
    static.add_argument("target", help="registry app name or source file")
    static.add_argument(
        "--level", default=None,
        help="optimization level to apply before analysis (default: none)",
    )
    static.add_argument(
        "--assume", type=int, default=None, metavar="MIN",
        help="assumed parameter lower bound for symbolic comparisons",
    )
    static.add_argument(
        "--json", action="store_true",
        help="emit the profile (and predicted histogram) as JSON",
    )
    static.set_defaults(fn=cmd_static_reuse)

    par = sub.add_parser(
        "parallelism",
        help="dependence-based DOALL/reduction/serial verdict per loop axis",
        parents=[params_args],
    )
    par.add_argument(
        "target", nargs="?", help="registry app name or source file"
    )
    par.add_argument(
        "--all-apps", action="store_true",
        help="analyze every bundled application instead of one target",
    )
    par.add_argument(
        "--level", default=None,
        help="optimization level to apply before analysis (default: none)",
    )
    par.add_argument(
        "--threads", type=_thread_count, default=None, metavar="T",
        help="also predict per-thread private + shared cache reuse at T threads",
    )
    par.add_argument(
        "--schedule", type=_schedule_spec, default="static",
        help="OpenMP schedule assumed by the multicore prediction "
        "(static, static,k, guided, dynamic)",
    )
    par.add_argument("--json", action="store_true", help="JSON output")
    par.add_argument(
        "--check", action="store_true",
        help="exit 1 if any axis verdict is 'unknown' (CI gate)",
    )
    par.set_defaults(fn=cmd_parallelism)

    coh = sub.add_parser(
        "coherence",
        help="static coherence prediction: invalidation misses, true/false "
        "sharing at cache-line granularity, concrete witnesses",
        parents=[params_args],
    )
    coh.add_argument(
        "target", nargs="?", help="registry app name or source file"
    )
    coh.add_argument(
        "--all-apps", action="store_true",
        help="analyze every bundled application instead of one target",
    )
    coh.add_argument(
        "--level", default=None,
        help="optimization level to apply before analysis (default: none)",
    )
    coh.add_argument(
        "--threads", type=_thread_count, default=4,
        help="thread count to model (default 4)",
    )
    coh.add_argument(
        "--schedule", type=_schedule_spec, default="static",
        help="OpenMP schedule (static, static,k, guided, dynamic)",
    )
    coh.add_argument("--json", action="store_true", help="JSON output")
    coh.set_defaults(fn=cmd_coherence)

    verify = sub.add_parser(
        "verify-pass",
        help="certify that optimization passes preserve all dependences",
        parents=[params_args, passes_args],
    )
    verify.add_argument(
        "target", nargs="?",
        help="registry app name or source file (default: all apps)",
    )
    verify.add_argument("--levels", default="new", help="comma-separated levels")
    verify.add_argument("--before", help="original source file")
    verify.add_argument("--after", help="transformed source file")
    verify.add_argument("--pass-name", default="transform",
                        help="label for --before/--after mode")
    verify.add_argument("--json", action="store_true", help="JSON output")
    verify.set_defaults(fn=cmd_verify_pass)

    levels = sub.add_parser("levels", help="list optimization levels")
    levels.set_defaults(fn=cmd_levels)

    pipeline = sub.add_parser(
        "pipeline", help="introspect the pass-pipeline registry"
    )
    pipeline.add_argument(
        "--list", action="store_true",
        help="list registered pipelines with their pass sequences (default)",
    )
    pipeline.add_argument(
        "--describe", metavar="NAME",
        help="per-pass detail for one pipeline (options, preserved analyses)",
    )
    pipeline.add_argument(
        "--lint", action="store_true",
        help="lint the pass registry (L201: missing preserves/invalidates)",
    )
    pipeline.add_argument(
        "--strict", action="store_true", help="lint warnings also fail (exit 1)"
    )
    pipeline.add_argument(
        "--json", action="store_true",
        help="machine-readable registry dump: every pass (with metadata) "
        "and every pipeline in the shared pipeline-description schema "
        "(with --describe NAME: just that pipeline)",
    )
    pipeline.set_defaults(fn=cmd_pipeline)

    tune = sub.add_parser(
        "tune",
        help="autotune pass pipelines by statically predicted misses",
        parents=[params_args, engine_args],
    )
    tune.add_argument(
        "target", nargs="*",
        help="registry app names or source files ('fft' resolves to the "
        "bundled FFT at -p n=SIZE, default 64)",
    )
    tune.add_argument(
        "--all-apps", action="store_true",
        help="tune every bundled application (plus any extra targets given)",
    )
    tune.add_argument(
        "--at", action="append", metavar="NAME=INT[,NAME=INT...]",
        help="extra target size to score at (repeatable; -p sizes come first)",
    )
    tune.add_argument(
        "--objective", choices=("misses", "parallel-misses", "bytes"),
        default="misses",
        help="ranking objective: single-core L1+L2 predicted misses, the "
        "multicore prediction (private L1 per thread + shared L2), or "
        "predicted bytes moved (misses weighted by line size)",
    )
    tune.add_argument(
        "--threads", type=_thread_count, default=4,
        help="thread count for --objective parallel-misses (default 4)",
    )
    tune.add_argument(
        "--schedule", type=_schedule_spec, default="static",
        help="OpenMP schedule assumed by the multicore objective "
        "(static, static,k, guided, dynamic)",
    )
    tune.add_argument(
        "--enablers", default=",".join(TUNE_ENABLERS), metavar="P1,P2,...",
        help="enabler passes the search may toggle (default: "
        f"{','.join(TUNE_ENABLERS)}; pass '' to disable all)",
    )
    tune.add_argument(
        "--fusion-levels", default="0,1,2,4,8", metavar="K1,K2,...",
        help="fusion max_levels values to try; 0 means no fusion",
    )
    tune.add_argument(
        "--no-regroup", action="store_true",
        help="do not try the terminal regroup pass",
    )
    tune.add_argument(
        "--max-candidates", type=int, default=None, metavar="N",
        help="cap the candidate grid (cheapest pipelines first)",
    )
    tune.add_argument(
        "--top-k", type=int, default=3,
        help="dynamically validate this many best candidates (default 3)",
    )
    tune.add_argument(
        "--no-validate", action="store_true",
        help="skip dynamic validation of the top-k frontier",
    )
    tune.add_argument(
        "--no-verify", action="store_true",
        help="skip legality certification of candidate pipelines",
    )
    tune.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-addressed tune/trace cache (on by default)",
    )
    tune.add_argument("--cache-dir", default=None, help="cache directory")
    tune.add_argument(
        "--events", action="store_true",
        help="record schema-v1 tune.* events under the runs root",
    )
    tune.add_argument(
        "--runs-root", default=None,
        help="directory run logs live under (default runs/ or $REPRO_RUNS_DIR)",
    )
    tune.add_argument("--json", action="store_true", help="JSON output")
    tune.add_argument(
        "--json-out", default=None, metavar="FILE",
        help="write/merge the per-program payload (BENCH_tune.json); "
        "existing entries for other programs are kept",
    )
    tune.add_argument(
        "--check", action="store_true",
        help="regression-gate a committed --baseline FILE instead of tuning: "
        "exit 1 if any tuned pipeline predicts more misses than a named "
        "level (recomputing pipelines cheaper than --budget seconds)",
    )
    tune.add_argument(
        "--baseline", metavar="FILE", help="committed BENCH_tune.json to gate"
    )
    tune.add_argument(
        "--budget", type=float, default=30.0, metavar="SECONDS",
        help="--check recomputes only pipelines whose committed analysis "
        "cost is at most this many seconds (default 30)",
    )
    tune.set_defaults(fn=cmd_tune)

    apps = sub.add_parser("apps", help="list bundled applications")
    apps.set_defaults(fn=cmd_apps)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
