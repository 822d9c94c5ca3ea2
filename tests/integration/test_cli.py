"""Command-line front end tests."""

import pytest

from repro.cli import main

KERNEL = """
program kern
param N
real A[N], B[N]
for i = 2, N { A[i] = f(A[i - 1], B[i]) }
for i = 1, N - 1 { B[i] = g(A[i + 1]) }
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kern.loop"
    path.write_text(KERNEL)
    return str(path)


def test_levels(capsys):
    assert main(["levels"]) == 0
    out = capsys.readouterr().out
    for level in ("noopt", "sgi", "mckinley", "fusion", "new"):
        assert level in out


def test_apps(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    for app in ("swim", "tomcatv", "adi", "sp"):
        assert app in out


def test_fuse_outputs_valid_source(kernel_file, capsys):
    assert main(["fuse", kernel_file]) == 0
    out = capsys.readouterr().out
    from repro.lang import parse, validate

    fused = validate(parse(out))
    assert fused.loop_count() == 1  # the two loops fused


def test_fuse_levels_differ(kernel_file, capsys):
    main(["fuse", kernel_file, "--level", "noopt"])
    noopt = capsys.readouterr().out
    main(["fuse", kernel_file, "--level", "fusion"])
    fused = capsys.readouterr().out
    assert noopt != fused


def test_regroup_with_params(kernel_file, capsys):
    assert main(["regroup", kernel_file, "-p", "N=16"]) == 0
    out = capsys.readouterr().out
    assert "interleave" in out
    assert "offset" in out


def test_report_on_file(kernel_file, capsys):
    assert main(["report", kernel_file, "-p", "N=513", "--levels", "noopt,new"]) == 0
    out = capsys.readouterr().out
    assert "L1 misses" in out
    assert "new" in out


def test_report_requires_params_for_files(kernel_file):
    with pytest.raises(SystemExit):
        main(["report", kernel_file])


def test_unknown_level_rejected(kernel_file):
    with pytest.raises(SystemExit):
        main(["report", kernel_file, "--levels", "warp9", "-p", "N=64"])


def test_missing_file_is_an_error(capsys):
    assert main(["fuse", "/no/such/file.loop"]) == 2


def test_bad_param_syntax(kernel_file):
    with pytest.raises(SystemExit):
        main(["regroup", kernel_file, "-p", "N"])


def test_bench_engine_smoke(capsys):
    """The fast engine must match the reference on a small program."""
    assert (
        main(
            [
                "bench-engine",
                "adi",
                "-p",
                "N=40",
                "--levels",
                "noopt,new",
                "--repeats",
                "1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "metrics bit-identical across engines: True" in out
    assert "speedup" in out
    for engine in ("fast", "reference"):
        assert engine in out


def test_report_with_engine_and_timings(kernel_file, capsys):
    assert (
        main(
            [
                "report",
                kernel_file,
                "-p",
                "N=128",
                "--levels",
                "noopt,new",
                "--engine",
                "reference",
                "--timings",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "trace-gen" in out and "tlb" in out


def test_engine_flag_names_a_simulation_engine(capsys):
    # tracing has one production path; --engine picks the simulator only
    with pytest.raises(SystemExit) as exc:
        main(["report", "adi", "--engine", "interp"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_trace_export_has_no_engine_flag(tmp_path, capsys):
    # export only traces; no simulation engine to choose
    with pytest.raises(SystemExit) as exc:
        main(["trace", "export", "adi", "-o", str(tmp_path / "x.ast"),
              "--engine", "fast"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_cache_subcommand(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert main(["cache", "--dir", str(cache_dir)]) == 0
    assert "0 traces" in capsys.readouterr().out
    # populate via a cached report, then inspect and clear
    assert (
        main(
            [
                "report",
                "adi",
                "--levels",
                "noopt",
                "--cache",
                "--cache-dir",
                str(cache_dir),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["cache", "--dir", str(cache_dir)]) == 0
    assert "1 traces" in capsys.readouterr().out
    assert main(["cache", "--dir", str(cache_dir), "--clear"]) == 0
    out = capsys.readouterr().out
    assert "removed 2 entries" in out and "0 traces" in out


def test_profile_prints_span_tree(capsys):
    assert main(["profile", "adi", "--level", "new", "--params", "N=40"]) == 0
    out = capsys.readouterr().out
    # nested pass spans under compile, plus every simulation stage
    for name in ("compile", "fusion", "regroup", "trace-gen", "l1", "l2", "tlb"):
        assert name in out
    assert "seconds" in out and "peak MB" in out
    assert "metric deltas:" in out
    assert "trace.generated" in out


def test_profile_json_is_schema_valid(capsys):
    import json

    from repro.obs import SCHEMA_VERSION, validate_event

    assert main(["profile", "adi", "--level", "noopt", "-p", "N=40", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["v"] == SCHEMA_VERSION
    assert data["level"] == "noopt" and data["params"] == {"N": 40}
    assert data["spans"], "profile --json must carry span events"
    for event in data["spans"]:
        validate_event(event)


def test_profile_on_file_requires_params(kernel_file):
    with pytest.raises(SystemExit):
        main(["profile", kernel_file])


def test_profile_no_memory_drops_column(kernel_file, capsys):
    rc = main(["profile", kernel_file, "-p", "N=64", "--level", "fusion", "--no-memory"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "peak MB" not in out


def test_runs_empty_and_populated(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
    assert main(["runs"]) == 0
    assert "no run logs" in capsys.readouterr().out

    from repro.harness import RunRequest, run
    from repro.obs import TraceConfig

    run(
        RunRequest(
            program="adi", levels=("noopt",), params={"N": 40}, steps=1,
            trace=TraceConfig(events=True),
        )
    )
    assert main(["runs"]) == 0
    out = capsys.readouterr().out
    assert "adi/noopt" in out and "1/1" in out

    import json

    assert main(["runs", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["runs"]) == 1
    assert data["runs"][0]["programs"] == ["adi"]


def test_report_verify_flag(kernel_file, capsys):
    assert (
        main(
            ["report", kernel_file, "-p", "N=64", "--levels", "noopt,new", "--verify"]
        )
        == 0
    )
    assert "level" in capsys.readouterr().out


def test_pipeline_list_enumerates_every_level(capsys):
    from repro.core import OPT_LEVELS

    assert main(["pipeline", "--list"]) == 0
    out = capsys.readouterr().out
    for level in OPT_LEVELS:
        assert level in out
    assert "inline -> " in out  # pass sequences are shown


def test_pipeline_describe(capsys):
    assert main(["pipeline", "--describe", "new"]) == 0
    out = capsys.readouterr().out
    assert "fusion(max_levels=8)" in out
    assert "preserves:" in out
    assert "checkpoint: preliminary" in out


def test_pipeline_describe_unknown_level(capsys):
    assert main(["pipeline", "--describe", "fusionXYZ"]) == 1
    assert "known levels" in capsys.readouterr().err


def test_pipeline_lint_clean(capsys):
    assert main(["pipeline", "--lint"]) == 0
    assert "clean" in capsys.readouterr().out


def test_report_with_passes_override(kernel_file, capsys):
    assert (
        main(["report", kernel_file, "-p", "N=64", "--passes", "inline,simplify"])
        == 0
    )
    out = capsys.readouterr().out
    assert "passes:inline,simplify" in out


def test_report_with_bogus_pass_name(kernel_file, capsys):
    assert main(["report", kernel_file, "-p", "N=64", "--passes", "warpdrive"]) == 1
    assert "registered passes" in capsys.readouterr().err


def test_profile_shows_analysis_cache_summary(capsys):
    assert main(["profile", "adi", "--level", "new", "-p", "N=40",
                 "--no-memory"]) == 0
    out = capsys.readouterr().out
    assert "analysis cache:" in out
    assert "hit rate" in out
    assert "loop_accesses" in out


def test_verify_pass_with_passes_override(kernel_file, capsys):
    assert main(["verify-pass", kernel_file, "--passes", "inline,distribute"]) == 0
    out = capsys.readouterr().out
    assert "passes:inline,distribute" in out and "certified" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["coherence", "adi", "--threads", "0"],
        ["parallelism", "adi", "--threads", "0"],
        ["report", "adi", "--coherence", "--threads", "0"],
        ["tune", "adi", "--threads", "-1"],
        ["coherence", "adi", "--threads", "four"],
    ],
)
def test_threads_below_one_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "thread count" in capsys.readouterr().err


def test_threads_past_the_coherence_automaton_degrade(capsys):
    """More threads than the MSI automaton tracks skip the coherence
    prediction (like an oversized instance) instead of a traceback."""
    assert main(["coherence", "adi", "-p", "N=8", "--threads", "64"]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out and "63 threads" in out
    assert main(
        ["report", "adi", "-p", "N=8", "--steps", "1", "--levels", "noopt",
         "--coherence", "--threads", "70"]
    ) == 0
    table = capsys.readouterr().out.split("coherence prediction")[1]
    assert table.strip().splitlines()[-1].split() == ["noopt"] + ["-"] * 5
