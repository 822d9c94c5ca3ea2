"""Before/after table of two sets of benchmark runs.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the results ``perfbench/run.py --out FILE`` appended,
one JSON object per run.  For every workload found in both files, and
for every end-to-end and per-layer metric named in ``BENCHMARK.json``,
the table gives each side's median and quartiles over its runs, the
ratio of the medians with its base, and a verdict for the metrics that
have a bound:

* ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the bound, and the runs do not separate completely; or
  the change's median is worse by more than the bound but the change
  loses fewer than nine tenths of the run pairs;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound, and the change loses at least nine tenths of the run
  pairs;
* ``better`` — the change's median is better by more than the parent's
  own quartile distance, and the change wins at least nine tenths of the
  run pairs;
* ``same`` — otherwise.

Run pairs are the i-th parent run with the i-th change run.  Alternate
the two sides run by run (parent, change, parent, ...), so that a pair
shares the host's state: the host's own speed drifts by a quarter or
more over tens of minutes, which moves both sides' medians alike but
not the outcome of a pair.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[tuple[str, int], list[dict]]:
    """Runs grouped by (workload, trace flag)."""
    runs: dict[tuple[str, int], list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            runs.setdefault((run["workload"], run["trace"]), []).append(run)
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = summary(parent)
    c_med = summary(change)[1]
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    separated = max(sign * v for v in change) < min(sign * v for v in parent)
    if max(spread(parent), spread(change)) > bound and not separated:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    losses = sum(1 for p, c in pairs if sign * c > sign * p)
    if worse_by > bound:
        return "worse" if losses >= 0.9 * len(pairs) else "unresolved"
    if -worse_by * abs(p_med) > p_q3 - p_q1 and pairs and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def table(parent_path: Path, change_path: Path, spec: dict) -> list[str]:
    parent, change = load(parent_path), load(change_path)
    sections = ((0, spec["end_to_end"]), (1, spec["per_layer"]))
    lines = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in sections:
            key = (workload, trace)
            if key not in parent or key not in change:
                continue
            lines.append(
                f"\n{workload} ({'per-layer' if trace else 'end-to-end'}; "
                f"{len(parent[key])} parent runs, {len(change[key])} change runs)"
            )
            lines.append(
                f"{'metric':34} {'unit':6} {'parent q1/med/q3':>32} "
                f"{'change q1/med/q3':>32} {'ratio (base)':>22}  verdict"
            )
            for metric in metrics:
                name = metric["name"]
                p = [r["metrics"][name]["value"] for r in parent[key] if name in r["metrics"]]
                c = [r["metrics"][name]["value"] for r in change[key] if name in r["metrics"]]
                if not p or not c:
                    continue
                ps, cs = summary(p), summary(c)
                ratio = f"{cs[1] / ps[1]:.3f} ({ps[1]:.4g})" if ps[1] else "- (0)"
                mark = verdict(p, c, metric["better"], metric["bound"]) if "bound" in metric else "-"
                lines.append(
                    f"{name:34} {metric['unit']:6} "
                    f"{'/'.join(f'{v:.4g}' for v in ps):>32} "
                    f"{'/'.join(f'{v:.4g}' for v in cs):>32} {ratio:>22}  {mark}"
                )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = table(args.parent, args.change, spec)
    if not lines:
        print("no workload has runs in both files", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
