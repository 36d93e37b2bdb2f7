"""Smoke check of the benchmark itself on tiny grids.

    python3 perfbench/smoke.py

Runs one pass of every workload at 16x16 (two trials per AF step), untraced
and twice traced, and checks that:
- every CLI call passes its gates;
- every metric BENCHMARK.json names is emitted, with its unit, and nothing else;
- every span tree is well formed: known parents, children inside their
  parents, self time >= 0;
- the exact counts (calls, a_of per call, halvings, unknowns, bytes written)
  repeat exactly between the two traced runs;
- every traced function, in all six modules, is called on some workload;
- the wrappers are gone after each run.
Exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

import run
from spans import SPAN_NAMES, TRACED, check_tree, layer_counts

TINY = {"--grid": "16x16", "--sweep": "12,16", "--trials": "2"}


def tiny(steps: list[run.Step]) -> list[run.Step]:
    out = []
    for step in steps:
        argv = list(step.argv)
        for i in range(len(argv) - 1):
            argv[i + 1] = TINY.get(argv[i], argv[i + 1])
        out.append(replace(step, argv=tuple(argv)))
    return out


def check_metrics(where: str, result: dict, declared: list[dict]) -> list[str]:
    problems = []
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    for name in sorted(set(want) ^ set(metrics)):
        problems.append(f"{where}: metric {name} "
                        + ("missing" if name in want else "not declared"))
    for name, m in metrics.items():
        if name in want and m["unit"] != want[name]:
            problems.append(f"{where}: {name} unit {m['unit']} != {want[name]}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{where}: {name} = {m['value']!r}")
    return problems


def main() -> int:
    run.pin_blas_threads()
    cli = run.load_cli()
    if cli is None:
        print("smoke: capaf sources not found", file=sys.stderr)
        return 2
    originals = {name: getattr(cli, name) for name in TRACED["cli"]}
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    traced = set()
    for workload, steps in run.WORKLOADS.items():
        steps = tiny(steps)
        out = run.run_workload(cli, workload, steps, 1, 0, trace=False)
        problems += out["runner"].problems
        problems += check_metrics(f"{workload} trace 0", out["result"],
                                  bench["end_to_end"])
        problems += [f"{workload} trace 0: {name} is 0"
                     for name, m in out["result"]["metrics"].items()
                     if m["value"] == 0]
        counts = []
        for _ in range(2):
            out = run.run_workload(cli, workload, steps, 1, 0, trace=True)
            runner = out["runner"]
            problems += runner.problems
            problems += check_metrics(f"{workload} trace 1", out["result"],
                                      bench["per_layer"])
            for label, traces in runner.traces.items():
                for spans in traces:
                    problems += [f"{workload} {label}: {p}" for p in check_tree(spans)]
                    traced.update(s.name for s in spans)
            counts.append({label: [layer_counts(spans) for spans in traces]
                           for label, traces in runner.traces.items()})
            problems += [f"cli.{name} still wrapped" for name, fn in originals.items()
                         if getattr(cli, name) is not fn]
        for label in counts[0]:
            first, second = counts[0][label], counts[1][label]
            for key in first[0]:
                if first[0][key] != second[0][key]:
                    problems.append(f"{workload} {label}: {key} "
                                    f"{first[0][key]} then {second[0][key]}")
        print(f"smoke: {workload} checked")
    problems += [f"{name} never traced" for name in SPAN_NAMES if name not in traced]
    for p in problems:
        print("smoke: FAILED " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
