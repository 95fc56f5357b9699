#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload at tiny scale, untraced
and traced, and checks that each run prints every metric BENCHMARK.json
names, with its unit, both in the report and in the final JSON line, and
that no query failed.

    python3 gtsbench/smoke_test.py      # from the repository root

Builds gts_bench first if needed (through run.py). Exits non-zero and
lists the problems when any check fails.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(workload, trace):
    """Returns the problems of one tiny run."""
    label = f"{workload} --trace {trace}"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "gtsbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{label}: attempted={result['attempted']}")

    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    # failed_ratio is printed in the report; failures reach the JSON as
    # "failed" over "attempted".
    report = dict(expected, failed_ratio="fraction") if not trace else expected
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{label}: JSON metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {[n for n in got if got[n] != expected.get(n)]}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")
    text = "\n".join(lines[:-1])
    for name, unit in report.items():
        if not re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b",
                         text, re.MULTILINE):
            problems.append(f"{label}: report lacks '{name} <value> {unit}'")
    return problems


def main():
    problems = []
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            found = check_run(workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
