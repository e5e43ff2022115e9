"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Runs each workload named in ``BENCHMARK.json`` for one second,
untraced and traced, and checks that every run exits 0 with
``correct`` true and that every metric ``BENCHMARK.json`` lists for
that mode (``end_to_end`` untraced, ``per_layer`` traced) is printed
with that metric's unit, both on its own line and in the result
object on the last line.  Exits 1 if any check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(spec: dict, workload: str, trace: int) -> list:
    """Problems found in one tiny run (empty when it passes)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        got = metrics.get(name)
        if (got is None or got.get("unit") != unit
                or not isinstance(got.get("value"), (int, float))):
            problems.append(f"{name}: got {got}, want a number in {unit}")
        if not any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]):
            problems.append(f"{name}: no printed line with unit {unit}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failed = False
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems = check(spec, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: "
                  + ("FAIL" if problems else "ok"), flush=True)
            for problem in problems:
                print(f"    {problem}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
