#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run it from the root of the repository.  For each workload it runs the
benchmark through run.py at `--size tiny` and checks that

* an untraced run prints every `end_to_end` metric of BENCHMARK.json and a
  traced run every `per_layer` metric, each with its unit, as the last line
  of standard output, with every answer correct and nothing failed;
* a corrupted answer (`--inject corrupt`) raises the failed count and
  marks the run incorrect;
* on `route` and `live`, a refused submission (`--inject refuse`) raises
  the failed count.  `analytics` calls the pool directly and has no
  submission that can be refused.

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "4"


def run(workload, trace, inject="none"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
           "--size", "tiny", "--inject", inject]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd[1:])}: exit {out.returncode}\n{out.stderr[-2000:]}")
    last = out.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL {workload}: result keys {sorted(result)}")
    return result


def check(condition, message):
    if not condition:
        sys.exit(f"FAIL {message}")
    print(f"ok   {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            result = run(workload, trace)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            check(printed == expected[trace],
                  f"{workload} trace={trace}: every metric printed with its unit")
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                  f"{workload} trace={trace}: every value is a number")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace={trace}: {result['attempted']} attempted, all correct, none failed")
            if trace == 0:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      f"{workload}: every end-to-end metric is above 0")
        corrupted = run(workload, 0, "corrupt")
        check(corrupted["failed"] >= 1 and not corrupted["correct"],
              f"{workload}: a corrupted answer counts as failed and incorrect")
        if workload != "analytics":
            refused = run(workload, 0, "refuse")
            check(refused["failed"] >= 1 and refused["correct"],
                  f"{workload}: a refused submit counts as failed")
    print("selftest passed")


if __name__ == "__main__":
    main()
