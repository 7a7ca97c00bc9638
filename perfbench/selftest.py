#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Runs a one-second pass of every workload, end-to-end and traced, and
asserts that each metric BENCHMARK.json names is printed with its unit, as
is each end-to-end metric the report lines carry. Then checks that an
altered reference is caught by the mismatch check and that requests the
daemon refuses are counted as failures, by error code, not dropped, and
make the run incorrect. Exits non-zero on the first failed assertion.
"""

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result, done.stdout


# The end-to-end metrics a --trace 0 run prints as report lines, by name
# and unit, beside the gated ones in its result line.
REPORTED = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("solve_p50_ms", "ms"),
            ("solve_p90_ms", "ms"), ("solves_per_s", "1/s"),
            ("cheap_p50_ms", "ms"), ("cheap_p90_ms", "ms"),
            ("failed_frac", "frac"), ("mismatch_frac", "frac")]
INGEST = [("ingest_p50_ms", "ms"), ("ingest_p90_ms", "ms")]


def check(condition, message):
    if not condition:
        print("FAIL:", message)
        sys.exit(1)
    print("ok:", message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result, out = run(workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  f"{workload} trace={trace} runs and is correct")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{workload} trace={trace} attempts without failures")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in spec[group]},
                  f"{workload} trace={trace} prints exactly the {group} metrics")
            for m in spec[group]:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"] and
                      isinstance(got["value"], (int, float)) and
                      math.isfinite(got["value"]),
                      f"{workload} {m['name']} has unit {m['unit']}")
            if trace == 1:
                continue
            reported = REPORTED + (INGEST if workload == "tenant_mix" else [])
            for name, unit in reported:
                check(re.search(rf"^perfbench: .*\b{name} = [-+.e\d]+ {re.escape(unit)}\b",
                                out, re.M) is not None,
                      f"{workload} reports {name} in {unit}")

    code, result, out = run("tenant_mix", 0, "--selftest", "corrupt")
    check(code != 0 and result is not None and not result["correct"],
          "an altered reference is caught by the mismatch check")
    check("mismatch_frac = 0.000000" not in out,
          "the altered reference shows in mismatch_frac")

    code, result, out = run("tenant_mix", 0, "--selftest", "refuse")
    check(result is not None and result["failed"] >= 3,
          "refused requests are counted as failed")
    check(code != 0 and not result["correct"],
          "a failed request makes the run incorrect")
    check("error BudgetExhausted" in out and
          result["attempted"] > result["failed"],
          "refusals are tallied by error code beside the served requests")
    print("selftest passed")


if __name__ == "__main__":
    main()
