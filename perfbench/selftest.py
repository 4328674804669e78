#!/usr/bin/env python3
# Copyright 2026 the pdblb authors. MIT license.
"""Self-tests of the benchmark, at the tiny horizon (under a minute):

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and run.py declare the same metrics and units;
that every workload runs traced and untraced, prints every declared
metric with its unit, passes the digest gate on the reference seed and
gives the same digests traced and untraced; that the layer counters tell
the workloads apart (locks only with OLTP, runner metrics only on the
grid); that a perturbed config fails the digest gate with a non-zero exit;
and that a tree holding only BENCHMARK.json and perfbench/ fails without
printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    """Runs run.py; returns (exit code, stdout lines, parsed last line)."""
    r = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                       capture_output=True, text=True)
    lines = r.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return r.returncode, lines, result


def digests(lines):
    return {line.split(" ", 2)[2]: line.split(" ", 2)[1]
            for line in lines if line.startswith("digest ")}


def main():
    declared = ROOT / "BENCHMARK.json"
    if declared.exists():
        spec = json.loads(declared.read_text())
        check({m["name"]: m["unit"] for m in spec["end_to_end"]} ==
              run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
        check({m["name"]: m["unit"] for m in spec["per_layer"]} ==
              run.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
        check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
              "BENCHMARK.json workloads match run.py")

    for workload in run.WORKLOADS:
        per_trace = {}
        for trace in (0, 1):
            rc, lines, result = bench("--workload", workload, "--seed", "42",
                                      "--seconds", "1", "--trace", str(trace),
                                      "--horizon", "tiny")
            what = f"{workload} trace={trace}"
            check(rc == 0 and result is not None and result["correct"] and
                  result["failed"] == 0 and result["attempted"] > 0,
                  f"{what}: exit 0, digests match the reference")
            if result is None:
                continue
            want = run.PER_LAYER if trace else run.END_TO_END
            got = result["metrics"]
            check(set(got) == set(want) and
                  all(got[n]["unit"] == u for n, u in want.items()),
                  f"{what}: every declared metric, with its unit")
            check(all(any(line.startswith(f"metric {n} = ") and
                          line.endswith(f" {u}") for line in lines)
                      for n, u in want.items()),
                  f"{what}: every metric printed with its unit")
            per_trace[trace] = (digests(lines), got)
        if len(per_trace) != 2:
            continue
        check(bool(per_trace[0][0]) and per_trace[0][0] == per_trace[1][0],
              f"{workload}: traced and untraced runs give the same digests")
        layers = per_trace[1][1]
        locks = layers["lockmgr.locks_granted"]["value"]
        check((locks > 0) == (workload == "mixed_oltp80"),
              f"{workload}: lockmgr.locks_granted is {locks:g}")
        runner_metrics = [v["value"] for n, v in layers.items()
                          if n.startswith("runner.")]
        check(all(v > 0 for v in runner_metrics) == (workload == "fig5_grid")
              and (workload == "fig5_grid" or not any(runner_metrics)),
              f"{workload}: runner.* only on the grid")

    rc, _, result = bench("--workload", "join_cpu80", "--seed", "42",
                          "--seconds", "1", "--trace", "0", "--horizon", "tiny",
                          "--perturb")
    check(rc != 0 and result is not None and not result["correct"] and
          result["failed"] > 0, "perturbed config fails the digest gate")

    bare = run.build_dir() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if declared.exists():
        shutil.copy(declared, bare / declared.name)
    rc, lines, result = bench("--workload", "join_cpu80", "--seed", "1",
                              "--seconds", "1", "--trace", "0", cwd=bare,
                              script=bare / HERE.name / "run.py")
    check(rc != 0 and result is None,
          "a tree without the library sources fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
