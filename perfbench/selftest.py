#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload on tiny inputs.

    python3 perfbench/selftest.py

For each workload it runs ``run.py --tiny`` untraced and traced, and
asserts that the result line has exactly the contract's keys, that every
metric BENCHMARK.json names is emitted with its unit, that the exact
counts are integers, that answers were judged correct, and that both
runs saw the same input digest.  It also checks that the benchmark
refuses to run, without printing a result, in a directory that holds
only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_COUNTS = ("expr.points", "expr.node_evals", "integrate.cells",
                "suprema.bisect.iterations", "cover.pieces")


def run(cwd, workload, trace, seed=3):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)


def check_workload(spec, workload):
    reports = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(ROOT, workload, trace)
        assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr[-2000:]}"
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True, report["failures"]
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert isinstance(result["failed"], int)
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = result["metrics"]
        assert set(got) == set(want), set(got) ^ set(want)
        for name, unit in want.items():
            assert got[name]["unit"] == unit, (name, got[name])
            assert isinstance(got[name]["value"], (int, float)), (name, got[name])
        if trace:
            for name in EXACT_COUNTS:
                assert isinstance(got[name]["value"], int), (name, got[name])
            assert "unsteady_counts" not in report, report["unsteady_counts"]
        reports.append(report)
    assert reports[0]["input_digest"] == reports[1]["input_digest"], workload
    for key in ("nproc", "cpu_model", "python", "numpy", "commit"):
        assert key in reports[0]["machine"], key
    print(f"ok {workload}: digest {reports[0]['input_digest'][:12]}")


def check_refuses_without_program():
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, "quadrature", 0)
        assert proc.returncode != 0, "ran without fcalc sources"
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without src/fcalc")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        check_workload(spec, workload)
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
