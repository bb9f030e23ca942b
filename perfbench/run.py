#!/usr/bin/env python3
"""fcalc benchmark: one seeded workload in a fresh process.

    python3 perfbench/run.py --workload quadrature --seed 1 --seconds 24 --trace 0

Run from the repository root (or any checkout of it).  The program is
imported from ``src/`` of that checkout; nothing is installed.  One
caller runs the workload's task list in a closed loop, pass after pass,
for ``--seconds``; every answer is checked against an oracle that does
not use fcalc.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is a JSON report with the input digest, the machine,
the tail percentile and sample count, and every failed task.

Times are CPU times of the processes doing the work (this one, or the
``fc`` child for the cli workload), rescaled by the host's current speed
as a fixed probe measures it before every task (see speed.py): on
a shared virtual machine the CPU time of the same code moves by a third
for tens of seconds at a time.  The report line gives the raw CPU and
wall-clock figures.

``--trace 1`` alternates untraced and traced passes.  Traced passes
record spans from outside the package (see tracer.py) and write them to
``.perfbench_out/`` at the end; the difference between the two kinds of
pass is reported as ``trace.overhead_pct``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed
import workloads
from tracer import COUNTS, NullTracer, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4                      # extra fresh processes timed for setup_s
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Passes every untraced run makes, even past --seconds.  The tail
# percentile is fixed from tasks x MIN_PASSES, so it does not flip when
# a slower or faster run fits one pass more or less.
MIN_PASSES = {"quadrature": 4, "witnesses": 4, "covers": 5, "cli": 2}


def load_fcalc():
    """Import fcalc from this checkout's src/, or exit with an error and no result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fcalc", "__init__.py")):
        sys.exit(f"perfbench: no fcalc sources under {src}")
    sys.path.insert(0, src)
    import fcalc
    import fcalc.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(fcalc.__file__))) != src:
        sys.exit(f"perfbench: imported fcalc from {fcalc.__file__}, not from {src}")
    return {name: getattr(fcalc, name) for name in fcalc.__all__ if name != "__version__"} | {
        "cli": fcalc.cli}


def setup(args):
    """Everything before measuring: import, generate, parse, warm up."""
    modules = load_fcalc()
    import numpy as np

    index = workloads.WORKLOADS.index(args.workload)
    tasks = workloads.generate(args.workload, np.random.default_rng([args.seed, index]),
                               args.tiny, ROOT)
    null = NullTracer(modules)
    for task in tasks:
        for text in _texts(task.spec):
            modules["expr"].parse(text)
    if args.workload == "cli":
        workloads.run_cli(ROOT, ["parse", "--text", "x"])
    else:
        warm = workloads.generate(args.workload, np.random.default_rng(0), True, ROOT)
        for task in warm:
            if task.known_defect is None:
                try:
                    task.run(null)
                except Exception:   # noqa: BLE001 - warm-up answers are not checked
                    pass
    cpu = time.process_time() + children_cpu()
    probes = [speed.probe() for _ in range(speed.WINDOW)]
    return modules, tasks, {"setup_s": speed.rescale([cpu], probes)[0], "setup_cpu_s": cpu}


def _texts(spec):
    if "argv" in spec:
        argv = spec["argv"]
        return [v for k, v in zip(argv, argv[1:]) if k in ("--f", "--text")]
    texts = [spec[k] for k in ("f", "g") if k in spec]
    if "member" in spec:
        texts += spec["member"].split("<")
    return texts


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_task(task, tracer, modules):
    """Run one task; return (answer, CPU seconds, wall seconds).

    Exceptions are answers.  A cli command's CPU time is its child's.
    """
    w0 = time.perf_counter()
    if task.run is None:   # a cli command
        argv, c0 = task.spec["argv"], children_cpu()
        if tracer.tracing:
            with tracer.span("cli.process") as rec:
                ans, rec[5]["import_ms"] = workloads.run_cli(ROOT, argv, importtime=True)
                rec[5]["cpu_ms"] = (children_cpu() - c0) * 1e3
            wall = time.perf_counter() - w0
            _cli_in_process(tracer, modules, argv)
            return ans, rec[5]["cpu_ms"] / 1e3, wall
        ans, _ = workloads.run_cli(ROOT, argv)
        return ans, children_cpu() - c0, time.perf_counter() - w0
    c0 = time.process_time()
    try:
        ans = task.run(tracer)
    except Exception as e:   # noqa: BLE001 - a raised error is the task's answer
        ans = e
    return ans, time.process_time() - c0, time.perf_counter() - w0


def _cli_in_process(tracer, modules, argv):
    """``main(argv)`` timed in-process, for cli.main_ms and the expr counts."""
    sink = io.StringIO()
    with tracer.span("cli.main"), contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        try:
            modules["cli"].main(list(argv))
        except SystemExit:
            pass
        except Exception:   # noqa: BLE001 - the subprocess run already judged this command
            pass


def measure(args, modules, tasks, truths):
    """Closed loop over whole passes of the task list for args.seconds.

    With --trace 1, untraced and traced passes alternate.  Only untraced
    passes give latency samples; each of their tasks follows a speed probe.
    """
    null = NullTracer(modules)
    tracer = Tracer(modules) if args.trace else None
    m = {"raw": [], "probes": [], "cpu": [], "wall": [], "traced_cpu": [], "layers": [],
         "failures": [], "attempted": 0, "tracer": tracer}
    elapsed = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(m["cpu"]) > len(m["traced_cpu"])
        pass_start = time.perf_counter()
        first_span = len(tracer.spans) if tracer else 0
        first_agg = len(tracer.aggregates) if tracer else 0
        cpu = wall = 0.0
        with (tracer.installed() if traced else contextlib.nullcontext()), \
                (tracer.span("pass") if traced else contextlib.nullcontext()):
            for task, truth in zip(tasks, truths):
                if traced:
                    with tracer.span("task", kind=task.kind):
                        ans, task_cpu, task_wall = run_task(task, tracer, modules)
                else:
                    m["probes"].append(speed.child_probe(ROOT) if task.run is None
                                       else speed.probe())
                    ans, task_cpu, task_wall = run_task(task, null, modules)
                    m["raw"].append(task_cpu)
                cpu += task_cpu
                wall += task_wall
                m["attempted"] += 1
                why = _judge(task, ans, truth)
                if why:
                    m["failures"].append((task, why))
        if traced:
            tracer.end_pass()
            m["layers"].append(layer_metrics(tracer, first_span, first_agg))
            m["traced_cpu"].append(cpu)
        else:
            m["cpu"].append(cpu)
            m["wall"].append(wall)
        elapsed.append(time.perf_counter() - pass_start)
        if args.trace:
            owed = not m["traced_cpu"]
        else:
            owed = len(m["cpu"]) < MIN_PASSES[args.workload]
        if not owed and time.perf_counter() - start + statistics.median(elapsed) > args.seconds:
            scaled = speed.rescale(m["raw"], m["probes"], speed.CHILD_NOMINAL_S
                                   if args.workload == "cli" else speed.NOMINAL_S)
            m["samples"] = [v * 1e3 for v in scaled]
            n = len(tasks)
            m["scaled"] = [sum(scaled[i:i + n]) for i in range(0, len(scaled), n)]
            return m


def _judge(task, ans, truth):
    try:
        return task.check(ans, truth)
    except Exception as e:   # noqa: BLE001 - an answer the check cannot read is wrong
        return f"unreadable answer ({type(e).__name__}: {e})"


def tail_percentile(tasks_per_pass, passes):
    """Highest ladder percentile with at least ten samples beyond it."""
    n = tasks_per_pass * passes
    return next((p for p in TAIL_LADDER if n * (1 - p / 100) >= 10), 50.0)


def setup_samples(args, own):
    """Set-up time of SETUP_PROBES more fresh processes, plus this one's."""
    values = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload",
           args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()[-500:]}")
        values.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return values


def machine():
    model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    import numpy as np
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(), "numpy": np.__version__,
            "commit": _commit()}


def _commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next((line.split()[0] for line in fh if line.strip().endswith(ref)),
                        "unknown")
    except OSError:
        return "unknown"


def digest(tasks):
    blob = json.dumps([t.spec for t in tasks], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    modules, tasks, own_setup = setup(args)
    if args.setup_probe:
        print(json.dumps(own_setup))
        return 0

    truths = [task.truth() for task in tasks]   # oracles: before any timing
    m = measure(args, modules, tasks, truths)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli"
                               else resource.RUSAGE_SELF)
    setups = setup_samples(args, own_setup)

    failures = m["failures"]
    report = {
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
        "input_digest": digest(tasks), "tasks_per_pass": len(tasks),
        "passes": len(m["cpu"]), "traced_passes": len(m["traced_cpu"]),
        "pass_s_all": [round(v, 4) for v in m["scaled"]],
        "pass_cpu_s_all": [round(v, 4) for v in m["cpu"]],
        "pass_wall_s_median": statistics.median(m["wall"]),
        "probe_ms_quartiles": [round(v * 1e3, 4)
                               for v in statistics.quantiles(m["probes"], n=4)],
        "machine": machine(),
        "setup_s_samples": [v["setup_s"] for v in setups],
        "setup_cpu_s_samples": [v["setup_cpu_s"] for v in setups],
        "failures": sorted({f"{t.kind} {json.dumps(t.spec)[:160]}: {why[:200]}"
                            + (f" [known defect: {t.known_defect}]" if t.known_defect else "")
                            for t, why in failures}),
    }
    if args.trace:
        metrics = _per_layer(m, report)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        out = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(out, "w") as fh:
            json.dump({"report": report, "spans": m["tracer"].spans,
                       "aggregates": m["tracer"].aggregates}, fh, default=str)
        report["trace_file"] = os.path.relpath(out, ROOT)
    else:
        import numpy as np
        p = tail_percentile(len(tasks), MIN_PASSES[args.workload])
        report["tail_percentile"], report["latency_samples"] = p, len(m["samples"])
        metrics = {
            "setup_s": (statistics.median(report["setup_s_samples"]), "s"),
            "pass_s": (statistics.median(m["scaled"]), "s"),
            "task_ms_p50": (float(np.percentile(m["samples"], 50)), "ms"),
            "task_ms_tail": (float(np.percentile(m["samples"], p)), "ms"),
            "ok_frac": (1 - len(failures) / m["attempted"], "frac"),
            "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
        }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": all(t.known_defect for t, _ in failures),
        "attempted": m["attempted"], "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _per_layer(m, report):
    """Median over traced passes; exact counts must repeat in every pass."""
    metrics = {}
    for name in m["layers"][0]:
        values = [layer[name] for layer in m["layers"]]
        if name in COUNTS:
            if len(set(values)) != 1:
                report.setdefault("unsteady_counts", {})[name] = values
            metrics[name] = (int(values[0]), "count")
        else:
            metrics[name] = (statistics.median(values), "ms")
    overhead = statistics.median(m["traced_cpu"]) / statistics.median(m["cpu"]) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
