"""The host's speed right now, from a fixed probe loop.

On a shared virtual machine the CPU time of the same code moves by a
third for tens of seconds at a time (a neighbour on the same core, or
hypervisor steal counted as our own time), and every kind of task in
every workload slows by the same factor.  The benchmark therefore runs
a probe before each timed task and rescales the task's CPU time to a
host on which the probe takes its nominal time:

    scaled = cpu * nominal / median(probes around the task)

In-process tasks use ``probe`` (nominal 1 ms).  A fresh ``fc`` process
is mostly interpreter start and imports, which cold caches slow
differently from a hot loop, so cli tasks use ``child_probe``, a fresh
interpreter importing numpy (nominal 250 ms).  The probes are the
benchmark's own code and never touch fcalc, so a change to the program
moves the scaled times exactly as it moves the raw ones.  Raw CPU times
are still reported next to the scaled ones.
"""

import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

NOMINAL_S = 1e-3         # probe time of the nominal host
CHILD_NOMINAL_S = 0.25   # child_probe time of the nominal host
WINDOW = 9               # probes in the centred median around one task


class _Node:
    __slots__ = ("op", "a", "b", "v")

    def __init__(self, op, a=None, b=None, v=0.0):
        self.op, self.a, self.b, self.v = op, a, b, v


def _tree(depth, i=0):
    if depth == 0:
        return _Node("x") if i % 2 else _Node("c", v=1.5 + i)
    return _Node(("add", "mul", "sin")[(depth + i) % 3], _tree(depth - 1, 2 * i),
                 _tree(depth - 1, 2 * i + 1))


def _walk(n, x):
    op = n.op
    if op == "x":
        return x
    if op == "c":
        return n.v
    if op == "add":
        return _walk(n.a, x) + _walk(n.b, x)
    if op == "mul":
        return _walk(n.a, x) * _walk(n.b, x) * 0.5
    return math.sin(_walk(n.a, x))


_TREE = _tree(9)
_XS = np.linspace(-1.0, 1.0, 4096)


def probe(reps=8):
    """CPU seconds of a fixed tree walk plus numpy kernels (about 1 ms)."""
    c0 = time.process_time()
    s = 0.0
    for k in range(reps):
        s += _walk(_TREE, 0.1 * k)
        s += float(np.sum(np.sin(_XS * k) * np.exp(-_XS * _XS)))
    return time.process_time() - c0


def child_probe(cwd):
    """CPU seconds of a fresh interpreter that imports numpy."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True,
                   env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
                   timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def rescale(cpu, probes, nominal=NOMINAL_S):
    """Scale each cpu[j] by the median of the WINDOW probes centred on probes[j]."""
    half = WINDOW // 2
    out = []
    for j, c in enumerate(cpu):
        near = probes[max(0, j - half):j + half + 1]
        out.append(c * nominal / statistics.median(near))
    return out
