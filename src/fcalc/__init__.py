"""Constructive real-analysis toolkit.

Bisection constructions, step-function integration, mean-value and
Taylor witness finders, interval covers with Lebesgue numbers, and the
implication graph of completeness-equivalent principles, all exposed as
a library and through the `fc` command line.

Submodules load on first use (``fcalc.expr``, ``from fcalc import
cover``), so ``import fcalc`` itself imports neither them nor numpy.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "calculus",
    "cover",
    "errors",
    "expr",
    "graph",
    "integrate",
    "interval",
    "sequences",
    "stepfn",
    "suprema",
    "__version__",
]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
