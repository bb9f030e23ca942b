"""Seeded integrand families shared by the workloads.

Each family is written twice from the same parameters: as fcalc grammar
text, which is all the program under test receives, and as a Python
function of ``(x, p, m)`` where ``m`` is a math namespace (``numpy`` for
cheap input calibration, ``mpmath`` for oracles).  The oracle side never
parses the text and never calls fcalc.

Parameter ranges keep the tree shape fixed and every coefficient away
from 0 and 1, so the smart constructors fold nothing and the work a task
costs does not depend on the seed.  Texts avoid unary minus, whose
precedence in the fcalc grammar differs from the usual one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple


@dataclass(frozen=True)
class Family:
    name: str
    template: str
    fn: Callable
    ranges: Tuple[Tuple[float, float], ...]

    def draw(self, rng) -> Tuple[float, ...]:
        return tuple(round(float(rng.uniform(lo, hi)), 4) for lo, hi in self.ranges)

    def text(self, p: Sequence[float]) -> str:
        return self.template.format(*(num(v) for v in p))


def num(v: float) -> str:
    """Grammar-conformant literal that parses back to exactly ``v``."""
    v = float(v)
    if v < 0:
        raise ValueError("the grammar has no negative literals")
    return repr(v)


# Smooth integrands for quadrature, witnesses and Taylor expansions.
WAVE = Family("wave", "sin({0}*x)*exp(0-{1}*x^2) + ln(1+{2}*x^2)",
              lambda x, p, m: m.sin(p[0] * x) * m.exp(-p[1] * x**2) + m.log(1 + p[2] * x**2),
              ((0.8, 1.6), (0.6, 1.2), (0.6, 1.4)))
POLY = Family("poly", "{0} + {1}*x - {2}*x^2 + {3}*x^3",
              lambda x, p, m: p[0] + p[1] * x - p[2] * x**2 + p[3] * x**3,
              ((1.1, 1.9), (1.1, 1.9), (1.1, 1.9), (0.3, 0.9)))
DAMPED = Family("damped", "exp({0}*x)*cos({1}*x)",
                lambda x, p, m: m.exp(p[0] * x) * m.cos(p[1] * x),
                ((0.3, 0.8), (1.5, 2.5)))
ROOT = Family("root", "sqrt(1 + {0}*x^2)",
              lambda x, p, m: m.sqrt(1 + p[0] * x**2),
              ((1.2, 2.0),))
LORENTZ = Family("lorentz", "1/(1 + {0}*x^2)",
                 lambda x, p, m: 1 / (1 + p[0] * x**2),
                 ((1.2, 2.0),))
SMOOTH = (WAVE, POLY, DAMPED, ROOT, LORENTZ)

# Strictly increasing on the whole real line, so a bracket has one root.
CUBIC = Family("cubic", "x^3 + {0}*x", lambda x, p, m: x**3 + p[0] * x, ((0.5, 2.0),))
EXPLIN = Family("explin", "exp({0}*x) + x", lambda x, p, m: m.exp(p[0] * x) + x, ((0.3, 0.9),))
SINLIN = Family("sinlin", "sin(x) + {0}*x", lambda x, p, m: m.sin(x) + p[0] * x, ((1.2, 2.0),))
LNLIN = Family("lnlin", "ln(1+x^2) + {0}*x", lambda x, p, m: m.log(1 + x**2) + p[0] * x,
               ((1.2, 2.0),))
MONOTONE = (CUBIC, EXPLIN, SINLIN, LNLIN)
