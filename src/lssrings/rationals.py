"""Exact rational arithmetic: ``QQ`` is ``fractions.Fraction``.

Everything in the package builds its rationals through ``QQ``.
"""

from __future__ import annotations

import math
from fractions import Fraction as QQ

BACKEND = "fractions"   # perfbench/run.py reports it in its environment block

ZERO = QQ(0)


def common_denominator(values) -> int:
    """Least common multiple of the denominators of ``values``."""
    den = 1
    for q in values:
        den = math.lcm(den, q.denominator)
    return den


def scale_to_integers(values: dict) -> dict:
    """Scale a rational-valued map by the common denominator; values become int."""
    den = common_denominator(values.values())
    return {k: q.numerator * (den // q.denominator) for k, q in values.items()}


def rat_str(q) -> str:
    """Render exactly: '3' or '-2/7'."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
