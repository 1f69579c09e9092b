"""Exact rational arithmetic backend.

gmpy2.mpq is used when available (noticeably faster on pivot-heavy
workloads); fractions.Fraction is the drop-in fallback. Everything in
the package goes through ``QQ`` so the two backends stay interchangeable.
"""

from __future__ import annotations

import math

try:
    from gmpy2 import mpq as QQ

    BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as QQ

    BACKEND = "fractions"

ZERO = QQ(0)


def is_integer(q) -> bool:
    return q.denominator == 1


def common_denominator(values) -> int:
    """Least common multiple of the denominators of ``values``."""
    den = 1
    for q in values:
        den = math.lcm(den, int(q.denominator))
    return den


def scale_to_integers(values: dict) -> dict:
    """Scale a rational-valued map by the common denominator; values become int."""
    den = common_denominator(values.values())
    return {k: int(q.numerator) * (den // int(q.denominator)) for k, q in values.items()}


def rat_str(q) -> str:
    """Render exactly: '3' or '-2/7'."""
    if is_integer(q):
        return str(int(q.numerator))
    return f"{int(q.numerator)}/{int(q.denominator)}"
