"""Exact rationals are ``fractions.Fraction``; no program module imports this.

``perfbench/run.py`` is the only reader: it reports ``BACKEND``.
"""

BACKEND = "fractions"
