"""Arithmetic that runs the same on Python floats and on numpy columns.

The evaluation chain is written once. It runs on one design point as
Python floats (no numpy call overhead) or on a whole sweep grid as float64
columns, and both give the same bits. Python and numpy agree on + - * /
and sqrt, but numpy's `**` rounds differently from Python's float power
for small integer exponents, np.arcsin from math.asin on about 8% of
[0, 1), and numpy's vectorized sin need not match math.sin either, so
power(), asin() and sin() take each column element through Python's own
arithmetic. fmax/select keep Python's comparison order, so
NaN inputs pass or fail a check the same way in both forms.

The float path comes first and costs one Python call: where a column
reaches it, its truth value is ambiguous and numpy raises ValueError.

Columns run under float_errors(), so they fault wherever floats may raise
(a zero divisor, an overflowing power, a math domain error), and also
where floats run on to inf: a pass that faults vouches for no point.
"""

from __future__ import annotations

import math

import numpy as np


def power(x, n: int):
    """x ** n, with the bits and the OverflowError of Python's float power."""
    if not isinstance(x, np.ndarray):
        return x ** n
    values = x.tolist()
    return np.array([v ** n for v in values])


def float_errors():
    """np.errstate that raises at each IEEE 754 fault but underflow."""
    return np.errstate(all="raise", under="ignore")


def sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def asin(x):
    return _each(math.asin, x)


def sin(x):
    return _each(math.sin, x)


def _each(f, x):
    """f(x) for a float; for a column, f on each element, with its bits."""
    if not isinstance(x, np.ndarray):
        return f(x)
    return np.array([f(v) for v in x.tolist()])


def select(condition, if_true, if_false):
    """`if_true if condition else if_false`, elementwise on columns."""
    try:
        return if_true if condition else if_false
    except ValueError:
        return np.where(condition, if_true, if_false)


def fmax(a, b):
    """Python's max(a, b): b only where b > a."""
    try:
        return max(a, b)
    except ValueError:
        return np.where(b > a, b, a)
