"""Arithmetic that runs the same on Python floats and on numpy columns.

The evaluation chain is written once. It runs on one design point as
Python floats (no numpy call overhead) or on a whole sweep grid as float64
columns, and both give the same bits. Python and numpy agree on + - * /
and sqrt, but numpy's `**` rounds differently from Python's float power
for small integer exponents, so power() raises each column element with
Python's own `**`. fmax/select keep Python's comparison order, so NaN
inputs pass or fail a check the same way in both forms.

The float path comes first and costs one Python call: where a column
reaches it, its truth value is ambiguous and numpy raises ValueError.
"""

from __future__ import annotations

import math

import numpy as np


def power(x, n: int):
    """x ** n, with the bits of Python's float power for every element."""
    if not isinstance(x, np.ndarray):
        return x ** n
    values = x.tolist()
    try:
        return np.array([v ** n for v in values])
    except OverflowError:  # where a float raises, a column holds inf
        return np.array([_power_or_inf(v, n) for v in values])


def _power_or_inf(v: float, n: int) -> float:
    try:
        return v ** n
    except OverflowError:
        return math.copysign(math.inf, v) if n % 2 else math.inf


def sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def logical_not(x):
    return np.logical_not(x) if isinstance(x, np.ndarray) else not x


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
