"""Reading and checking every value that enters the package.

Targets, scales and shifts, arrays handed between layers and the settings
of constructors and configs are read here; a bad one raises ``ValueError``
that names it and, for a number, its limit.  :func:`as_vector` and
:func:`as_floats` read ``k`` components, each in a closed interval
``[lo, hi]``, which NaN is never in: a finite value lies in ``[-MAX, MAX]``,
a scale in ``[TINY, MAX]``.  :func:`check_setting`, with :func:`count`,
:func:`real` and :func:`is_seed`, rejects a setting by its name;
:func:`as_finite_array` reads an array-valued setting, such as an initial
weight matrix.

At a boundary between the layers, a value is converted once at most: a
float64 array of the expected shape, which is what the steps hand each
other, is taken as it is, or read into Python floats with one ``tolist``;
any other form (a list, another dtype, a scalar) goes through
``np.asarray`` first.  Both routes make the same checks and give the same
bits.  This module imports no other module of the package.
"""

from __future__ import annotations

import math
import operator
import sys
from contextlib import suppress

import numpy as np

_FLOAT = np.dtype(float)
# the largest finite double, and the smallest positive one
MAX = sys.float_info.max
TINY = math.ulp(0.0)


def as_float_array(a) -> np.ndarray:
    """``np.asarray(a, dtype=float)``.  A float64 array, which that call
    would return as it is, skips the call."""
    if type(a) is np.ndarray and a.dtype is _FLOAT:
        return a
    return np.asarray(a, dtype=float)


def as_vector(v, k: int, lo: float, hi: float, what: str) -> np.ndarray:
    """``v``, of shape ``(k,)`` or, when ``k`` is 1, a scalar, as a float64
    array of shape ``(k,)`` with every component in ``[lo, hi]``.  An error
    names the first component out of range, not all ``k``."""
    arr = as_float_array(v)
    if arr.shape != (k,):
        if k != 1 or arr.ndim:
            raise ValueError(f"expected {k} {what} components, got shape {arr.shape}")
        arr = arr.reshape(1)
    # one whole-array test at any k; NaN fails both comparisons
    if not (lo <= arr.min() and arr.max() <= hi):
        i = int(np.flatnonzero(~((lo <= arr) & (arr <= hi)))[0])
        raise ValueError(f"{what} {arr.item(i)!r} at component {i} is outside [{lo:.6g}, {hi:.6g}]")
    return arr


def as_floats(v, k: int, lo: float, hi: float, what: str) -> list[float]:
    """:func:`as_vector`'s value and checks, as ``k`` Python floats.  The forms
    the steps hand each other, a lone float and a float64 array of shape
    ``(k,)``, skip numpy."""
    if isinstance(v, float):
        if k == 1 and lo <= v <= hi:
            return [float(v)]
    elif type(v) is np.ndarray and v.dtype is _FLOAT and v.shape == (k,):
        values = v.tolist()
        for x in values:
            if not lo <= x <= hi:
                break
        else:
            return values
    return as_vector(v, k, lo, hi, what).tolist()


def as_finite_array(a, shape: tuple, name: str) -> np.ndarray:
    """A float64 copy of ``a``, the setting ``name``.  Unless it is numeric
    with ``shape`` and finite entries, ``ValueError`` names the setting
    and, for a wrong shape, both shapes."""
    try:
        arr = np.array(a, dtype=float)
    except (TypeError, ValueError) as exc:  # not numbers, or a ragged nesting
        raise ValueError(f"invalid {name}: {exc}") from exc
    if arr.shape != shape:
        raise ValueError(f"invalid {name}: expected shape {shape}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"invalid {name}: every entry must be finite")
    return arr


def count(n) -> int:
    """``n`` as an int, for a setting that counts something.  A bool (JSON's
    ``true`` is no count) raises ``TypeError``, and an int above
    ``sys.maxsize``, more than any array holds, ``OverflowError``."""
    if isinstance(n, bool):
        raise TypeError(f"{n!r} is not a count")
    n = operator.index(n)
    if n > sys.maxsize:
        raise OverflowError(f"{n} is more than any array holds")
    return n


def real(x):
    """``x``, for a real-valued setting; a bool compares as 0 or 1, but
    JSON's ``true`` is no number, so it raises ``TypeError`` here."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not a number")
    return x


def is_seed(s) -> bool:
    """Whether ``s`` is a seed: an int of at least 0, however large, as
    ``default_rng`` takes; JSON's ``true`` is none."""
    return not isinstance(s, bool) and operator.index(s) >= 0


def check_setting(name: str, value, ok) -> None:
    """Raise ``ValueError`` naming the setting unless ``ok(value)`` is true."""
    with suppress(TypeError, OverflowError):  # a wrong type or too large a count
        if ok(value):
            return
    raise ValueError(f"invalid {name}: {value!r}")
