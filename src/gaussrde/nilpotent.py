"""Arithmetic in the step-2 nilpotent group over R^d.

A group element is a pair (a, b) of a d-vector and a d x d matrix, thought of
as a path increment together with its iterated integrals.  Elements coming
from actual paths satisfy the geometric constraint Sym(b) = a (x) a / 2; only
the antisymmetric part of b (the signed areas) carries information beyond a.

Orientation convention used throughout the package:

    b[i, j] = integral of (x^i - x^i_start) dx^j  over the increment,

so the group product of (a1, b1) and (a2, b2) accumulates the cross term
``a1 (x) a2``.

The formulas are written once, in array form over leading axes (level 1
(..., d), level 2 (..., d, d)): one call covers an element, the segments of a
path or all pairs of its grid points.  With no leading axes a call is one
element: the identity is a pair of zero arrays, the inverse of (a, b) is
``increment(a, b, 0, 0)``, and `area`, `norm` and `residual` give its log
coordinate and its scalars.  `increment_norm` takes component-first arrays
instead, so that each entry is one operation over the leading axes.
"""

from __future__ import annotations

import itertools

import numpy as np

GEOMETRIC_TOL = 1e-9


def tensor(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Outer product over the last axis: (..., d), (..., d) -> (..., d, d)."""
    return x[..., :, None] * y[..., None, :]


def product(a1, b1, a2, b2) -> tuple[np.ndarray, np.ndarray]:
    """Group product (a1 + a2, b1 + b2 + a1 (x) a2): the Chen relation."""
    return a1 + a2, b1 + b2 + tensor(a1, a2)


def increment(a_s, b_s, a_t, b_t) -> tuple[np.ndarray, np.ndarray]:
    """Relative increment g_s^{-1} g_t: (da, b_t - b_s - a_s (x) da), da = a_t - a_s."""
    da = a_t - a_s
    return da, b_t - b_s - tensor(a_s, da)


def area(a, b) -> np.ndarray:
    """Signed area Anti(b - a (x) a / 2); the log coordinate of level 2."""
    rest = b - 0.5 * tensor(a, a)
    return 0.5 * (rest - np.swapaxes(rest, -1, -2))


def increment_norm(a_s, b_s, a_t, b_t) -> np.ndarray:
    """Homogeneous norm of the increment g_s^{-1} g_t, the one formula for it.

    Component-first arrays: level 1 as d arrays a[i] (...), level 2 as d x d
    arrays b[i, k] (...), the s and t sides broadcasting against each other;
    b_s = b_t = None is a path without level 2 (the Euclidean norm of da).
    Each area entry is taken in the order `increment` and `area` take it:
    B_ik = (b_t - b_s)_ik - a_s,i da_k and x_ik = 0.5 ((B_ik - h) - (B_ki - h))
    with h = 0.5 (da_i da_k), so |area|_F^2 = 2 sum_{i<k} x_ik^2.
    """
    da = [a_t[i] - a_s[i] for i in range(len(a_t))]
    length2 = sum(x * x for x in da)
    area2 = 0.0
    if b_t is not None:
        for i, k in itertools.combinations(range(len(da)), 2):
            half = 0.5 * (da[i] * da[k])
            x = 0.5 * (((b_t[i, k] - b_s[i, k]) - a_s[i] * da[k] - half)
                       - ((b_t[k, i] - b_s[k, i]) - a_s[k] * da[i] - half))
            area2 = area2 + x * x
    return np.maximum(np.sqrt(length2), np.sqrt(np.sqrt(2.0 * area2)))


def norm(a, b) -> np.ndarray:
    """Dilation-homogeneous norm max(|a|_2, |area|_F^(1/2)), shape (...): the
    increment from the identity, exact for finite entries."""
    a, b = np.moveaxis(a, -1, 0), np.moveaxis(b, (-2, -1), (0, 1))
    return increment_norm(np.zeros_like(a), np.zeros_like(b), a, b)


def residual(a, b) -> np.ndarray:
    """Max |entry| of Sym(b) - a (x) a / 2, shape (...); ~0 exactly on paths."""
    sym = 0.5 * (b + np.swapaxes(b, -1, -2))
    return np.max(np.abs(sym - 0.5 * tensor(a, a)), axis=(-2, -1), initial=0.0)
