"""Arithmetic in the step-2 nilpotent group over R^d.

A group element is a pair (a, b) of a d-vector and a d x d matrix, thought of
as a path increment together with its iterated integrals.  Elements coming
from actual paths satisfy the geometric constraint Sym(b) = a (x) a / 2; only
the antisymmetric part of b (the signed areas) carries information beyond a.

Orientation convention used throughout the package:

    b[i, j] = integral of (x^i - x^i_start) dx^j  over the increment,

so the group product of (a1, b1) and (a2, b2) accumulates the cross term
``a1 (x) a2``.

The formulas are written once, in array form over trailing axes: level 1
is (d, ...) and level 2 (d, d, ...), components first, so that each entry
is one contiguous operation over the stack (a path's grid and its samples,
all pairs of its grid points).  Operands broadcast as numpy aligns their
trailing axes, so one element meets a stack of m as a[:, None] and
b[:, :, None].  With no trailing axes a call is one element,
(d,) and (d, d): the identity is a pair of zero arrays, the inverse of
(a, b) is ``increment(a, b, 0, 0)``, and `area`, `norm` and `residual` give
its log coordinate and its scalars.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

GEOMETRIC_TOL = 1e-9


def tensor(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Outer product over the first axis: (d, ...), (d, ...) -> (d, d, ...)."""
    return x[:, None] * y[None, :]


def _component_first(a: np.ndarray, b: np.ndarray) -> tuple:
    """Views (d, n, ...) and (d, d, n, ...) of a path's levels (..., n, d) and
    (..., n, d, d): components first, grid second, samples last."""
    return np.moveaxis(a, (-2, -1), (1, 0)), np.moveaxis(b, (-3, -2, -1), (2, 0, 1))


def _sample_first(a: np.ndarray, b: np.ndarray) -> tuple:
    """The inverse of `_component_first`."""
    return np.moveaxis(a, (1, 0), (-2, -1)), np.moveaxis(b, (2, 0, 1), (-3, -2, -1))


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
    return 0.5 * (rest - np.swapaxes(rest, 0, 1))


def increment_norm(a_s, b_s, a_t, b_t) -> np.ndarray:
    """Homogeneous norm of the increment g_s^{-1} g_t, the one formula for it.

    Component-first arrays: level 1 as d arrays a[i] (...), level 2 as d x d
    arrays b[i, k] (...), the s and t sides broadcasting against each other;
    b_s = b_t = None is a path without level 2 (the Euclidean norm of da).
    Each area entry is taken in the order `increment` and `area` take it:
    B_ik = (b_t - b_s)_ik - a_s,i da_k and x_ik = 0.5 ((B_ik - h) - (B_ki - h))
    with h = 0.5 (da_i da_k), so |area|_F^2 = 2 sum_{i<k} x_ik^2.  One
    component's length is |da| itself, which no square underflows or
    overflows, and its area is 0; for d >= 2 it is sqrt(sum da_i^2), which
    can (`young.p_variation` factors a power of two out of such a path).
    Sums run from their first term and temporaries are updated in place, so
    every entry rounds as in the formula written out.  The norm takes one
    root, sqrt(max(|da|^2, |area|_F)), for max(|da|, |area|_F^(1/2)): a
    correctly rounded sqrt is monotone, so the root of the larger argument
    is the larger of the two roots, bit for bit.
    """
    da = a_t - a_s
    if len(da) == 1:
        return np.abs(da[0])
    length = functools.reduce(operator.iadd, (x * x for x in da))
    if b_t is None:
        return np.sqrt(length)
    area2 = functools.reduce(operator.iadd, (
        _area_square(a_s, b_s, b_t, da, i, k)
        for i, k in itertools.combinations(range(len(da)), 2)))
    area2 *= 2.0
    return np.sqrt(np.maximum(length, np.sqrt(area2)))


def _area_square(a_s, b_s, b_t, da, i: int, k: int):
    """x_ik^2 of `increment_norm`, each temporary updated in place."""
    half = da[i] * da[k]
    half *= 0.5
    x = b_t[i, k] - b_s[i, k]
    x -= a_s[i] * da[k]
    x -= half
    y = b_t[k, i] - b_s[k, i]
    y -= a_s[k] * da[i]
    y -= half
    x -= y
    x *= 0.5
    x *= x
    return x


def norm(a, b) -> np.ndarray:
    """Dilation-homogeneous norm max(|a|_2, |area|_F^(1/2)), shape (...): the
    increment from the identity, exact for finite entries.  Far from unit
    size it is 2^k times the norm of the element dilated by 2^-k, with k of
    `exponents` for the fourth powers of an area's entries; k = 0 in range,
    and for one component, whose norm is |a|."""
    k = exponents(a, b, 4.0, 1) if len(a) > 1 else 0
    a, b = np.ldexp(a, -k), np.ldexp(b, -2 * k)
    return np.ldexp(increment_norm(np.zeros_like(a), np.zeros_like(b), a, b), k)


def exponents(a, b, q: float, lead: int) -> np.ndarray:
    """The power of two 2^k to factor out of elements (a, b), component-first,
    whose formulas form q-th powers of their size: a is scaled by 2^-k and b
    by 2^-2k, a dilation, exact for every entry that stays normal.  The size
    S = max(|a|, |b|^(1/2)) over the first `lead` axes of a and `lead` + 1
    of b (b None: |a| alone) lies in [2^(e-1), 2^e).  k = 0 while that
    binade keeps S^q >= 2^-960 and (2S)^q <= 2^1000, so that no term that
    shows in a sum leaves the normal range; k = e otherwise."""
    size = _largest(a, tuple(range(lead)))
    if b is not None:
        size = np.maximum(size, np.sqrt(_largest(b, tuple(range(lead + 1)))))
    e = np.frexp(size)[1]
    return np.where((q * (e - 1) >= -960) & (q * (e + 1) <= 1000), 0, e)


def _largest(x: np.ndarray, axes: tuple) -> np.ndarray:
    """max |x| over `axes` with no |x| temporary: that of a planar chunk's
    level 2 (156 KB) raised a run's peak RSS by about 0.1 MB."""
    return np.maximum(x.max(axis=axes, initial=0.0), -x.min(axis=axes, initial=0.0))


def residual(a, b) -> np.ndarray:
    """Max |entry| of Sym(b) - a (x) a / 2, shape (...); ~0 exactly on paths."""
    sym = 0.5 * (b + np.swapaxes(b, 0, 1))
    return np.max(np.abs(sym - 0.5 * tensor(a, a)), axis=(0, 1), initial=0.0)
