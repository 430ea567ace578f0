"""Arithmetic in the step-2 nilpotent group over R^d.

A group element is a pair (a, b) of a d-vector and a d x d matrix, thought of
as a path increment together with its iterated integrals.  Elements coming
from actual paths satisfy the geometric constraint Sym(b) = a (x) a / 2; only
the antisymmetric part of b (the signed areas) carries information beyond a.

Orientation convention used throughout the package:

    b[i, j] = integral of (x^i - x^i_start) dx^j  over the increment,

so the group product accumulates the cross term ``left.a (x) right.a``.

The formulas are written once, in array form over leading axes (level 1
(..., d), level 2 (..., d, d)): one call covers an element, the segments of a
path or all pairs of its grid points.  `increment_norm` takes component-first
arrays instead, so that each entry is one operation over the leading axes.
`G2Element` is the one-element view.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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


@dataclass(frozen=True)
class G2Element:
    """One step-2 group element: increment vector plus iterated-integral matrix.

    Treated as immutable; operations return new elements and never write to
    the stored arrays.
    """

    level1: np.ndarray
    level2: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.level1, dtype=float)
        b = np.asarray(self.level2, dtype=float)
        if a.ndim != 1:
            raise ValueError(f"level1 must be a vector, got shape {a.shape}")
        if b.shape != (a.size, a.size):
            raise ValueError(
                f"level2 shape {b.shape} inconsistent with level1 of dimension {a.size}"
            )
        object.__setattr__(self, "level1", a)
        object.__setattr__(self, "level2", b)

    @property
    def dim(self) -> int:
        return self.level1.size


@dataclass(frozen=True)
class LogCoordinates:
    """Lie-algebra coordinates: the increment and the antisymmetric area matrix."""

    increment: np.ndarray
    area: np.ndarray


def g2_identity(dim: int) -> G2Element:
    return G2Element(np.zeros(dim), np.zeros((dim, dim)))


def _require_same_dim(g: G2Element, h: G2Element) -> None:
    if g.dim != h.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {h.dim}")


def g2_product(g: G2Element, h: G2Element) -> G2Element:
    """Group product; the product of geometric elements is geometric."""
    _require_same_dim(g, h)
    return G2Element(*product(g.level1, g.level2, h.level1, h.level2))


def g2_inverse(g: G2Element) -> G2Element:
    """Group inverse (-a, -b + a (x) a), the increment from g to the identity."""
    return g2_increment(g, g2_identity(g.dim))


def g2_increment(g_s: G2Element, g_t: G2Element) -> G2Element:
    """Relative increment g_s^{-1} * g_t between two absolute elements."""
    _require_same_dim(g_s, g_t)
    return G2Element(*increment(g_s.level1, g_s.level2, g_t.level1, g_t.level2))


def geometricity_residual(g: G2Element) -> float:
    """Max absolute entry of Sym(level2) - level1 (x) level1 / 2."""
    return float(residual(g.level1, g.level2))


def log_map(g: G2Element) -> LogCoordinates:
    """Map a geometric element to (increment, signed-area) coordinates.

    The symmetric part of level2 is redundant for geometric elements; what
    remains is the antisymmetric area matrix b - a (x) a / 2.

    Raises ValueError if the geometric constraint is violated beyond
    GEOMETRIC_TOL, reporting the worst symmetric-part residual.
    """
    res = geometricity_residual(g)
    if res > GEOMETRIC_TOL:
        raise ValueError(
            f"element is not geometric: max symmetric-part residual {res:.3e} "
            f"exceeds tolerance {GEOMETRIC_TOL:.1e}"
        )
    return LogCoordinates(g.level1.copy(), area(g.level1, g.level2))


def homogeneous_norm(g: G2Element) -> float:
    """Dilation-homogeneous norm max(|a|_2, |area|_F^(1/2)).

    Under the dilation a -> lam*a, b -> lam^2*b the value scales exactly by
    lam.  This fixed representative of the (equivalence class of) homogeneous
    norms is used for every p-variation computation in the package.
    """
    return float(norm(g.level1, g.level2))
