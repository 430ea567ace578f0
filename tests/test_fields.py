import re
from dataclasses import replace

import numpy as np
import pytest

from gaussrde import (
    VectorFieldSystem,
    constant_fields,
    ellipticity_rank,
    linear_fields,
    polynomial_fields,
    rotation_fields,
)


def strip_derivatives(vf):
    """Same value map, derivatives forced through finite differences."""
    return VectorFieldSystem(e=vf.e, d=vf.d, value=vf.value, name=vf.name)


def example_polynomial(e=2, d=2, seed=50):
    rng = np.random.default_rng(seed)
    return polynomial_fields(
        c0=rng.standard_normal((d, e)) * 0.5,
        c1=rng.standard_normal((d, e, e)) * 0.4,
        c2=rng.standard_normal((d, e, e, e)) * 0.3,
        c3=rng.standard_normal((d, e, e, e, e)) * 0.1,
    )


def test_linear_fields_shapes_and_values():
    A = np.stack([np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2)])
    b = np.array([[0.5, 0.0], [0.0, -0.5]])
    vf = linear_fields(A, b)
    assert (vf.d, vf.e) == (2, 2)
    y = np.array([1.0, 2.0])
    assert np.allclose(vf.val(y), A @ y + b)
    assert np.allclose(vf.jac(y), A)
    assert np.allclose(vf.hess(y), 0.0)
    assert vf.derivative_mode == "analytic"
    assert not vf.has_drift


def test_linear_fields_with_drift():
    A = np.zeros((1, 2, 2))
    A0 = np.array([[0.1, 0.0], [0.0, -0.2]])
    b0 = np.array([0.3, 0.4])
    vf = linear_fields(A, drift=(A0, b0))
    assert vf.has_drift
    y = np.array([2.0, -1.0])
    assert np.allclose(vf.drift_val(y), A0 @ y + b0)
    assert np.allclose(vf.drift_jac(y), A0)
    assert np.allclose(vf.drift_hess(y), 0.0)


def test_constant_fields_kill_derivatives():
    c = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    vf = constant_fields(c)
    y = np.array([3.0, -4.0])
    assert np.allclose(vf.val(y), c)
    assert np.allclose(vf.jac(y), 0.0)
    assert np.allclose(vf.hess(y), 0.0)


def test_rotation_fields_span_plane():
    vf = rotation_fields()
    assert (vf.d, vf.e) == (2, 2)
    y = np.array([0.3, 0.7])
    V = vf.val(y)
    assert np.allclose(V[0], np.array([-y[1], y[0]]) + np.array([1.0, 0.0]))
    assert ellipticity_rank(vf, y) == 2
    assert ellipticity_rank(vf, np.zeros(2)) == 2


def test_value_shape_guard():
    vf = VectorFieldSystem(e=2, d=2, value=lambda y: np.zeros(3))
    with pytest.raises(ValueError):
        vf.val(np.zeros(2))


def test_finite_difference_matches_analytic_jacobian_and_hessian():
    """The documented derivative invariant: analytic and finite-difference
    derivatives agree to 1e-6 relative at random states."""
    vf = example_polynomial()
    fd = strip_derivatives(vf)
    assert fd.derivative_mode == "finite-difference"
    rng = np.random.default_rng(51)
    for _ in range(100):
        y = rng.uniform(-2.0, 2.0, size=2)
        ja, jf = vf.jac(y), fd.jac(y)
        assert np.max(np.abs(ja - jf)) <= 1e-6 * (1.0 + np.max(np.abs(ja)))
        ha, hf = vf.hess(y), fd.hess(y)
        assert np.max(np.abs(ha - hf)) <= 1e-6 * (1.0 + np.max(np.abs(ha)))


def test_finite_difference_linear_exact():
    A = np.stack([np.array([[0.2, -0.4], [0.1, 0.5]])])
    vf = linear_fields(A)
    fd = strip_derivatives(vf)
    y = np.array([0.6, -1.1])
    # central differences are exact for affine maps up to roundoff
    assert np.allclose(fd.jac(y), A, atol=1e-9)
    assert np.allclose(fd.hess(y), 0.0, atol=1e-6)


def test_polynomial_hessian_symmetry():
    vf = example_polynomial(seed=52)
    rng = np.random.default_rng(53)
    for _ in range(10):
        H = vf.hess(rng.uniform(-3, 3, size=2))
        assert np.allclose(H, np.swapaxes(H, 2, 3), atol=1e-12)


def test_polynomial_fields_are_bounded():
    vf = example_polynomial(seed=54)
    far = vf.val(np.array([1e6, -1e6]))
    saturated = vf.val(np.array([50.0, -50.0]))
    assert np.allclose(far, saturated, atol=1e-12)
    assert np.all(np.isfinite(far))
    # derivatives flatten out past the squashing radius
    assert np.allclose(vf.jac(np.array([1e6, -1e6])), 0.0, atol=1e-12)


def test_polynomial_matches_raw_polynomial_near_origin():
    rng = np.random.default_rng(55)
    c0 = rng.standard_normal((2, 2))
    c1 = rng.standard_normal((2, 2, 2))
    vf = polynomial_fields(c0, c1, radius=100.0)
    y = np.array([0.2, -0.1])
    # with a huge radius the squashing is the identity to high order
    assert np.allclose(vf.val(y), c0 + c1 @ y, atol=1e-7)


def test_polynomial_symmetrization_preserves_values():
    rng = np.random.default_rng(56)
    c0 = np.zeros((1, 2))
    c2 = rng.standard_normal((1, 2, 2, 2))
    c2_sym = 0.5 * (c2 + np.swapaxes(c2, 2, 3))
    a = polynomial_fields(c0, c2=c2)
    b = polynomial_fields(c0, c2=c2_sym)
    for _ in range(5):
        y = rng.uniform(-2, 2, size=2)
        assert np.allclose(a.val(y), b.val(y), atol=1e-12)
        assert np.allclose(a.jac(y), b.jac(y), atol=1e-12)


def test_ellipticity_rank_detects_deficiency():
    assert ellipticity_rank(constant_fields(np.array([[1.0, 0.0]])),
                            np.zeros(2)) == 1
    assert ellipticity_rank(constant_fields(np.zeros((2, 2))), np.zeros(2)) == 0
    # at the origin these two affine fields evaluate to parallel vectors
    A = np.stack([np.eye(2), 2.0 * np.eye(2)])
    vf = linear_fields(A, b=np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert ellipticity_rank(vf, np.zeros(2)) == 1


def test_coefficient_shape_guards():
    with pytest.raises(ValueError):
        linear_fields(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        linear_fields(np.zeros((1, 2, 2)), b=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        constant_fields(np.zeros(3))
    with pytest.raises(ValueError):
        polynomial_fields(np.zeros((1, 2)), c1=np.zeros((1, 3, 3)))
    with pytest.raises(ValueError):
        polynomial_fields(np.zeros((1, 2)), radius=0.0)
    with pytest.raises(ValueError, match=re.escape("c0 must be (d, e), got (3,)")):
        polynomial_fields(np.zeros(3))
    with pytest.raises(ValueError, match=re.escape("shifts must be (2, 2), got (2, 3)")):
        rotation_fields((1.0, 0.5), shifts=np.zeros((2, 3)))


def fd_hessian_reference(fn, y, out_shape, step=1.2e-4):
    """The second-difference stencil that stacked first differences replaced:
    +-2h on the diagonal, +-h for the mixed terms."""
    y = np.asarray(y, dtype=float)
    e = y.size
    h = step * max(1.0, float(np.max(np.abs(y))))
    out = np.zeros(out_shape + (e, e))
    f0 = np.asarray(fn(y), dtype=float)
    for b in range(e):
        eb = np.zeros(e)
        eb[b] = h
        out[..., b, b] = (fn(y + 2 * eb) - 2 * f0 + fn(y - 2 * eb)) / (4 * h * h)
        for c in range(b + 1, e):
            ec = np.zeros(e)
            ec[c] = h
            mixed = (fn(y + eb + ec) - fn(y + eb - ec) - fn(y - eb + ec)
                     + fn(y - eb - ec)) / (4 * h * h)
            out[..., b, c] = out[..., c, b] = mixed
    return out


def test_finite_difference_hessian_matches_the_second_difference_stencil():
    vf = example_polynomial(seed=57)

    def drift(y):
        return vf.value(y)[..., 0, :]

    fd = VectorFieldSystem(e=vf.e, d=vf.d, value=vf.value, drift=drift)
    rng = np.random.default_rng(58)
    for y in rng.uniform(-3.0, 3.0, size=(50, 2)):
        for new, ref in ((fd.hess(y), fd_hessian_reference(vf.value, y, (2, 2))),
                         (fd.drift_hess(y), fd_hessian_reference(drift, y, (2,)))):
            assert np.max(np.abs(new - ref)) <= 1e-7 * (1.0 + np.max(np.abs(ref)))


def rotation_reference(omegas, shifts):
    """The rotation family's own closures, before it became a linear system."""
    A = omegas[:, None, None] * np.array([[0.0, -1.0], [1.0, 0.0]])
    d = omegas.size
    return VectorFieldSystem(
        e=2, d=d, value=lambda y: (A * y[..., None, None, :]).sum(axis=-1) + shifts,
        jacobian=lambda y: A, hessian=lambda y: np.zeros((d, 2, 2, 2)),
        name="rotation", broadcasts=True)


def constant_reference(c):
    d, e = c.shape
    return VectorFieldSystem(
        e=e, d=d, value=lambda y: c, jacobian=lambda y: np.zeros((d, e, e)),
        hessian=lambda y: np.zeros((d, e, e, e)), name="constant", broadcasts=True)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rotation_and_constant_families_match_their_closures(d):
    rng = np.random.default_rng(59 + d)
    omegas = rng.uniform(-2.0, 2.0, size=d)
    default_shifts = np.zeros((d, 2))
    default_shifts[:min(d, 2)] = np.eye(2)[:d]
    c = rng.standard_normal((d, 3))
    cases = [(rotation_fields(omegas), rotation_reference(omegas, default_shifts)),
             (rotation_fields(omegas, 2 * default_shifts),
              rotation_reference(omegas, 2 * default_shifts)),
             (constant_fields(c), constant_reference(c))]
    for new, ref in cases:
        assert (new.name, new.d, new.e, new.broadcasts, new.derivative_mode) == (
            ref.name, ref.d, ref.e, ref.broadcasts, ref.derivative_mode)
        for y in (rng.standard_normal(new.e), rng.standard_normal((7, new.e)),
                  rng.standard_normal((1, new.e))):
            for name in ("val", "jac", "hess"):
                a, b = getattr(new, name)(y), getattr(ref, name)(y)
                assert a.shape == b.shape and np.array_equal(a, b), name


def test_a_declared_affine_form_is_checked_against_the_fields():
    """A replace that keeps a stale affine form raises ValueError: new values
    (the solver would step the old fields), a drift added to a system
    without an affine drift, a drift removed from one with it and a new
    drift.  Every affine family, with and without drift, still constructs,
    and clearing the form along with new fields works."""
    A = np.ones((1, 1, 1))
    vf = linear_fields(A)
    with_drift = linear_fields(A, drift=(np.full((1, 1), 0.5), np.array([0.1])))
    stale = [lambda: replace(vf, value=lambda y: 2.0 * y[..., None, :]),
             lambda: replace(vf, drift=lambda y: y),
             lambda: replace(with_drift, drift=None),
             lambda: replace(with_drift, drift=lambda y: 0.5 * y)]
    for make in stale:
        with pytest.raises(ValueError, match="replace `affine`"):
            make()
    planar = linear_fields(np.array([[[0.3, -0.2], [0.1, 0.4]], [[0.0, 0.5], [-0.5, 0.0]]]),
                           np.array([[0.2, 0.0], [0.0, 0.3]]),
                           drift=(np.array([[-0.1, 0.2], [0.0, -0.3]]), np.array([0.1, 0.2])))
    families = [vf, with_drift, planar, constant_fields(np.array([[1.0, 0.2], [-0.3, 1.0]])),
                rotation_fields(), rotation_fields((2.0, -1.0, 0.5), np.ones((3, 2)))]
    for family in families:
        assert family.affine is not None and replace(family, name="renamed").affine is not None
        y = np.linspace(0.7, -0.4, family.e)
        doubled = replace(family, value=lambda y, f=family: 2.0 * f.value(y), affine=None)
        assert doubled.affine is None
        assert np.array_equal(doubled.val(y), 2.0 * family.val(y))
