import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gaussrde import nilpotent
from gaussrde import (
    G2Element,
    g2_identity,
    g2_increment,
    g2_inverse,
    g2_product,
    geometricity_residual,
    homogeneous_norm,
    log_map,
)

TOL = 1e-12


def random_geometric(rng, d):
    """Random group element: level 2 = a (x) a / 2 + antisymmetric area."""
    a = rng.standard_normal(d)
    s = rng.standard_normal((d, d))
    area = 0.5 * (s - s.T)
    return G2Element(a, 0.5 * np.outer(a, a) + area)


def residual(g, h):
    return max(np.max(np.abs(g.level1 - h.level1)),
               np.max(np.abs(g.level2 - h.level2)))


def test_identity_and_inverse():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        e = g2_identity(d)
        for _ in range(50):
            g = random_geometric(rng, d)
            assert residual(g2_product(g, e), g) == 0
            assert residual(g2_product(e, g), g) == 0
            assert residual(g2_product(g, g2_inverse(g)), e) < TOL
            assert residual(g2_product(g2_inverse(g), g), e) < TOL


def test_associativity():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3):
        for _ in range(50):
            g, h, k = (random_geometric(rng, d) for _ in range(3))
            lhs = g2_product(g2_product(g, h), k)
            rhs = g2_product(g, g2_product(h, k))
            assert residual(lhs, rhs) < TOL


def test_product_preserves_geometricity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        g = random_geometric(rng, 3)
        h = random_geometric(rng, 3)
        assert geometricity_residual(g2_product(g, h)) < TOL


def test_chen_split_identity():
    # increments compose: (g_s^-1 g_t)(g_t^-1 g_u) = g_s^-1 g_u
    rng = np.random.default_rng(3)
    for _ in range(100):
        gs, gt, gu = (random_geometric(rng, 2) for _ in range(3))
        joined = g2_product(g2_increment(gs, gt), g2_increment(gt, gu))
        assert residual(joined, g2_increment(gs, gu)) < TOL


def test_log_map_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(50):
        g = random_geometric(rng, 3)
        coords = log_map(g)
        assert np.allclose(coords.increment, g.level1)
        # area is the antisymmetric remainder of level 2
        rebuilt = 0.5 * np.outer(g.level1, g.level1) + coords.area
        assert np.allclose(rebuilt, g.level2, atol=TOL)
        assert np.allclose(coords.area, -coords.area.T, atol=TOL)


def test_log_map_rejects_nongeometric():
    g = G2Element(np.array([1.0, 0.0]), np.eye(2))
    with pytest.raises(ValueError):
        log_map(g)


def test_homogeneous_norm_dilation():
    """The norm scales exactly linearly under (a, b) -> (c a, c^2 b)."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = random_geometric(rng, 3)
        for c in (0.25, 2.0, 10.0):
            scaled = G2Element(c * g.level1, c * c * g.level2)
            assert np.isclose(homogeneous_norm(scaled),
                              c * homogeneous_norm(g), rtol=1e-12)


def test_homogeneous_norm_pure_area():
    area = np.array([[0.0, 3.0], [-3.0, 0.0]])
    g = G2Element(np.zeros(2), area)
    # Frobenius norm of the area block is sqrt(2) * 3
    assert np.isclose(homogeneous_norm(g), (np.sqrt(2) * 3) ** 0.5)


def test_element_validation():
    with pytest.raises(ValueError):
        G2Element(np.zeros(2), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        G2Element(np.zeros((2, 2)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Array-form algebra on stacks against the one-element functions
# ---------------------------------------------------------------------------
finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def geometric_stacks(draw, count=1):
    """`count` stacks of k geometric elements of dimension d, as (a, b) pairs."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 6))
    out = []
    for _ in range(count):
        a = draw(hnp.arrays(float, (k, d), elements=finite))
        s = draw(hnp.arrays(float, (k, d, d), elements=finite))
        out.append((a, 0.5 * nilpotent.tensor(a, a) + 0.5 * (s - np.swapaxes(s, 1, 2))))
    return out


def elements(a, b):
    return [G2Element(a[i], b[i]) for i in range(a.shape[0])]


def assert_stack_equals(a, b, elems):
    np.testing.assert_array_equal(a, np.array([g.level1 for g in elems]))
    np.testing.assert_array_equal(b, np.array([g.level2 for g in elems]))


@settings(max_examples=60, deadline=None)
@given(geometric_stacks(count=2))
def test_array_product_and_increment_match_elementwise(stacks):
    (a1, b1), (a2, b2) = stacks
    g, h = elements(a1, b1), elements(a2, b2)
    assert_stack_equals(*nilpotent.product(a1, b1, a2, b2),
                        [g2_product(x, y) for x, y in zip(g, h)])
    assert_stack_equals(*nilpotent.increment(a1, b1, a2, b2),
                        [g2_increment(x, y) for x, y in zip(g, h)])


@settings(max_examples=60, deadline=None)
@given(geometric_stacks())
def test_array_area_norm_residual_match_elementwise(stacks):
    (a, b), = stacks
    g = elements(a, b)
    np.testing.assert_array_equal(nilpotent.area(a, b),
                                  np.array([log_map(x).area for x in g]))
    np.testing.assert_array_equal(nilpotent.norm(a, b),
                                  [homogeneous_norm(x) for x in g])
    np.testing.assert_array_equal(nilpotent.residual(a, b),
                                  [geometricity_residual(x) for x in g])


@settings(max_examples=60, deadline=None)
@given(geometric_stacks(count=3))
def test_chen_split_identity_on_stacks(stacks):
    (a_s, b_s), (a_t, b_t), (a_u, b_u) = stacks
    joined = nilpotent.product(*nilpotent.increment(a_s, b_s, a_t, b_t),
                               *nilpotent.increment(a_t, b_t, a_u, b_u))
    direct = nilpotent.increment(a_s, b_s, a_u, b_u)
    np.testing.assert_allclose(joined[0], direct[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(joined[1], direct[1], rtol=0, atol=1e-10)
    assert np.all(nilpotent.residual(*joined) < 1e-10)
