import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gaussrde import nilpotent
from gaussrde.nilpotent import area, increment, norm, product, residual

TOL = 1e-12


def random_geometric(rng, d):
    """Random group element: level 2 = a (x) a / 2 + antisymmetric area."""
    a = rng.standard_normal(d)
    s = rng.standard_normal((d, d))
    return a, 0.5 * np.outer(a, a) + 0.5 * (s - s.T)


def gap(g, h):
    return max(np.max(np.abs(g[0] - h[0])), np.max(np.abs(g[1] - h[1])))


def inverse(a, b):
    return increment(a, b, 0.0, 0.0)


def test_identity_and_inverse():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        e = (np.zeros(d), np.zeros((d, d)))
        for _ in range(50):
            g = random_geometric(rng, d)
            assert gap(product(*g, *e), g) == 0
            assert gap(product(*e, *g), g) == 0
            assert gap(product(*g, *inverse(*g)), e) < TOL
            assert gap(product(*inverse(*g), *g), e) < TOL


def test_associativity():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3):
        for _ in range(50):
            g, h, k = (random_geometric(rng, d) for _ in range(3))
            lhs = product(*product(*g, *h), *k)
            rhs = product(*g, *product(*h, *k))
            assert gap(lhs, rhs) < TOL


def test_product_preserves_geometricity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        g = random_geometric(rng, 3)
        h = random_geometric(rng, 3)
        assert residual(*product(*g, *h)) < TOL


def test_chen_split_identity():
    # increments compose: (g_s^-1 g_t)(g_t^-1 g_u) = g_s^-1 g_u
    rng = np.random.default_rng(3)
    for _ in range(100):
        gs, gt, gu = (random_geometric(rng, 2) for _ in range(3))
        joined = product(*increment(*gs, *gt), *increment(*gt, *gu))
        assert gap(joined, increment(*gs, *gu)) < TOL


def test_area_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b = random_geometric(rng, 3)
        x = area(a, b)
        # area is the antisymmetric remainder of level 2
        assert np.allclose(0.5 * np.outer(a, a) + x, b, atol=TOL)
        assert np.allclose(x, -x.T, atol=TOL)


def test_norm_dilation():
    """The norm scales exactly linearly under (a, b) -> (c a, c^2 b)."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = random_geometric(rng, 3)
        for c in (0.25, 2.0, 10.0):
            assert np.isclose(norm(c * a, c * c * b), c * norm(a, b), rtol=1e-12)


def test_norm_pure_area():
    b = np.array([[0.0, 3.0], [-3.0, 0.0]])
    # Frobenius norm of the area block is sqrt(2) * 3
    assert np.isclose(norm(np.zeros(2), b), (np.sqrt(2) * 3) ** 0.5)


# ---------------------------------------------------------------------------
# Array-form algebra on stacks against one call per element
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


def per_element(fn, *stacks):
    """`fn` called once per element of the stacks, results stacked again."""
    out = [fn(*(x[i] for x in stacks)) for i in range(stacks[0].shape[0])]
    if isinstance(out[0], tuple):
        return tuple(np.array(part) for part in zip(*out))
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(geometric_stacks(count=2))
def test_array_product_and_increment_match_elementwise(stacks):
    (a1, b1), (a2, b2) = stacks
    for fn in (product, increment):
        for got, want in zip(fn(a1, b1, a2, b2), per_element(fn, a1, b1, a2, b2)):
            np.testing.assert_array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(geometric_stacks())
def test_array_area_norm_residual_match_elementwise(stacks):
    (a, b), = stacks
    for fn in (area, norm, residual):
        np.testing.assert_array_equal(fn(a, b), per_element(fn, a, b))
    assert all(np.ndim(fn(a[0], b[0])) == 0 for fn in (norm, residual))


@settings(max_examples=60, deadline=None)
@given(geometric_stacks(count=3))
def test_chen_split_identity_on_stacks(stacks):
    (a_s, b_s), (a_t, b_t), (a_u, b_u) = stacks
    joined = product(*increment(a_s, b_s, a_t, b_t), *increment(a_t, b_t, a_u, b_u))
    direct = increment(a_s, b_s, a_u, b_u)
    np.testing.assert_allclose(joined[0], direct[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(joined[1], direct[1], rtol=0, atol=1e-10)
    assert np.all(residual(*joined) < 1e-10)
