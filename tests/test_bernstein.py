import numpy as np
import pytest

from tridensity import bernstein
from tridensity.bernstein import (
    SplineSpec,
    evaluate,
    evaluation_matrix,
    derivative,
    index_set,
)
from tridensity.errors import UnsupportedSmoothness
from tridensity.geometry import barycentric

from conftest import interpolate, random_interior_bary, random_triangle


def test_index_set_order():
    assert index_set(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert index_set(2) == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)
    )
    assert len(index_set(5)) == 21


def test_spline_spec():
    spec = SplineSpec(3, 1)
    assert spec.per_triangle_dim == 10
    with pytest.raises(UnsupportedSmoothness):
        SplineSpec(1, 2)


def test_degree_zero_constant():
    b = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert evaluate(0, b).tolist() == [[1.0], [1.0], [1.0]]


def test_degree_one_equals_barycentric(rng):
    b = random_interior_bary(rng, 100)
    assert np.abs(evaluate(1, b) - b).max() <= 1e-14
    single = evaluate(1, [[0.2, 0.3, 0.5]])
    assert single.shape == (1, 3)
    assert single[0] == pytest.approx([0.2, 0.3, 0.5], abs=1e-15)


def test_vertex_value_degree_two():
    vals = evaluate(2, [[1.0, 0.0, 0.0]])[0]
    expected = np.zeros(6)
    expected[index_set(2).index((2, 0, 0))] = 1.0
    assert vals == pytest.approx(expected.tolist())


def test_partition_of_unity(rng):
    b = random_interior_bary(rng, 1000)
    for m in (1, 2, 3, 5):
        vals = evaluate(m, b)
        assert np.abs(vals.sum(axis=1) - 1).max() <= 1e-12


def test_linear_second_derivatives_vanish(rng):
    tri = random_triangle(rng)
    b = random_interior_bary(rng, 5)
    for orders in ((2, 0), (1, 1), (0, 2)):
        assert np.abs(derivative(1, tri, orders, b)).max() == 0.0


def test_reference_triangle_curvature():
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # first basis function is b1^2 with b1 = 1 - x - y
    vals = derivative(2, ref, (2, 0), [[1 / 3, 1 / 3, 1 / 3]])
    assert vals.shape == (1, 6)
    assert vals[0, 0] == pytest.approx(2.0)


def _fd_derivative(m, tri, orders, point, h=1e-5):
    """Central differences at step h.

    First orders difference the raw basis values. Second orders difference
    the exact first-derivative field instead: a second difference of raw
    values at this step amplifies rounding to the size of the tolerance
    itself, while the first derivatives are independently validated below.
    point is a (1, 2) array.
    """
    def ev(p):
        return evaluate(m, barycentric(tri, p))

    def dv(p, orders1):
        return derivative(m, tri, orders1, barycentric(tri, p))

    ax, ay = orders
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    if (ax, ay) == (1, 0):
        return (ev(point + ex) - ev(point - ex)) / (2 * h)
    if (ax, ay) == (0, 1):
        return (ev(point + ey) - ev(point - ey)) / (2 * h)
    if (ax, ay) == (2, 0):
        return (dv(point + ex, (1, 0)) - dv(point - ex, (1, 0))) / (2 * h)
    if (ax, ay) == (0, 2):
        return (dv(point + ey, (0, 1)) - dv(point - ey, (0, 1))) / (2 * h)
    return (dv(point + ey, (1, 0)) - dv(point - ey, (1, 0))) / (2 * h)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_derivatives_match_finite_differences(m, rng):
    for _ in range(3):
        tri = random_triangle(rng)
        point = np.array([[1 / 2, 1 / 4, 1 / 4]]) @ tri
        for orders in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            exact = derivative(m, tri, orders, barycentric(tri, point))
            approx = _fd_derivative(m, tri, orders, point)
            scale = max(1.0, np.abs(exact).max())
            assert np.abs(exact - approx).max() / scale <= 1e-6


def test_orders_beyond_degree_are_zero(rng):
    tri = random_triangle(rng)
    vals = derivative(2, tri, (3, 0), [[0.3, 0.3, 0.4]])
    assert vals.shape == (1, 6) and np.abs(vals).max() == 0.0


@pytest.mark.parametrize("orders", [(-1, 0), (0, -1)])
def test_negative_orders_rejected(rng, orders):
    with pytest.raises(ValueError, match="^derivative orders must be nonnegative$"):
        derivative(2, random_triangle(rng), orders, [[0.3, 0.3, 0.4]])


def test_evaluation_matrix_shape_and_unity(square2):
    spec = SplineSpec(2, 0)
    matrix, triangle_index = evaluation_matrix(square2, spec, [[0.75, 0.25]])
    assert matrix.shape == (1, 12)
    assert matrix.nnz == 6
    assert triangle_index.tolist() == [0]
    # all coefficients equal to one reproduce the constant one
    ones = np.ones(12)
    assert (matrix @ ones)[0] == pytest.approx(1.0)


def test_evaluation_matrix_constant_coefficients(square2, rng):
    spec = SplineSpec(3, 1)
    pts = rng.random((40, 2))
    matrix = evaluation_matrix(square2, spec, pts)[0]
    gamma = np.full(spec.dimension(square2), 2.5)
    assert np.abs(matrix @ gamma - 2.5).max() <= 1e-12


def test_evaluation_matrix_outside(square2):
    """Outside rows are zero with index -1, never dropped or refused."""
    pts = [[0.5, 0.5], [3.0, 3.0], [0.25, 0.5], [-1.0, 0.0]]
    matrix, triangle_index = evaluation_matrix(square2, SplineSpec(2, 0), pts)
    assert triangle_index.tolist() == [0, -1, 1, -1]
    assert [matrix[p].nnz for p in range(4)] == [6, 0, 6, 0]


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_polynomial_reproduction(m, rng, unit32):
    coeffs = rng.standard_normal((m + 1, m + 1))

    def poly(pts):
        out = np.zeros(len(pts))
        for i in range(m + 1):
            for j in range(m + 1 - i):
                out += coeffs[i, j] * pts[:, 0] ** i * pts[:, 1] ** j
        return out

    spec = SplineSpec(m, 0)
    gamma = interpolate(unit32, spec, poly)
    pts = rng.random((50, 2))
    got = evaluation_matrix(unit32, spec, pts)[0] @ gamma
    want = poly(pts)
    assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())
