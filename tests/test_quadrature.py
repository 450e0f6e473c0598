import math

import numpy as np
import pytest

from tridensity.errors import NonFiniteIntegrand
from tridensity.geometry import Triangulation, barycentric
from tridensity.quadrature import (
    conical_rule,
    domain_nodes,
    integrate_domain,
    integrate_triangle,
    rule_9,
    rule_12,
)

from conftest import random_triangle

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def simplex_monomial_integral(a, b):
    """integral of x^a y^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("rule,n_nodes", [(rule_9, 9), (rule_12, 12)])
def test_rule_basics(rule, n_nodes):
    r = rule()
    assert len(r.weights) == n_nodes
    assert abs(r.weights.sum() - 1.0) <= 1e-14
    assert r.nodes.min() > 0.0  # strictly interior
    assert np.abs(r.nodes.sum(axis=1) - 1).max() <= 1e-15


@pytest.mark.parametrize("rule,degree", [
    (rule_9, 5), (rule_12, 6),
    (lambda: conical_rule(8), 8), (lambda: conical_rule(3), 3),
])
def test_exactness(rule, degree):
    r = rule()
    for d in range(degree + 1):
        for a in range(d + 1):
            b = d - a
            got = integrate_triangle(lambda p: p[:, 0] ** a * p[:, 1] ** b, REF, r)
            want = simplex_monomial_integral(a, b)
            assert abs(got - want) <= 1e-12 * want


def test_rule9_is_not_degree_six():
    got = integrate_triangle(lambda p: p[:, 0] ** 6, REF, rule_9())
    want = simplex_monomial_integral(6, 0)
    assert abs(got - want) > 1e-6 * want


def test_integrate_constant_and_barycentric_moment(rng):
    tri = random_triangle(rng)
    d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
    area = abs(d1[0] * d2[1] - d1[1] * d2[0]) / 2
    assert integrate_triangle(lambda p: np.ones(len(p)), tri, rule_9()) == pytest.approx(area)
    b1 = lambda p: barycentric(tri, p)[:, 0]
    assert integrate_triangle(b1, tri, rule_9()) == pytest.approx(area / 3)


def test_quintic_monomial_reference():
    got = integrate_triangle(lambda p: p[:, 0] ** 5, REF, rule_9())
    assert abs(got - 1 / 42) <= 1e-12 / 42


def test_affine_invariance(rng):
    tri = random_triangle(rng)
    a_mat = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
    shift = tri[0]
    det = abs(np.linalg.det(a_mat))
    f = lambda p: np.cos(p[:, 0]) * p[:, 1] ** 2 + 1.0
    mapped = integrate_triangle(f, tri, rule_12())
    pulled = integrate_triangle(
        lambda p: f(p @ a_mat.T + shift), REF, rule_12()
    ) * det
    assert mapped == pytest.approx(pulled, rel=1e-12)


def test_domain_integration_and_additivity(square2):
    assert integrate_domain(lambda p: np.ones(len(p)), square2, rule_9()) == pytest.approx(1.0)
    assert integrate_domain(lambda p: np.full(len(p), 3.25), square2, rule_9()) == pytest.approx(3.25)
    f = lambda p: p[:, 0] ** 2 + np.sin(p[:, 1])
    whole = integrate_domain(f, square2, rule_9())
    parts = sum(
        integrate_triangle(f, square2.triangle_coords(t), rule_9())
        for t in range(square2.n_triangles)
    )
    assert whole == pytest.approx(parts, rel=1e-14)
    # the batched node builder is the per-triangle loop, bit for bit
    from tridensity.assets import BUNDLED_MESHES, load_bundled_mesh

    for tr in [square2] + [load_bundled_mesh(name) for name in BUNDLED_MESHES]:
        for rule in (rule_9(), rule_12()):
            points, weights = domain_nodes(tr, rule)
            loop = [rule.cartesian_nodes(tr.triangle_coords(t)) for t in range(tr.n_triangles)]
            assert np.array_equal(points, np.concatenate(loop))
            assert np.array_equal(weights, np.concatenate([a * rule.weights for a in tr.areas]))


def test_nonfinite_integrand(square2):
    with pytest.raises(NonFiniteIntegrand):
        integrate_domain(lambda p: np.full(len(p), np.nan), square2, rule_9())
    with pytest.raises(NonFiniteIntegrand):
        integrate_triangle(lambda p: np.full(len(p), np.inf), REF, rule_9())
