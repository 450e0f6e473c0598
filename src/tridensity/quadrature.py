"""Fixed quadrature rules on triangles and their nodes over a whole domain.

Rules store barycentric nodes and per-node weights relative to triangle
area, so a triangle's integral is area * sum(w * f(node)). Weights of
every rule sum to one. domain_nodes places a rule on every triangle, so
a domain integral is weights @ f(points); a single triangle is a
one-triangle Triangulation.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class QuadRule:
    """Barycentric nodes and area-relative weights of a triangle rule."""

    nodes: np.ndarray    # (n, 3)
    weights: np.ndarray  # (n,), sums to 1
    exactness: int       # largest total polynomial degree integrated exactly

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def _orbit3(a):
    c = 1.0 - 2.0 * a
    return [(c, a, a), (a, c, a), (a, a, c)]


@lru_cache(maxsize=None)
def rule_9():
    """Symmetric 9-node rule with polynomial exactness degree 5.

    Three 3-fold orbits. Orbit parameters and weights solve the
    S3-invariant moment system of the unit simplex (the one-parameter
    family of degree-5 formulas surveyed by Cowper 1973, IJNME 7:405-408)
    with the third orbit pinned at a = 0.48; constants are exact to the
    printed digits.
    """
    orbits = [
        (0.09668420539882340327, 0.11486996193586612868),
        (0.26196523862760956216, 0.11409457580791298364),
        (0.48, 0.10436879558955422102),
    ]
    nodes, weights = [], []
    for a, w in orbits:
        nodes.extend(_orbit3(a))
        weights.extend([w] * 3)
    return QuadRule(np.array(nodes), np.array(weights), exactness=5)


@lru_cache(maxsize=None)
def conical_rule(degree):
    """Conical-product Gauss rule of the requested exactness degree.

    Collapses a Gauss-Legendre by Gauss-Jacobi(1, 0) tensor grid onto the
    simplex through the Duffy substitution x = s(1-t), y = t, with
    (degree + 2) // 2 points per axis: 1 node at degree 0, 4 at degree 2
    and 9 at degree 4. It assembles the roughness matrix at every spline
    degree, and it cross-checks rule_9 as an independently built rule.
    """
    from scipy.special import roots_jacobi, roots_legendre

    n = max(1, (degree + 2) // 2)
    xs, ws = roots_legendre(n)
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    s = (xs + 1.0) / 2.0
    t = (xj + 1.0) / 2.0
    nodes, weights = [], []
    for si, wsi in zip(s, ws):
        for tj, wtj in zip(t, wj):
            x = si * (1.0 - tj)
            y = tj
            nodes.append((1.0 - x - y, x, y))
            weights.append(wsi * wtj / 4.0)
    return QuadRule(np.array(nodes), np.array(weights), exactness=2 * n - 1)


def domain_nodes(tr, rule):
    """Cartesian nodes and absolute weights of a rule on every triangle.

    Returns ((N * n, 2) points, (N * n,) weights), triangle-major: rows
    t*n .. (t+1)*n - 1 belong to triangle t.
    """
    n_q = len(rule.weights)
    points = (rule.nodes @ tr.corners).reshape(-1, 2)
    weights = np.repeat(tr.areas, n_q) * np.tile(rule.weights, tr.n_triangles)
    return points, weights

