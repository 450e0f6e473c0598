"""Fixed quadrature rules on triangles and whole-domain integration.

Rules store barycentric nodes and per-node weights relative to triangle
area, so integrate_triangle is area * sum(w * f(node)). Weights of every
rule sum to one.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteIntegrand


@dataclass(frozen=True)
class QuadRule:
    """Barycentric nodes and area-relative weights of a triangle rule."""

    nodes: np.ndarray    # (n, 3)
    weights: np.ndarray  # (n,), sums to 1
    exactness: int       # largest total polynomial degree integrated exactly

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def cartesian_nodes(self, tri_coords):
        """Map the barycentric nodes onto one triangle, (n, 2)."""
        return self.nodes @ np.asarray(tri_coords, dtype=float)


def _orbit3(a):
    c = 1.0 - 2.0 * a
    return [(c, a, a), (a, c, a), (a, a, c)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(c, a, b), (c, b, a), (a, c, b), (b, c, a), (a, b, c), (b, a, c)]


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
def rule_12():
    """Symmetric 12-node rule with polynomial exactness degree 6.

    Standard tabulated formula (Dunavant 1985, IJNME 21:1129-1148,
    degree 6): two 3-fold orbits and one 6-fold orbit.
    """
    nodes, weights = [], []
    for a, w in [
        (0.249286745170910, 0.116786275726379),
        (0.063089014491502, 0.050844906370207),
    ]:
        nodes.extend(_orbit3(a))
        weights.extend([w] * 3)
    nodes.extend(_orbit6(0.310352451033785, 0.053145049844816))
    weights.extend([0.082851075618374] * 6)
    return QuadRule(np.array(nodes), np.array(weights), exactness=6)


@lru_cache(maxsize=None)
def conical_rule(degree):
    """Conical-product Gauss rule of the requested exactness degree.

    Collapses a Gauss-Legendre by Gauss-Jacobi(1, 0) tensor grid onto the
    simplex through the Duffy substitution x = s(1-t), y = t. Node count
    grows quadratically, so the fixed symmetric rules are preferred at low
    degree; this rule exists for arbitrary degree and as an independently
    constructed cross-check.
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


def integrate_triangle(f, tri_coords, rule):
    """Integrate f over one triangle: area * sum(weights * f(nodes)).

    f maps an (n, 2) array of points to n values and must be finite at
    every node.
    """
    tri_coords = np.asarray(tri_coords, dtype=float)
    vals = np.asarray(f(rule.cartesian_nodes(tri_coords)), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrand("integrand is not finite at a quadrature node")
    (x0, y0), (x1, y1), (x2, y2) = tri_coords
    area = abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)) / 2.0
    return area * float(rule.weights @ vals)


def domain_nodes(tr, rule):
    """Cartesian nodes and absolute weights of a rule on every triangle.

    Returns ((N * n, 2) points, (N * n,) weights), triangle-major: rows
    t*n .. (t+1)*n - 1 belong to triangle t.
    """
    n_q = len(rule.weights)
    points = (rule.nodes @ tr.vertices[tr.triangles]).reshape(-1, 2)
    weights = np.repeat(tr.areas, n_q) * np.tile(rule.weights, tr.n_triangles)
    return points, weights


def integrate_domain(f, tr, rule):
    """Integrate f over the whole triangulated domain."""
    points, weights = domain_nodes(tr, rule)
    vals = np.asarray(f(points), dtype=float)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise NonFiniteIntegrand(
            f"integrand is not finite at a quadrature node of triangle "
            f"{bad[0] // len(rule.weights)}"
        )
    return float(weights @ vals)
