"""Degree-m Bernstein polynomials on triangles and their evaluation matrices.

Basis functions are indexed by exponent triples (i, j, k) with i+j+k = m in
the canonical order: i descending, then j descending. Every module in the
package shares this order; the column block t*dim .. (t+1)*dim of a global
matrix belongs to triangle t.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .errors import UnsupportedSmoothness
from .geometry import barycentric


@dataclass(frozen=True)
class SplineSpec:
    """Polynomial degree and cross-edge smoothness of the spline space."""

    degree: int
    smoothness: int

    def __post_init__(self):
        if self.smoothness < 0 or self.degree < 0:
            raise UnsupportedSmoothness("degree and smoothness must be nonnegative")
        if self.smoothness > self.degree:
            raise UnsupportedSmoothness(
                f"smoothness {self.smoothness} exceeds degree {self.degree}"
            )

    @property
    def per_triangle_dim(self):
        return (self.degree + 1) * (self.degree + 2) // 2

    def dimension(self, tr):
        """Total number of coefficients over the whole mesh."""
        return tr.n_triangles * self.per_triangle_dim


@lru_cache(maxsize=None)
def index_set(m):
    """Exponent triples (i, j, k), i+j+k = m, in canonical order."""
    return tuple(
        (i, j, m - i - j) for i in range(m, -1, -1) for j in range(m - i, -1, -1)
    )


@lru_cache(maxsize=None)
def _index_map(m):
    return {ijk: pos for pos, ijk in enumerate(index_set(m))}


@lru_cache(maxsize=None)
def _multinomials(m):
    fm = math.factorial(m)
    return np.array([
        fm / (math.factorial(i) * math.factorial(j) * math.factorial(k))
        for i, j, k in index_set(m)
    ])


@lru_cache(maxsize=None)
def _exponents(m):
    idx = np.array(index_set(m), dtype=np.int64)
    return idx[:, 0], idx[:, 1], idx[:, 2]


def evaluate(m, bary):
    """Evaluate all degree-m basis polynomials at barycentric points.

    bary is an (n, 3) array; the result is (n, dim) in canonical order. At
    any point with nonnegative coordinates the values are a partition of
    unity (at m = 0 the one basis function is the constant one).
    """
    b = np.asarray(bary, dtype=float)
    ii, jj, kk = _exponents(m)
    return _multinomials(m) * (b[:, 0:1] ** ii * b[:, 1:2] ** jj * b[:, 2:3] ** kk)


@lru_cache(maxsize=None)
def _raising_tables(m):
    """Index tables mapping degree m-1 positions into degree-m slots.

    Entry p of table l points at the degree-(m-1) position of the triple
    obtained by lowering coordinate l of index_set(m)[p], or -1 if that
    coordinate is zero.
    """
    low = _index_map(m - 1)
    tables = []
    for axis in range(3):
        col = []
        for ijk in index_set(m):
            lowered = list(ijk)
            lowered[axis] -= 1
            col.append(low.get(tuple(lowered), -1))
        tables.append(np.array(col, dtype=np.int64))
    return tables


def _raise_derivative(mu, direction, low_vals):
    """Apply one directional-derivative step from degree mu-1 values, for
    one triangle's (3,) direction or N triangles' (N, 3) directions."""
    tables = _raising_tables(mu)
    padded = np.concatenate([low_vals, np.zeros(low_vals.shape[:-1] + (1,))], axis=-1)  # -1 -> 0
    out = 0.0
    for d_l, table in zip(np.moveaxis(direction, -1, 0)[..., None, None], tables):
        out = out + d_l * padded[..., table]
    return mu * out


def barycentric_gradients(tri_coords):
    """Cartesian gradients of the three barycentric forms of a triangle.

    tri_coords is one triangle's (3, 2) corners or an (N, 3, 2) stack.
    Returns (db/dx, db/dy), each (3,) or (N, 3); both are constant over
    each triangle.
    """
    c = np.asarray(tri_coords, dtype=float)
    (x1, y1), (x2, y2), (x3, y3) = np.moveaxis(c, (-2, -1), (0, 1))
    det = ((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))[..., None]
    dbdx = np.stack([y2 - y3, y3 - y1, y1 - y2], axis=-1) / det
    dbdy = np.stack([x3 - x2, x1 - x3, x2 - x1], axis=-1) / det
    return dbdx, dbdy


def derivative(m, tri_coords, orders, bary):
    """Cartesian partial derivatives of all degree-m basis polynomials.

    orders = (ax, ay) selects d^ax/dx^ax d^ay/dy^ay. The derivative is
    exact: barycentric lowering recursion composed with the constant
    Jacobian of the barycentric forms. Orders beyond m return zeros.
    bary is an (n, 3) array. tri_coords is one triangle's (3, 2) corners,
    giving (n, dim), or an (N, 3, 2) stack, giving (N, n, dim), the same
    points in each triangle.
    """
    ax, ay = orders
    if ax < 0 or ay < 0:
        raise ValueError("derivative orders must be nonnegative")
    b = np.asarray(bary, dtype=float)
    total = ax + ay
    dbdx, dbdy = barycentric_gradients(tri_coords)
    shape = dbdx.shape[:-1] + (len(b), len(index_set(m)))
    if total > m:
        return np.zeros(shape)
    vals = evaluate(m - total, b)
    for step, direction in enumerate([dbdx] * ax + [dbdy] * ay):
        vals = _raise_derivative(m - total + 1 + step, direction, vals)
    if vals.shape != shape:  # order 0 on a stack of triangles
        vals = np.broadcast_to(vals, shape).copy()
    return vals


def evaluation_matrix(tr, spec, points):
    """Assemble the points-by-coefficients evaluation matrix.

    points is an (n, 2) array. Returns (matrix, triangle_index): row p of
    the sparse (n, spec.dimension(tr)) matrix holds the basis values of the
    triangle containing point p within that triangle's column block, and
    triangle_index[p] is that triangle (Triangulation.locate). Rows of
    points outside the domain are zero, with index -1, never dropped.
    """
    pts = np.asarray(points, dtype=float)
    t_idx = tr.locate(pts)
    inside = t_idx >= 0
    dim = spec.per_triangle_dim
    t_in = t_idx[inside]
    basis = evaluate(spec.degree, barycentric(tr.corners[t_in], pts[inside]))
    # each inside row holds its triangle's dim columns, in ascending order
    indptr = np.concatenate([[0], np.cumsum(inside * dim)])
    indices = (t_in[:, None] * dim + np.arange(dim)).ravel()
    matrix = sparse.csr_matrix(
        (basis.ravel(), indices, indptr), shape=(len(pts), spec.dimension(tr))
    )
    return matrix, t_idx
