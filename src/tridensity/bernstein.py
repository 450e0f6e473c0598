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

from .errors import PointOutsideDomain, UnsupportedSmoothness
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

    bary is a (3,) triple or an (n, 3) array; the result has shape (dim,)
    or (n, dim) in canonical order. At any point with nonnegative
    coordinates the values are a partition of unity.
    """
    b = np.asarray(bary, dtype=float)
    single = b.ndim == 1
    b = np.atleast_2d(b)
    if m == 0:
        out = np.ones((len(b), 1))
        return out[0] if single else out
    ii, jj, kk = _exponents(m)
    out = _multinomials(m) * (
        b[:, 0:1] ** ii * b[:, 1:2] ** jj * b[:, 2:3] ** kk
    )
    return out[0] if single else out


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
    tri_coords is one triangle's (3, 2) corners, giving (dim,) for a (3,)
    triple and (n, dim) for (n, 3) triples, or an (N, 3, 2) stack, giving
    (N, dim) or (N, n, dim), the same points in each triangle.
    """
    ax, ay = orders
    if ax < 0 or ay < 0:
        raise ValueError("derivative orders must be nonnegative")
    b = np.asarray(bary, dtype=float)
    single = b.ndim == 1
    b = np.atleast_2d(b)
    total = ax + ay
    dbdx, dbdy = barycentric_gradients(tri_coords)
    shape = dbdx.shape[:-1] + (len(b), len(index_set(m)))
    if total > m:
        vals = np.zeros(shape)
    else:
        vals = evaluate(m - total, b)
        for step, direction in enumerate([dbdx] * ax + [dbdy] * ay):
            vals = _raise_derivative(m - total + 1 + step, direction, vals)
        if vals.shape != shape:  # order 0 on a stack of triangles
            vals = np.broadcast_to(vals, shape).copy()
    return vals[..., 0, :] if single else vals


@dataclass
class EvalMatrix:
    """Sparse basis evaluation matrix with per-row triangle provenance.

    Row p holds the basis values of the triangle containing point p within
    that triangle's column block; triangle_index[p] is -1 for points
    outside the domain and those rows are zero, never silently dropped.
    """

    matrix: sparse.csr_matrix
    triangle_index: np.ndarray


def evaluation_matrix(tr, spec, points, allow_outside=False):
    """Assemble the points-by-coefficients evaluation matrix.

    Raises PointOutsideDomain listing offending row indices unless
    allow_outside is set, in which case those rows are zero and flagged
    through triangle_index.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t_idx = tr.locate(pts)
    inside = t_idx >= 0
    if not (allow_outside or inside.all()):
        raise PointOutsideDomain(np.flatnonzero(~inside).tolist())
    dim = spec.per_triangle_dim
    t_in = t_idx[inside]
    basis = evaluate(spec.degree, barycentric(tr.triangle_coords(t_in), pts[inside]))
    # each inside row holds its triangle's dim columns, in ascending order
    indptr = np.concatenate([[0], np.cumsum(inside * dim)])
    indices = (t_in[:, None] * dim + np.arange(dim)).ravel()
    matrix = sparse.csr_matrix(
        (basis.ravel(), indices, indptr), shape=(len(pts), spec.dimension(tr))
    )
    return EvalMatrix(matrix=matrix, triangle_index=t_idx)


def domain_points(m, tri_coords):
    """Domain points (i*v1 + j*v2 + k*v3)/m of a triangle, canonical order."""
    tri_coords = np.asarray(tri_coords, dtype=float)
    if m == 0:
        return tri_coords.mean(axis=0, keepdims=True)
    ii, jj, kk = _exponents(m)
    w = np.stack([ii, jj, kk], axis=1) / m
    return w @ tri_coords


@lru_cache(maxsize=None)
def _collocation_solver(m):
    """LU factorization of the Bernstein collocation matrix at domain points.

    The matrix is triangle independent because domain points have fixed
    barycentric coordinates (i/m, j/m, k/m).
    """
    from scipy.linalg import lu_factor

    bary = np.array(index_set(m), dtype=float) / max(m, 1)
    mat = evaluate(m, bary)
    return lu_factor(mat)


def interpolate_function(tr, spec, fn):
    """Coefficients reproducing fn by domain-point interpolation per triangle.

    fn maps an (n, 2) array to n values. Exact (up to conditioning) for
    any polynomial of total degree <= spec.degree.
    """
    from scipy.linalg import lu_solve

    m = spec.degree
    solver = _collocation_solver(m)
    gamma = np.empty(spec.dimension(tr))
    dim = spec.per_triangle_dim
    for t in range(tr.n_triangles):
        pts = domain_points(m, tr.triangle_coords(t))
        vals = np.asarray(fn(pts), dtype=float)
        gamma[t * dim:(t + 1) * dim] = lu_solve(solver, vals)
    return gamma
