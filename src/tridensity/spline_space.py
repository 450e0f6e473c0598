"""Smoothness constraints, nullspace reparameterization, roughness matrix.

Coefficient vectors over the mesh live in blocks of per-triangle Bernstein
coefficients. Cross-edge smoothness is a homogeneous linear system on those
coefficients; fitting happens in an orthonormal basis of its null space.
The roughness of a coefficient vector is a quadratic form whose matrix is
block diagonal over triangles.
"""

from functools import lru_cache

import numpy as np
from scipy import linalg, sparse

from . import bernstein
from .geometry import barycentric
from .quadrature import conical_rule, rule_9, rule_12

# Relative singular value threshold separating rank from null space.
RANK_RTOL = 1e-9


def smoothness_matrix(tr, spec):
    """Cross-edge smoothness conditions as a sparse matrix.

    For each edge shared by two triangles and each derivative order
    0..smoothness, emits the Bernstein coefficient conditions equating the
    two polynomial pieces across the edge. A coefficient vector gamma
    satisfies the conditions exactly when the spline is C^r on the domain.
    Rows may be redundant; rank handling is left to the nullspace step.
    Edges of boundary holes border a single triangle and contribute
    nothing.
    """
    m = spec.degree
    dim = spec.per_triangle_dim
    shared = tr.edge_triangles[:, 1] >= 0
    edges, pairs = tr.edges[shared], tr.edge_triangles[shared]
    # a triangle's vertex indices are distinct, so the one off the edge is
    # their sum minus the edge's two
    off = tr.triangles[pairs].sum(axis=2) - edges.sum(axis=1, keepdims=True)
    # Relabel t_lo as (off, va, vb) and t_hi as (off~, vb, va); the
    # off-edge vertex of t_hi expressed in t_lo's barycentric frame drives
    # the coefficient conditions.
    relabeled = np.stack([np.column_stack([off[:, 0], edges]),
                          np.column_stack([off[:, 1], edges[:, ::-1]])], axis=1)  # (E, 2, 3)
    abgs = barycentric(tr.vertices[relabeled[:, 0]], tr.vertices[off[:, 1]])
    template = _edge_template(m, spec.smoothness)
    side, exponents, weight, row = template[:, 0], template[:, 1:4], template[:, 4], template[:, 5]
    n_rows = row[-1] + 1
    # where each triangle stores each relabeled corner, and so each entry's
    # exponents in stored order
    stored = tr.triangles[pairs]  # (E, 2, 3)
    positions = np.argmax(stored[:, :, None, :] == relabeled[:, :, :, None], axis=3)
    d = np.zeros((len(edges), len(side), 3), dtype=np.int64)
    np.put_along_axis(d, positions[:, side], exponents[None], axis=2)
    i, j = d[..., 0], d[..., 1]
    cols = pairs[:, side] * dim + (m - i) * (m - i + 1) // 2 + (m - i - j)
    # the weights of every order, then the -1 of t_hi's coefficient last
    weights = np.column_stack(
        [bernstein.evaluate(rho, abgs) for rho in range(spec.smoothness + 1)]
        + [-np.ones(len(edges))])
    rows = np.arange(len(edges))[:, None] * n_rows + row
    return sparse.csr_matrix(
        (weights[:, weight].ravel(), (rows.ravel(), cols.ravel())),
        shape=(len(edges) * n_rows, spec.dimension(tr)),
    )


@lru_cache(maxsize=None)
def _edge_template(m, r):
    """The entries of one shared edge's rows, which depend on (m, r) only.

    Row (rho, j) equates the t_lo coefficients (nu, k + mu, j + ka),
    weighted by the degree-rho basis at t_hi's off-edge vertex, with the
    t_hi coefficient (rho, j, k), k = m - rho - j, exponents over the
    relabeled corners. One line per entry: the triangle (0 for t_lo, 1
    for t_hi), the exponents, the weight column (-1: t_hi's -1), the row.
    """
    entries, n_rows = [], 0
    for rho in range(r + 1):
        first = rho * (rho + 1) * (rho + 2) // 6  # weight columns of lower orders
        for j in range(m - rho, -1, -1):
            k = m - rho - j
            entries += [(0, nu, k + mu, j + ka, first + p, n_rows)
                        for p, (nu, mu, ka) in enumerate(bernstein.index_set(rho))]
            entries.append((1, rho, j, k, -1, n_rows))
            n_rows += 1
    template = np.array(entries)
    template.setflags(write=False)  # shared by every caller through the cache
    return template


def nullspace(h):
    """Orthonormal basis of the null space of a constraint matrix.

    Returns (basis, rank) where basis has orthonormal columns spanning
    null(h). Rank counts singular values above RANK_RTOL times the largest.
    A matrix with no rows yields the identity and rank zero.
    """
    # a private Fortran-ordered copy, which the SVD may overwrite in place
    if sparse.issparse(h):
        h = h.toarray(order="F").astype(float, copy=False)
    else:
        h = np.array(h, dtype=float, order="F")
    n = h.shape[1]
    if h.shape[0] == 0:
        return np.eye(n), 0
    s, vt = linalg.svd(h, full_matrices=True, overwrite_a=True, check_finite=False)[1:]
    if s.size == 0 or s[0] == 0.0:
        return np.eye(n), 0
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    return vt[rank:].T.copy(), rank


def penalty_matrix(tr, spec):
    """Second-order roughness matrix, block diagonal over triangles.

    Entry (a, b) of a triangle block integrates
    gxx_a gxx_b + 2 gxy_a gxy_b + gyy_a gyy_b over that triangle. The
    integrand has polynomial degree 2(m-2), so a fixed rule of at least
    that exactness makes assembly exact; linear pieces have zero energy.
    """
    m = spec.degree
    n = spec.dimension(tr)
    if m < 2:
        return sparse.csr_matrix((n, n))
    needed = 2 * (m - 2)
    if needed <= 5:
        rule = rule_9()
    elif needed <= 6:
        rule = rule_12()
    else:
        rule = conical_rule(needed)
    w = rule.weights[:, None]
    corners = tr.triangle_coords(np.arange(tr.n_triangles))
    dxx, dxy, dyy = (bernstein.derivative(m, corners, orders, rule.nodes)
                     for orders in ((2, 0), (1, 1), (0, 2)))  # (N, nodes, dim) each
    weighted = lambda d: (d * w).transpose(0, 2, 1)
    blocks = tr.areas[:, None, None] * (
        weighted(dxx) @ dxx
        + 2.0 * weighted(dxy) @ dxy
        + weighted(dyy) @ dyy
    )
    blocks = (blocks + blocks.transpose(0, 2, 1)) / 2.0
    diagonal = np.arange(tr.n_triangles + 1)
    return sparse.bsr_matrix((blocks, diagonal[:-1], diagonal), shape=(n, n)).tocsr()
