"""Smoothness constraints, nullspace reparameterization, roughness matrix.

Coefficient vectors over the mesh live in blocks of per-triangle Bernstein
coefficients. Cross-edge smoothness is a homogeneous linear system on those
coefficients; fitting happens in an orthonormal basis of its null space.
The roughness of a coefficient vector is a quadratic form whose matrix is
block diagonal over triangles.
"""

from dataclasses import dataclass

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
    m, r = spec.degree, spec.smoothness
    dim = spec.per_triangle_dim
    imap = bernstein._index_map(m)
    shared = tr.edge_triangles[:, 1] >= 0
    edges, pairs = tr.edges[shared], tr.edge_triangles[shared]
    # a triangle's vertex indices are distinct, so the one off the edge is
    # their sum minus the edge's two
    off = tr.triangles[pairs].sum(axis=2) - edges.sum(axis=1, keepdims=True)
    # Relabel t_lo as (off, va, vb) and t_hi as (off~, vb, va); the
    # off-edge vertex of t_hi expressed in t_lo's barycentric frame drives
    # the coefficient conditions.
    frames = tr.vertices[np.column_stack([off[:, 0], edges])]  # (E, 3, 2)
    abgs = barycentric(frames, tr.vertices[off[:, 1]])
    rows, cols, vals = [], [], []
    row = 0
    for (va, vb), (t_lo, t_hi), (off_lo, off_hi), abg in zip(
            edges.tolist(), pairs.tolist(), off.tolist(), abgs):
        pos_lo = _vertex_positions(tr.triangles[t_lo], (off_lo, va, vb))
        pos_hi = _vertex_positions(tr.triangles[t_hi], (off_hi, vb, va))
        for rho in range(r + 1):
            weights = bernstein.evaluate(rho, abg)
            rho_set = bernstein.index_set(rho)
            for j in range(m - rho, -1, -1):
                k = m - rho - j
                for (nu, mu, ka), w in zip(rho_set, np.atleast_1d(weights)):
                    d = _storage_index((nu, k + mu, j + ka), pos_lo)
                    rows.append(row)
                    cols.append(t_lo * dim + imap[d])
                    vals.append(float(w))
                d = _storage_index((rho, j, k), pos_hi)
                rows.append(row)
                cols.append(t_hi * dim + imap[d])
                vals.append(-1.0)
                row += 1
    return sparse.csr_matrix(
        (vals, (rows, cols)), shape=(row, spec.dimension(tr))
    )


def _vertex_positions(stored, relabeled):
    """Position of each relabeled vertex inside the stored triple."""
    stored = [int(v) for v in stored]
    return tuple(stored.index(v) for v in relabeled)


def _storage_index(exponents, positions):
    """Map relabeled exponents back to the stored vertex order."""
    d = [0, 0, 0]
    for e, p in zip(exponents, positions):
        d[p] = e
    return tuple(d)


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


@dataclass
class ConstraintSystem:
    """Smoothness matrix with its rank and null-space basis."""

    matrix: sparse.csr_matrix
    rank: int
    basis: np.ndarray  # (dimension, dimension - rank), column orthonormal

    @property
    def n_free(self):
        return self.basis.shape[1]


def build_constraints(tr, spec):
    """Assemble the smoothness system and factor out its null space."""
    h = smoothness_matrix(tr, spec)
    basis, rank = nullspace(h)
    return ConstraintSystem(matrix=h, rank=rank, basis=basis)


def penalty_matrix(tr, spec):
    """Second-order roughness matrix, block diagonal over triangles.

    Entry (a, b) of a triangle block integrates
    gxx_a gxx_b + 2 gxy_a gxy_b + gyy_a gyy_b over that triangle. The
    integrand has polynomial degree 2(m-2), so a fixed rule of at least
    that exactness makes assembly exact; linear pieces have zero energy.
    """
    m = spec.degree
    dim = spec.per_triangle_dim
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
    w = rule.weights
    blocks = []
    for t in range(tr.n_triangles):
        coords = tr.triangle_coords(t)
        dxx = bernstein.derivative(m, coords, (2, 0), rule.nodes)
        dxy = bernstein.derivative(m, coords, (1, 1), rule.nodes)
        dyy = bernstein.derivative(m, coords, (0, 2), rule.nodes)
        block = tr.areas[t] * (
            (dxx * w[:, None]).T @ dxx
            + 2.0 * (dxy * w[:, None]).T @ dxy
            + (dyy * w[:, None]).T @ dyy
        )
        blocks.append((block + block.T) / 2.0)
    return sparse.block_diag(blocks, format="csr")
