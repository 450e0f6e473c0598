import numpy as np
import pytest
from scipy import sparse

from tridensity import bernstein, spline_space
from tridensity.assets import load_bundled_mesh
from tridensity.bernstein import SplineSpec
from tridensity.geometry import Triangulation, barycentric
from tridensity.quadrature import conical_rule
from tridensity.spline_space import nullspace, penalty_matrix, smoothness_matrix

from conftest import grid_mesh, integrate_domain, interpolate


def piece_value(tr, spec, gamma, t, pts, orders=(0, 0)):
    """Evaluate one triangle's polynomial piece (or derivative) anywhere."""
    bary = barycentric(tr.corners[t], pts)
    if orders == (0, 0):
        basis = bernstein.evaluate(spec.degree, bary)
    else:
        basis = bernstein.derivative(spec.degree, tr.corners[t], orders, bary)
    dim = spec.per_triangle_dim
    return basis @ gamma[t * dim:(t + 1) * dim]


def smooth_basis(tr, spec):
    """Orthonormal basis of the C^r spline space, as ModelSpace builds it."""
    return nullspace(smoothness_matrix(tr, spec))[0]


def interior_edges(tr):
    shared = tr.edge_triangles[:, 1] >= 0
    return [(tuple(e), tuple(ts)) for e, ts in
            zip(tr.edges[shared].tolist(), tr.edge_triangles[shared].tolist())]


def edge_points(tr, edge, k=10):
    a, b = edge
    t = np.linspace(0.08, 0.92, k)[:, None]
    return tr.vertices[a] * (1 - t) + tr.vertices[b] * t


def test_single_triangle_no_constraints():
    tr = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    h = smoothness_matrix(tr, SplineSpec(3, 1))
    assert h.shape == (0, 10)
    basis, rank = nullspace(h)
    assert rank == 0
    assert np.allclose(basis, np.eye(10))


def test_continuity_constraints_linear(square2):
    h = smoothness_matrix(square2, SplineSpec(1, 0))
    assert h.shape[0] == 2
    basis, rank = nullspace(h)
    assert rank == 2
    # continuous piecewise linear space has one freedom per vertex
    assert basis.shape[1] == square2.n_vertices == 4


def test_smoothness_oracle_quadratic(square2, rng):
    spec = SplineSpec(2, 1)
    basis = smooth_basis(square2, spec)
    gamma = basis @ rng.standard_normal(basis.shape[1])
    pts = edge_points(square2, (0, 2), k=20)
    for orders in ((0, 0), (1, 0), (0, 1)):
        left = piece_value(square2, spec, gamma, 0, pts, orders)
        right = piece_value(square2, spec, gamma, 1, pts, orders)
        assert np.abs(left - right).max() <= 1e-9


def test_smoothness_oracle_cubic_grid(rng):
    tr = grid_mesh(0, 1, 0, 1, 3, 3)
    spec = SplineSpec(3, 1)
    basis = smooth_basis(tr, spec)
    gamma = basis @ rng.standard_normal(basis.shape[1])
    for edge, (ta, tb) in interior_edges(tr):
        pts = edge_points(tr, edge)
        for orders in ((0, 0), (1, 0), (0, 1)):
            left = piece_value(tr, spec, gamma, ta, pts, orders)
            right = piece_value(tr, spec, gamma, tb, pts, orders)
            assert np.abs(left - right).max() <= 1e-8


def test_smoothness_all_orderings_irregular_pair(rng):
    """Constraint rows must annihilate any globally smooth polynomial for
    every stored vertex order. The triangle pair is deliberately far from
    a parallelogram: symmetric configurations mask index-pairing mistakes
    because the off-edge vertex has equal weights on the shared vertices."""
    import itertools

    base = np.array([[0.0, 0.0], [1.3, -0.2], [0.4, 1.1], [1.6, 1.0]])
    spec = SplineSpec(3, 1)
    coef = rng.standard_normal(10)

    def poly(p):
        x, y = p[:, 0], p[:, 1]
        return (coef[0] + coef[1] * x + coef[2] * y + coef[3] * x * x
                + coef[4] * x * y + coef[5] * y * y + coef[6] * x ** 3
                + coef[7] * x * x * y + coef[8] * x * y * y + coef[9] * y ** 3)

    for pa in itertools.permutations([0, 1, 2]):
        for pb in itertools.permutations([1, 2, 3]):
            tr = Triangulation(base, [list(pa), list(pb)])
            h = smoothness_matrix(tr, spec)
            gamma = interpolate(tr, spec, poly)
            assert np.abs(h @ gamma).max() <= 1e-10 * max(1.0, np.abs(gamma).max())


def test_smoothness_oracle_irregular_pair(rng):
    tr = Triangulation(
        [[0.0, 0.0], [1.3, -0.2], [0.4, 1.1], [1.6, 1.0]], [[0, 1, 2], [1, 3, 2]]
    )
    spec = SplineSpec(3, 1)
    basis = smooth_basis(tr, spec)
    gamma = basis @ rng.standard_normal(basis.shape[1])
    pts = edge_points(tr, (1, 2), k=20)
    for orders in ((0, 0), (1, 0), (0, 1)):
        left = piece_value(tr, spec, gamma, 0, pts, orders)
        right = piece_value(tr, spec, gamma, 1, pts, orders)
        assert np.abs(left - right).max() <= 1e-9


def test_second_order_smoothness_oracle(rng):
    """Second-order cross-edge conditions: values, gradients and all second
    derivatives of a constrained quintic must agree across the edge."""
    tr = Triangulation(
        [[0.0, 0.0], [1.3, -0.2], [0.4, 1.1], [1.6, 1.0]], [[0, 1, 2], [1, 3, 2]]
    )
    spec = SplineSpec(5, 2)
    basis = smooth_basis(tr, spec)
    gamma = basis @ rng.standard_normal(basis.shape[1])
    pts = edge_points(tr, (1, 2), k=10)
    for orders in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        left = piece_value(tr, spec, gamma, 0, pts, orders)
        right = piece_value(tr, spec, gamma, 1, pts, orders)
        assert np.abs(left - right).max() <= 1e-8


def test_nullspace_closed_form():
    basis, rank = nullspace(np.array([[1.0, -1.0]]))
    assert rank == 1
    assert basis.shape == (2, 1)
    assert np.abs(basis[:, 0]) == pytest.approx([1 / np.sqrt(2)] * 2)


def test_nullspace_zero_rows():
    basis, rank = nullspace(sparse.csr_matrix((0, 5)))
    assert rank == 0
    assert np.allclose(basis, np.eye(5))


@pytest.mark.parametrize("h", [np.zeros((0, 4)), np.zeros((3, 4)), sparse.csr_matrix((3, 4))])
def test_nullspace_of_a_matrix_with_no_nonzero_entry(h, monkeypatch):
    """Is the identity, without an SVD."""
    def no_svd(*args, **kwargs):
        raise AssertionError("the SVD ran")

    monkeypatch.setattr(spline_space.linalg, "svd", no_svd)
    basis, rank = nullspace(h)
    assert rank == 0
    assert np.array_equal(basis, np.eye(4))


def test_nullspace_random_property(rng):
    h = sparse.random(30, 60, density=0.1, random_state=7)
    basis, rank = nullspace(h)
    assert basis.shape[1] == 60 - rank
    assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() <= 1e-10
    assert np.abs(h @ basis).max() <= 1e-10


def test_nullspace_copies_its_input_and_matches_plain_svd(unit32):
    from scipy import linalg

    h = smoothness_matrix(unit32, SplineSpec(3, 1))
    dense = h.toarray()
    s, vt = linalg.svd(dense, full_matrices=True)[1:]  # the SVD on a copy
    want_rank = int(np.sum(s > 1e-9 * s[0]))
    want = vt[want_rank:].T
    for given in (h, dense, np.asfortranarray(dense)):
        before = given.copy()
        basis, rank = nullspace(given)
        assert rank == want_rank
        assert np.array_equal(basis, want)
        if sparse.issparse(given):
            assert (given != before).nnz == 0
        else:
            assert np.array_equal(given, before)
    basis, rank = nullspace(np.array([[1, -1]]))  # integer input
    assert rank == 1 and basis.dtype == float


def test_penalty_linear_null(square2, rng):
    spec = SplineSpec(3, 1)
    k = penalty_matrix(square2, spec)
    gamma = interpolate(square2, spec, lambda p: 3 + 2 * p[:, 0] - p[:, 1])
    assert float(gamma @ (k @ gamma)) <= 1e-12 * (gamma @ gamma)


def test_penalty_quadratic_closed_form(unit32):
    spec = SplineSpec(3, 1)
    k = penalty_matrix(unit32, spec)
    gamma = interpolate(unit32, spec, lambda p: p[:, 0] ** 2)
    assert float(gamma @ (k @ gamma)) == pytest.approx(4.0 * unit32.area, rel=1e-12)
    mixed = interpolate(unit32, spec, lambda p: p[:, 0] * p[:, 1])
    # g_xy = 1 contributes through the doubled cross term
    assert float(mixed @ (k @ mixed)) == pytest.approx(2.0 * unit32.area, rel=1e-12)


def energy_by_quadrature(tr, spec, gamma, rule):
    def integrand(orders):
        def f(pts):
            out = np.empty(len(pts))
            idx = tr.locate(pts)
            for t in np.unique(idx):
                sel = idx == t
                out[sel] = piece_value(tr, spec, gamma, int(t), pts[sel], orders)
            return out
        return f

    fxx = integrand((2, 0))
    fxy = integrand((1, 1))
    fyy = integrand((0, 2))
    return integrate_domain(
        lambda p: fxx(p) ** 2 + 2 * fxy(p) ** 2 + fyy(p) ** 2, tr, rule
    )


@pytest.mark.parametrize("m", [3, 5])
def test_penalty_matches_independent_rule(m, square2, rng):
    spec = SplineSpec(m, 1)
    k = penalty_matrix(square2, spec)
    for _ in range(5):
        gamma = rng.standard_normal(spec.dimension(square2))
        direct = float(gamma @ (k @ gamma))
        oracle = energy_by_quadrature(square2, spec, gamma, conical_rule(8))
        assert direct == pytest.approx(oracle, rel=1e-9)


def test_penalty_block_structure(square2):
    spec = SplineSpec(3, 1)
    k = penalty_matrix(square2, spec).toarray()
    dim = spec.per_triangle_dim
    assert np.abs(k[:dim, dim:]).max() == 0.0
    assert np.abs(k - k.T).max() <= 1e-12
    evals = np.linalg.eigvalsh(k)
    assert evals.min() >= -1e-10
    # each block's null space holds exactly the linear polynomials
    block = k[:dim, :dim]
    assert np.linalg.matrix_rank(block, tol=1e-9) == dim - 3


def test_penalty_degree_one_is_zero(square2):
    k = penalty_matrix(square2, SplineSpec(1, 0))
    assert k.nnz == 0


def test_null_dimension_invariant_to_reindexing(rng):
    tr = grid_mesh(0, 1, 0, 1, 3, 3)
    perm = rng.permutation(tr.n_triangles)
    tr_perm = Triangulation(tr.vertices, tr.triangles[perm])
    spec = SplineSpec(3, 1)
    assert smooth_basis(tr, spec).shape[1] == smooth_basis(tr_perm, spec).shape[1]


@pytest.mark.parametrize("m, r", [(3, 1), (5, 2)])
@pytest.mark.parametrize("name", ["square_unit_32", "square_sim1_50", "horseshoe_112"])
def test_design_row_same_from_either_triangle_of_a_shared_edge(name, m, r):
    """At a point of an edge shared by two triangles, at fractions 0, 0.3,
    0.5 and 1 along it (so its end vertices too), the reduced design row
    evaluate(m, barycentric(corners[t], p)) @ basis block t is the same
    from either triangle: locate's lowest-index tie rule cannot change a
    fit. Only edges whose two triangles share the vertex labels count, so
    the horseshoe cap seam, joined by coincident vertex pairs, is left out."""
    tr = load_bundled_mesh(name)
    spec = SplineSpec(m, r)
    basis = smooth_basis(tr, spec)
    blocks = basis.reshape(tr.n_triangles, spec.per_triangle_dim, -1)
    shared = tr.edge_triangles[:, 1] >= 0
    ends = tr.vertices[tr.edges[shared]]
    for f in (0.0, 0.3, 0.5, 1.0):
        pts = ends[:, 0] * (1 - f) + ends[:, 1] * f
        lo, hi = (np.einsum("nd,ndk->nk", bernstein.evaluate(m, barycentric(tr.corners[t], pts)),
                            blocks[t]) for t in tr.edge_triangles[shared].T)
        assert np.all(np.abs(lo - hi) <= 1e-12 * np.abs(lo).max(axis=1, keepdims=True))
