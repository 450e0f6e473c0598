"""The mesh constructor, T-junction scan, smoothness, penalty and
evaluation matrices against the implementations they replaced, kept here
verbatim as oracles.

The old constructor computed each triangle's signed area three times, kept
edge topology as a dict of triangle lists and decided overlaps with a
cross product per shared edge, then scanned every vertex against every
edge for T-junctions; the old smoothness matrix, penalty matrix and
evaluation matrix were built in Python loops over edges, triangles and
point groups. The new code must reproduce their results bit for bit, and
raise the same exception with the same message.
"""

import math

import numpy as np
import pytest
from scipy import sparse

from tridensity import bernstein
from tridensity.bernstein import SplineSpec, evaluate, evaluation_matrix
from tridensity.errors import (DegenerateTriangle, IndexOutOfRange, MeshError, NonConforming,
                               PointOutsideDomain, UnsupportedSmoothness)
from tridensity.geometry import Triangulation
from tridensity.quadrature import conical_rule, rule_9
from tridensity.spline_space import penalty_matrix, smoothness_matrix

from conftest import grid_mesh


class _ParentTriangulation:
    """The constructor's validation and derived arrays as they were."""

    n_triangles = property(lambda self: len(self.triangles))

    def __init__(self, vertices, triangles):
        vertices = np.array(vertices, dtype=float)  # own copy; frozen below
        triangles = np.asarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be a (V, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError("triangles must be a (N, 3) array")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("vertex coordinates must be finite")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            bad = np.where((triangles < 0) | (triangles >= len(vertices)))[0]
            raise IndexOutOfRange(
                f"triangle rows {sorted(set(bad.tolist()))} reference vertices "
                f"outside 0..{len(vertices) - 1}"
            )
        if len(triangles) == 0:
            raise MeshError("mesh has no triangles")

        self.vertices = vertices
        self.vertices.setflags(write=False)
        self.triangles = self._orient_ccw(triangles)
        self.triangles.setflags(write=False)
        self._validate_triangles()

        corners = self.vertices[self.triangles]  # (N, 3, 2)
        self._corners = corners
        d1 = corners[:, 1] - corners[:, 0]
        d2 = corners[:, 2] - corners[:, 0]
        self.areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        self.area = float(self.areas.sum())

        # Affine maps for barycentric coordinates: b12 = M (p - v3).
        t11 = corners[:, 0, 0] - corners[:, 2, 0]
        t12 = corners[:, 1, 0] - corners[:, 2, 0]
        t21 = corners[:, 0, 1] - corners[:, 2, 1]
        t22 = corners[:, 1, 1] - corners[:, 2, 1]
        det = t11 * t22 - t12 * t21
        self._inv_maps = np.empty((len(triangles), 2, 2))
        self._inv_maps[:, 0, 0] = t22 / det
        self._inv_maps[:, 0, 1] = -t12 / det
        self._inv_maps[:, 1, 0] = -t21 / det
        self._inv_maps[:, 1, 1] = t11 / det
        self._v3 = corners[:, 2]

        self.edge_adjacency = self._build_edge_adjacency()
        self._check_conforming()

    def _orient_ccw(self, triangles):
        corners = self.vertices[triangles]
        d1 = corners[:, 1] - corners[:, 0]
        d2 = corners[:, 2] - corners[:, 0]
        signed = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        out = triangles.copy()
        flip = signed < 0
        out[flip, 1], out[flip, 2] = triangles[flip, 2], triangles[flip, 1]
        return out

    def _validate_triangles(self):
        xmin, xmax = self.vertices[:, 0].min(), self.vertices[:, 0].max()
        ymin, ymax = self.vertices[:, 1].min(), self.vertices[:, 1].max()
        scale2 = max((xmax - xmin) ** 2 + (ymax - ymin) ** 2, 1e-300)
        corners = self.vertices[self.triangles]
        d1 = corners[:, 1] - corners[:, 0]
        d2 = corners[:, 2] - corners[:, 0]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        for t, tri in enumerate(self.triangles):
            if len(set(tri.tolist())) != 3:
                raise DegenerateTriangle(f"triangle {t} repeats a vertex index")
        bad = np.where(signed <= 1e-14 * scale2)[0]
        if bad.size:
            raise DegenerateTriangle(
                f"triangles {bad.tolist()} have zero area (collinear vertices)"
            )

    def _build_edge_adjacency(self):
        adjacency = {}
        for t, (a, b, c) in enumerate(self.triangles):
            for u, v in ((a, b), (b, c), (c, a)):
                key = (int(min(u, v)), int(max(u, v)))
                adjacency.setdefault(key, []).append(t)
        return adjacency

    def _check_conforming(self):
        for edge, tris in self.edge_adjacency.items():
            if len(tris) > 2:
                raise NonConforming(f"edge {edge} is shared by triangles {tris}")
        # Triangles across a shared edge must lie on opposite sides of it,
        # otherwise they overlap in area.
        for (a, b), tris in self.edge_adjacency.items():
            if len(tris) != 2:
                continue
            pa, pb = self.vertices[a], self.vertices[b]
            sides = []
            for t in tris:
                other = [v for v in self.triangles[t] if v != a and v != b][0]
                po = self.vertices[other]
                cross = (pb[0] - pa[0]) * (po[1] - pa[1]) - (pb[1] - pa[1]) * (po[0] - pa[0])
                sides.append(cross)
            if sides[0] * sides[1] > 0:
                raise NonConforming(
                    f"triangles {tris} overlap across edge ({a}, {b})"
                )
        # No vertex may sit strictly inside another triangle's edge
        # (T-junction). O(E * V) scan; mesh sizes here keep this cheap.
        verts = self.vertices
        scale = math.sqrt(max(
            (verts[:, 0].max() - verts[:, 0].min()) ** 2
            + (verts[:, 1].max() - verts[:, 1].min()) ** 2, 1e-300))
        tol = 1e-12 * scale
        idx = np.arange(len(verts))
        for (a, b), tris in self.edge_adjacency.items():
            pa, pb = verts[a], verts[b]
            d = pb - pa
            L2 = d @ d
            rel = verts - pa
            cross = rel[:, 0] * d[1] - rel[:, 1] * d[0]
            proj = (rel @ d) / L2
            on_segment = (
                (np.abs(cross) <= tol * math.sqrt(L2))
                & (proj > 1e-12)
                & (proj < 1 - 1e-12)
                & (idx != a)
                & (idx != b)
            )
            hits = np.where(on_segment)[0]
            # only vertices actually used by some triangle matter
            used = [int(v) for v in hits if np.any(self.triangles == v)]
            if used:
                raise NonConforming(
                    f"vertex {used[0]} lies inside edge ({a}, {b}) of triangles {tris}"
                )

    def barycentric(self, t, points):
        return _parent_barycentric(self._corners[t], points)


def _parent_barycentric(tri_coords, points):
    """Barycentric coordinates relative to one (3, 2) triangle, as they were."""
    tri_coords = np.asarray(tri_coords, dtype=float)
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    t = np.array([
        [tri_coords[0, 0] - tri_coords[2, 0], tri_coords[1, 0] - tri_coords[2, 0]],
        [tri_coords[0, 1] - tri_coords[2, 1], tri_coords[1, 1] - tri_coords[2, 1]],
    ])
    det = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
    rel = pts - tri_coords[2]
    b1 = (t[1, 1] * rel[:, 0] - t[0, 1] * rel[:, 1]) / det
    b2 = (-t[1, 0] * rel[:, 0] + t[0, 0] * rel[:, 1]) / det
    out = np.stack([b1, b2, 1.0 - b1 - b2], axis=1)
    return out[0] if single else out


def _parent_smoothness_matrix(tr, spec):
    """The smoothness matrix over the sorted edge_adjacency dict, as it was."""
    m, r = spec.degree, spec.smoothness
    if r > m:
        raise UnsupportedSmoothness(f"smoothness {r} exceeds degree {m}")
    dim = spec.per_triangle_dim
    imap = bernstein._index_map(m)
    rows, cols, vals = [], [], []
    row = 0
    for (va, vb), tris in sorted(tr.edge_adjacency.items()):
        if len(tris) != 2:
            continue
        t_lo, t_hi = sorted(tris)
        off_lo = [int(v) for v in tr.triangles[t_lo] if v != va and v != vb][0]
        off_hi = [int(v) for v in tr.triangles[t_hi] if v != va and v != vb][0]
        frame = tr.vertices[[off_lo, va, vb]]
        abg = _parent_barycentric(frame, tr.vertices[off_hi])
        pos_lo = _vertex_positions(tr.triangles[t_lo], (off_lo, va, vb))
        pos_hi = _vertex_positions(tr.triangles[t_hi], (off_hi, vb, va))
        for rho in range(r + 1):
            weights = bernstein.evaluate(rho, abg[None])[0]
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


def _parent_penalty_matrix(tr, spec):
    """The roughness matrix built one triangle block at a time, as it was."""
    m = spec.degree
    dim = spec.per_triangle_dim
    n = spec.dimension(tr)
    if m < 2:
        return sparse.csr_matrix((n, n))
    needed = 2 * (m - 2)
    if needed <= 5:
        rule = rule_9()
    else:
        rule = conical_rule(needed)
    w = rule.weights
    blocks = []
    for t in range(tr.n_triangles):
        coords = tr.corners[t]
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


def _parent_check_t_junctions(tr, tol):
    """The T-junction scan of every vertex against every edge, as it was."""
    verts = tr.vertices
    used = np.zeros(len(verts), dtype=bool)
    used[tr.triangles] = True
    for (a, b), tris in zip(tr.edges.tolist(), tr.edge_triangles.tolist()):
        pa, pb = verts[a], verts[b]
        d = pb - pa
        L2 = d @ d
        rel = verts - pa
        cross = rel[:, 0] * d[1] - rel[:, 1] * d[0]
        proj = (rel @ d) / L2
        hits = np.flatnonzero(
            (np.abs(cross) <= tol * math.sqrt(L2))
            & (proj > 1e-12)
            & (proj < 1 - 1e-12)
            & used
        )
        if hits.size:
            raise NonConforming(
                f"vertex {hits[0]} lies inside edge ({a}, {b}) of triangles "
                f"{[t for t in tris if t >= 0]}"
            )


class _ScanTriangulation(Triangulation):
    """A Triangulation whose vertex scan is the old T-junction scan, with
    its tolerance of 1e-12 times the bounding-box diagonal."""

    def _check_vertices(self, triangle_edges):
        xmin, xmax, ymin, ymax = self.bounding_box()
        _parent_check_t_junctions(self, 1e-12 * math.hypot(xmax - xmin, ymax - ymin))


def _parent_evaluation_matrix(tr, parent, spec, points, allow_outside=False):
    """The evaluation matrix built one triangle at a time, as it was."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t_idx = tr.locate(pts)
    outside = np.where(t_idx < 0)[0]
    if outside.size and not allow_outside:
        raise PointOutsideDomain(outside.tolist())
    m = spec.degree
    dim = spec.per_triangle_dim
    rows, cols, vals = [], [], []
    for t in np.unique(t_idx):
        if t < 0:
            continue
        sel = np.where(t_idx == t)[0]
        bary = parent.barycentric(t, pts[sel])
        basis = evaluate(m, bary)
        rows.append(np.repeat(sel, dim))
        cols.append(np.tile(np.arange(t * dim, (t + 1) * dim), len(sel)))
        vals.append(basis.ravel())
    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
    matrix = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(pts), spec.dimension(tr))
    )
    return matrix, t_idx


def _mixed_delaunay():
    """Delaunay mesh of random points with every other triangle clockwise."""
    from scipy.spatial import Delaunay

    pts = np.random.default_rng(7).random((80, 2))
    simplices = Delaunay(pts).simplices.copy()
    simplices[::2] = simplices[::2, ::-1]
    return pts, simplices


def _mesh_arrays(name):
    from tridensity import simbench
    from tridensity.assets import load_bundled_mesh

    if name == "sliver":  # triangle 0 has two 0.46 degree angles
        return ([[0, 0], [1, 0], [0.5, 0.004], [0.5, 1], [0.5, -1]],
                [[0, 1, 2], [0, 2, 3], [2, 1, 3], [0, 4, 1]])
    if name == "mixed_delaunay":
        return _mixed_delaunay()
    if name == "unused_vertex":  # vertex 4 sits on the diagonal but no triangle uses it
        return [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], [[0, 1, 2], [0, 2, 3]]
    if name.startswith("grid_"):
        side = {"grid_200": 10, "grid_968": 22}[name]
        tr = grid_mesh(-1, 2, 0, 5, side, side)
    elif name.startswith("sim"):
        tr = getattr(simbench, f"scenario_{name}")().domain
    else:
        tr = load_bundled_mesh(name)
    return tr.vertices, tr.triangles


MESHES = ["square_unit_32", "square_sim1_50", "horseshoe_112", "horseshoe_356",
          "grid_200", "grid_968", "sliver", "mixed_delaunay", "unused_vertex",
          "sim1", "sim2", "sim3"]


@pytest.fixture(scope="module", params=MESHES)
def mesh_pair(request):
    verts, tris = _mesh_arrays(request.param)
    return request.param, Triangulation(verts, tris), _ParentTriangulation(verts, tris)


def _assert_same_csr(new, old):
    assert new.shape == old.shape
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(new, attr), getattr(old, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr


def test_constructor_matches_parent(mesh_pair):
    name, tr, parent = mesh_pair
    for attr, old in (("triangles", parent.triangles), ("areas", parent.areas),
                      ("_inv_maps", parent._inv_maps), ("corners", parent._corners)):
        new = getattr(tr, attr)
        assert new.dtype == old.dtype and np.array_equal(new, old), attr
    assert tr.area == parent.area
    adjacency = sorted(parent.edge_adjacency.items())
    assert tr.edges.tolist() == [list(e) for e, _ in adjacency]
    assert tr.edge_triangles.tolist() == [ts + [-1] * (2 - len(ts)) for _, ts in adjacency]
    if name == "mixed_delaunay":
        verts, tris = _mesh_arrays(name)
        assert not np.array_equal(tr.triangles, tris)  # some input was clockwise


@pytest.mark.parametrize("m, r", [(0, 0), (1, 0), (2, 1), (3, 1), (4, 1), (5, 2), (3, 3)])
def test_smoothness_matrix_matches_parent(mesh_pair, m, r):
    name, tr, parent = mesh_pair
    spec = SplineSpec(m, r)
    _assert_same_csr(smoothness_matrix(tr, spec), _parent_smoothness_matrix(parent, spec))


@pytest.mark.parametrize("m", range(8))  # rule_9 and conical rules
def test_penalty_matrix_matches_parent(mesh_pair, m):
    name, tr, parent = mesh_pair
    spec = SplineSpec(m, 0)
    _assert_same_csr(penalty_matrix(tr, spec), _parent_penalty_matrix(tr, spec))


@pytest.mark.parametrize("m", range(6))
def test_stacked_derivative_matches_per_triangle(mesh_pair, m):
    name, tr, parent = mesh_pair
    corners = tr.corners[:40]
    bary = np.random.default_rng(m).dirichlet([1.0, 1.0, 1.0], size=7)
    for ax in range(4):
        for ay in range(4 - ax):  # orders above m included
            for b in (bary, bary[:1]):
                stacked = bernstein.derivative(m, corners, (ax, ay), b)
                each = np.array([bernstein.derivative(m, c, (ax, ay), b) for c in corners])
                assert stacked.shape == each.shape and np.array_equal(stacked, each)


def test_t_junction_scan_passes_parent(mesh_pair):
    name, tr, parent = mesh_pair
    xmin, xmax, ymin, ymax = tr.bounding_box()
    _parent_check_t_junctions(tr, 1e-12 * math.hypot(xmax - xmin, ymax - ymin))


def _hanging_vertex_mesh(seed):
    """A grid mesh in which some triangles are fanned out from points on
    one of their shared edges while the triangle across stays whole, so
    those points are T-junctions; unused vertices sit on other edges, and
    vertex and triangle labels are shuffled."""
    rng = np.random.default_rng(seed)
    tr = grid_mesh(0, 1.5, -1, 1, 5, 4)
    verts, tris = tr.vertices.tolist(), [t.tolist() for t in tr.triangles]
    shared = np.flatnonzero(tr.edge_triangles[:, 1] >= 0)
    touched = set()
    for e in rng.choice(shared, size=4, replace=False):
        pair = tr.edge_triangles[e].tolist()
        if touched & set(pair):
            continue
        touched |= set(pair)
        t = pair[rng.integers(2)]
        a, b = tr.edges[e].tolist()
        c = (set(tris[t]) - {a, b}).pop()
        fan = [a]
        for f in np.sort(rng.choice([0.25, 0.5, 0.75], size=rng.integers(1, 3), replace=False)):
            verts.append((tr.vertices[a] + f * (tr.vertices[b] - tr.vertices[a])).tolist())
            fan.append(len(verts) - 1)
        fan.append(b)
        tris[t] = [fan[0], fan[1], c]
        tris += [[p, q, c] for p, q in zip(fan[1:-1], fan[2:])]
    for e in rng.choice(len(tr.edges), size=3, replace=False):
        verts.append(tr.vertices[tr.edges[e]].mean(axis=0).tolist())
    perm = rng.permutation(len(verts))
    new_verts = np.empty((len(verts), 2))
    new_verts[perm] = verts
    return new_verts, perm[np.array(tris)][rng.permutation(len(tris))]


def test_scan_override_replaces_the_vertex_scan():
    """_ScanTriangulation overrides the hook the constructor calls, with
    its signature, so the parity test below compares two scans: a vertex
    inside another triangle, which only the new scan sees, loads."""
    import inspect

    hook = vars(Triangulation)["_check_vertices"]
    assert inspect.signature(_ScanTriangulation._check_vertices) == inspect.signature(hook)
    verts, tris = [[0, 0], [2, 0], [0, 2], [0.5, 0.5], [3, 0.5], [0.5, 3]], [[0, 1, 2], [3, 4, 5]]
    assert _ScanTriangulation(verts, tris).area == 5.125
    with pytest.raises(NonConforming, match=r"^vertex 3 lies inside triangle 0$"):
        Triangulation(verts, tris)


@pytest.mark.parametrize("seed", range(20))
def test_t_junction_errors_match_parent(seed):
    verts, tris = _hanging_vertex_mesh(seed)
    with pytest.raises(NonConforming) as old_exc:
        _ScanTriangulation(verts, tris)
    with pytest.raises(NonConforming) as new_exc:
        Triangulation(verts, tris)
    assert "lies inside edge" in str(old_exc.value)
    assert str(new_exc.value) == str(old_exc.value)


def _eval_points(tr, rng):
    """Random points in and around the bounding box, every vertex, every
    edge midpoint and some non-finite rows."""
    xmin, xmax, ymin, ymax = tr.bounding_box()
    w, h = xmax - xmin, ymax - ymin
    box = rng.random((3000, 2)) * [1.4 * w, 1.4 * h] + [xmin - 0.2 * w, ymin - 0.2 * h]
    mids = tr.vertices[tr.edges].mean(axis=1)
    bad = np.array([[np.nan, ymin], [np.inf, ymax], [1e308, -1e308]])
    return np.vstack([box, tr.vertices, mids, bad])


@pytest.mark.parametrize("m", [0, 1, 3, 5])
def test_evaluation_matrix_matches_parent(mesh_pair, m):
    name, tr, parent = mesh_pair
    spec = SplineSpec(m, 0)
    rng = np.random.default_rng(m)
    pts = _eval_points(tr, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        matrix, triangle_index = evaluation_matrix(tr, spec, pts)
        old, old_idx = _parent_evaluation_matrix(tr, parent, spec, pts, allow_outside=True)
    assert np.array_equal(triangle_index, old_idx)
    assert np.any(old_idx < 0) and np.any(old_idx >= 0)
    _assert_same_csr(matrix, old)
    gamma = rng.standard_normal(spec.dimension(tr))
    dense = rng.standard_normal((spec.dimension(tr), 4))
    assert np.array_equal(matrix @ gamma, old @ gamma)
    assert np.array_equal(matrix @ dense, old @ dense)

    inside = pts[old_idx >= 0]
    _assert_same_csr(evaluation_matrix(tr, spec, inside)[0],
                     _parent_evaluation_matrix(tr, parent, spec, inside)[0])


@pytest.mark.parametrize("name", ["square_unit_32", "horseshoe_112", "sliver", "unused_vertex"])
def test_data_basis_refuses_outside_as_parent(name):
    """ModelSpace.data_basis raises what the parent evaluation matrix
    raised without allow_outside: the same rows, the same message."""
    from tridensity.estimator import ModelSpace

    verts, tris = _mesh_arrays(name)
    tr, parent = Triangulation(verts, tris), _ParentTriangulation(verts, tris)
    spec = SplineSpec(3, 1)
    pts = _eval_points(tr, np.random.default_rng(3))[:50]
    with pytest.raises(PointOutsideDomain) as new_exc:
        ModelSpace(tr, spec).data_basis(pts)
    with pytest.raises(PointOutsideDomain) as old_exc:
        _parent_evaluation_matrix(tr, parent, spec, pts)
    assert new_exc.value.indices == old_exc.value.indices
    assert str(new_exc.value) == str(old_exc.value)


def test_evaluation_matrix_all_outside():
    tr = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    matrix, triangle_index = evaluation_matrix(tr, SplineSpec(2, 0), [[5.0, 5.0], [-1.0, 0.0]])
    assert matrix.shape == (2, 6) and matrix.nnz == 0
    assert triangle_index.tolist() == [-1, -1]


BAD_MESHES = {
    "index_out_of_range": ([[0, 0], [1, 0], [1, 1]], [[0, 1, 3]]),
    "collinear": ([[0, 0], [1, 0], [2, 0], [0, 1]], [[0, 3, 1], [0, 1, 2]]),
    "repeated_index": ([[0, 0], [1, 0], [0, 1]], [[0, 1, 2], [0, 1, 1]]),
    "overlap": ([[0, 0], [1, 0], [1, 1], [0.8, 0.9]], [[0, 1, 2], [0, 1, 3]]),
    "overlap_clockwise_input": ([[0, 0], [1, 0], [1, 1], [0.8, 0.9]],
                                [[0, 2, 1], [3, 1, 0]]),
    "t_junction": ([[0, 0], [1, 0], [1, 1], [2, 0], [1, 0.5]],
                   [[0, 1, 2], [1, 3, 4], [4, 3, 2]]),
    # vertex 4 sits at the midpoint of the diagonal (0, 2) shared by both
    # triangles of the square; the triangle using it shares no edge
    "vertex_inside_interior_edge": ([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5],
                                     [3, 3], [3, 4]],
                                    [[0, 1, 2], [0, 2, 3], [4, 5, 6]]),
    "edge_on_three": ([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, -1]],
                      [[0, 1, 2], [0, 1, 3], [0, 1, 4]]),
    # an overlap on edge (0, 1) listed before an edge on three triangles
    "overlap_then_three": ([[0, 0], [1, 0], [1, 1], [0.8, 0.9], [5, 5], [6, 5], [5, 6],
                            [6, 7]],
                           [[0, 1, 2], [0, 1, 3], [4, 5, 6], [4, 5, 7], [5, 4, 6]]),
}


@pytest.mark.parametrize("name", sorted(BAD_MESHES))
def test_bad_mesh_errors_match_parent(name):
    verts, tris = BAD_MESHES[name]
    with pytest.raises(MeshError) as old_exc:
        _ParentTriangulation(verts, tris)
    with pytest.raises(MeshError) as new_exc:
        Triangulation(verts, tris)
    assert type(new_exc.value) is type(old_exc.value)
    assert str(new_exc.value) == str(old_exc.value)
    if name == "vertex_inside_interior_edge":
        assert "of triangles [0, 1]" in str(new_exc.value)
