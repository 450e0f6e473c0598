import io
import math
import warnings

import numpy as np
import pytest

from tridensity import geometry
from tridensity.errors import (
    DegenerateTriangle,
    IndexOutOfRange,
    MeshError,
    NonConforming,
)
from tridensity.geometry import (
    Triangulation,
    barycentric,
    load_mesh,
    load_points,
    mesh_quality,
    vertex_neighborhood,
)

from conftest import grid_mesh, random_triangle


def test_load_mesh_square(tmp_path):
    vp = tmp_path / "v.csv"
    tp = tmp_path / "t.csv"
    vp.write_text("x,y\n0,0\n1,0\n1,1\n0,1\n")
    tp.write_text("v1,v2,v3\n0,1,2\n0,2,3\n")
    tr = load_mesh(vp, tp)
    assert tr.n_triangles == 2
    assert tr.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [2, 3]]
    assert tr.edge_triangles.tolist() == [[0, -1], [0, 1], [1, -1], [0, -1], [1, -1]]
    assert tr.area == pytest.approx(1.0)


def test_load_mesh_bad_index(tmp_path):
    vp = tmp_path / "v.csv"
    tp = tmp_path / "t.csv"
    vp.write_text("x,y\n0,0\n1,0\n1,1\n0,1\n")
    tp.write_text("v1,v2,v3\n0,1,99\n")
    with pytest.raises(IndexOutOfRange):
        load_mesh(vp, tp)


def test_overlapping_triangles_rejected():
    # both triangles sit on the same side of their shared edge
    with pytest.raises(NonConforming):
        Triangulation([[0, 0], [1, 0], [1, 1], [0.8, 0.9]], [[0, 1, 2], [0, 1, 3]])


def test_t_junction_rejected():
    # vertex 4 splits the edge (1, 2) of triangle 0
    verts = [[0, 0], [1, 0], [1, 1], [2, 0], [1, 0.5]]
    with pytest.raises(NonConforming):
        Triangulation(verts, [[0, 1, 2], [1, 3, 4], [4, 3, 2]])


def test_edge_shared_three_times_rejected():
    verts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, -1]]
    with pytest.raises(NonConforming):
        Triangulation(verts, [[0, 1, 2], [0, 1, 3], [0, 1, 4]])


def test_degenerate_triangle_rejected():
    with pytest.raises(DegenerateTriangle):
        Triangulation([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])
    with pytest.raises(DegenerateTriangle):
        Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 1]])


def test_orientation_normalized():
    tr = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])  # clockwise input
    assert np.all(tr.areas > 0)
    assert set(tr.triangles[0].tolist()) == {0, 1, 2}


def test_constructor_does_not_freeze_caller_arrays():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    Triangulation(verts, tris)
    verts[0, 0] = 5.0  # caller arrays stay writable
    tris[0, 0] = 0


def test_nonfinite_vertex_rejected():
    with pytest.raises(MeshError):
        Triangulation([[0, 0], [1, 0], [np.nan, 1]], [[0, 1, 2]])


def test_barycentric_closed_forms(rng):
    tri = random_triangle(rng)
    centroid = tri.mean(axis=0)
    assert barycentric(tri, centroid) == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    assert barycentric(tri, tri[0]) == pytest.approx([1, 0, 0], abs=1e-14)
    mid01 = (tri[0] + tri[1]) / 2
    assert barycentric(tri, mid01) == pytest.approx([0.5, 0.5, 0.0], abs=1e-14)


def test_barycentric_sum_and_reconstruction(rng):
    for _ in range(50):
        tri = random_triangle(rng)
        b = rng.dirichlet([1, 1, 1], size=20)
        pts = b @ tri
        back = barycentric(tri, pts)
        assert np.abs(back.sum(axis=1) - 1).max() <= 1e-12
        recon = back @ tri
        scale = np.abs(pts).max() + 1
        assert np.abs(recon - pts).max() <= 1e-12 * scale


def test_locate_basic(square2):
    assert square2.locate(np.array([2 / 3, 1 / 3])) == 0
    assert square2.locate(np.array([10.0, 10.0])) is None
    # point on the shared diagonal goes to the lower-indexed triangle
    assert square2.locate(np.array([0.5, 0.5])) == 0
    idx = square2.locate(np.array([[0.9, 0.1], [0.1, 0.9], [5.0, 5.0]]))
    assert idx.tolist() == [0, 1, -1]


def test_locate_then_barycentric_consistent(unit32, rng):
    pts = rng.random((200, 2))
    idx = unit32.locate(pts)
    assert np.all(idx >= 0)
    for p, t in zip(pts, idx):
        assert barycentric(unit32.triangle_coords(t), p).min() >= -geometry.TOL_LOCATE
    bary = barycentric(unit32.triangle_coords(idx), pts)  # one triangle per point
    assert bary.shape == (200, 3) and bary.min() >= -geometry.TOL_LOCATE


def _scan_locate(tr, points, tol=geometry.TOL_LOCATE):
    """Reference point location: every point against every triangle, first
    hit in index order (the all-triangles scan locate once used)."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    found = np.full(len(pts), -1, dtype=np.int64)
    chunk = max(1, int(2_000_000 // max(1, tr.n_triangles)))
    for lo in range(0, len(pts), chunk):
        p = pts[lo:lo + chunk]
        rel = p[None, :, :] - tr._v3[:, None, :]  # (N, n, 2)
        b1 = tr._inv_maps[:, None, 0, 0] * rel[:, :, 0] + tr._inv_maps[:, None, 0, 1] * rel[:, :, 1]
        b2 = tr._inv_maps[:, None, 1, 0] * rel[:, :, 0] + tr._inv_maps[:, None, 1, 1] * rel[:, :, 1]
        b3 = 1.0 - b1 - b2
        inside = (b1 >= -tol) & (b2 >= -tol) & (b3 >= -tol)  # (N, n)
        any_hit = inside.any(axis=0)
        first = inside.argmax(axis=0)  # first True = lowest triangle index
        found[lo:lo + chunk] = np.where(any_hit, first, -1)
    if single:
        return None if found[0] < 0 else int(found[0])
    return found


def _sliver_mesh():
    # triangle 0 has two 0.46 degree angles
    verts = [[0, 0], [1, 0], [0.5, 0.004], [0.5, 1], [0.5, -1]]
    return Triangulation(verts, [[0, 1, 2], [0, 2, 3], [2, 1, 3], [0, 4, 1]])


def _oracle_mesh(name):
    from tridensity import simbench
    from tridensity.assets import load_bundled_mesh

    if name == "sliver":
        return _sliver_mesh()
    if name == "grid_968":
        return grid_mesh(-1, 2, 0, 5, 22, 22)
    if name.startswith("sim"):
        return getattr(simbench, f"scenario_{name}")().domain
    return load_bundled_mesh(name)


def _oracle_points(tr, rng):
    """Random points in and around the bounding box, vertices, points along
    every edge, points just inside and just outside every edge within the
    locate tolerance scale, and non-finite rows."""
    xmin, xmax, ymin, ymax = tr.bounding_box()
    w, h = xmax - xmin, ymax - ymin
    box = rng.random((4000, 2)) * [1.4 * w, 1.4 * h] + [xmin - 0.2 * w, ymin - 0.2 * h]
    corners = tr.vertices[tr.triangles]  # (N, 3, 2)
    along = [corners[:, i] + a * (corners[:, (i + 1) % 3] - corners[:, i])
             for a in (0.5, 0.25, 1 / 3) for i in range(3)]
    off_edge = []
    for delta in (0.5e-10, 2e-10):
        for i in range(3):
            bary = np.full(3, 0.5 + delta / 2)
            bary[i] = -delta
            off_edge.append(np.einsum("k,nkd->nd", bary, corners))
    far = np.array([[xmax + 10 * w, ymin], [xmin, ymax + 1e-3 * h], [1e308, -1e308],
                    [-1e308, 1e308], [1e308, 1e308]])
    nonfinite = np.array([[np.nan, ymin], [xmin, np.nan], [np.inf, ymin],
                          [xmin, -np.inf], [np.nan, np.inf]])
    return np.vstack([box, tr.vertices, *along, *off_edge, far, nonfinite])


@pytest.mark.parametrize("name", [
    "square_unit_32", "square_sim1_50", "horseshoe_112", "horseshoe_356",
    "sim1", "sim2", "sim3", "grid_968", "sliver",
])
def test_locate_matches_scan_oracle(name, rng):
    tr = _oracle_mesh(name)
    if name == "sliver":
        assert mesh_quality(tr).min_angle_deg < 1.0
    pts = _oracle_points(tr, rng)
    probes = (tr.vertices[0], [np.nan, 0.0], [1, 0], [1e308, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _scan_locate(tr, pts)
        expected_singles = [_scan_locate(tr, p) for p in probes]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # huge and non-finite rows warn nothing
        got = tr.locate(pts)
        singles = [tr.locate(p) for p in probes]
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)
    assert np.any(got >= 0) and np.any(got < 0)
    empty = tr.locate(np.empty((0, 2)))
    assert empty.shape == (0,) and empty.dtype == np.int64
    assert singles == expected_singles
    assert all(one is None or type(one) is int for one in singles)


def test_mesh_quality_equilateral():
    tr = Triangulation([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]], [[0, 1, 2]])
    q = mesh_quality(tr)
    assert q.mesh_size == pytest.approx(1.0)
    assert q.min_inradius == pytest.approx(1 / (2 * math.sqrt(3)))
    assert q.min_angle_deg == pytest.approx(60.0)
    assert q.beta_ratio == pytest.approx(2 * math.sqrt(3))


def test_mesh_quality_right_isoceles_and_square(square2):
    tr = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    q = mesh_quality(tr)
    assert q.mesh_size == pytest.approx(math.sqrt(2))
    assert q.min_inradius == pytest.approx((2 - math.sqrt(2)) / 2)
    q2 = mesh_quality(square2)
    assert q2.beta_ratio == pytest.approx(math.sqrt(2) / ((2 - math.sqrt(2)) / 2))


def test_mesh_quality_invariants(square2, unit32, horseshoe):
    for tr in (square2, unit32, horseshoe):
        q = mesh_quality(tr)
        assert q.beta_ratio >= 2.0
        assert 0 < q.min_angle_deg <= 60.0


def test_vertex_neighborhood(square2):
    assert vertex_neighborhood(square2, 0) == {0, 1}
    single = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    assert vertex_neighborhood(single, 0) == {0}


def test_vertex_neighborhood_grid_bruteforce():
    tr = grid_mesh(0, 1, 0, 1, 4, 4)
    for k in range(tr.n_triangles):
        got = vertex_neighborhood(tr, k)
        mine = set(tr.triangles[k].tolist())
        expected = {
            j for j in range(tr.n_triangles)
            if mine & set(tr.triangles[j].tolist())
        }
        assert got == expected


def test_delaunay_meshes_accepted(rng):
    from scipy.spatial import Delaunay

    pts = rng.random((60, 2))
    dt = Delaunay(pts)
    tr = Triangulation(pts, dt.simplices)
    assert tr.n_triangles == len(dt.simplices)
    q = mesh_quality(tr)
    assert np.isfinite(q.beta_ratio)


def test_bundled_meshes_load_and_match_names():
    from tridensity.assets import BUNDLED_MESHES, load_bundled_mesh, mesh_paths

    expected = {
        "square_unit_32": 32,
        "square_sim1_50": 50,
        "horseshoe_112": 112,
        "horseshoe_356": 356,
    }
    assert set(BUNDLED_MESHES) == set(expected)
    for name, n in expected.items():
        tr = load_bundled_mesh(name)
        assert tr.n_triangles == n
        q = mesh_quality(tr)
        assert np.isfinite(q.beta_ratio) and q.min_angle_deg > 0
    with pytest.raises(KeyError):
        mesh_paths("no_such_mesh")


def test_load_points_and_errors(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y\n0.25,0.5\n")
    assert load_points(p).tolist() == [[0.25, 0.5]]
    assert load_points(io.StringIO("x,y\n1,2\n3,4\n")).shape == (2, 2)
    with pytest.raises(MeshError):
        load_points(io.StringIO("a,b\n1,2\n"))
    with pytest.raises(MeshError):
        load_points(io.StringIO("x,y\n1,zzz\n"))
    with pytest.raises(MeshError):
        load_points(io.StringIO("x,y\n1,nan\n"))
