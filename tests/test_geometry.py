import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tridensity import geometry
from tridensity.assets import BUNDLED_MESHES, load_bundled_mesh
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
)

from conftest import (LONG_ROWS, OVERLAPS_NO_VERTEX_ENTERS, SHORT_ROWS, grid_mesh, random_triangle,
                      write_square_csvs)


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


@pytest.mark.parametrize("which, text, where", SHORT_ROWS + LONG_ROWS)
def test_short_row_names_its_file_and_line(tmp_path, which, text, where):
    paths = write_square_csvs(tmp_path, **{which: text})
    with pytest.raises(MeshError, match=f"^{re.escape(f'{paths[which]}: {where}')}$"):
        if which == "points":
            load_points(paths["points"])
        else:
            load_mesh(paths["vertices"], paths["triangles"])


def test_extra_header_columns_are_read_past():
    pts = load_points(io.StringIO("x,y,weight\n1,2,3\n4,5\n"))
    assert pts.tolist() == [[1.0, 2.0], [4.0, 5.0]]


@pytest.mark.parametrize("name", BUNDLED_MESHES)
def test_corners_are_the_counterclockwise_gather(name):
    tr = load_bundled_mesh(name)
    assert not tr.corners.flags.writeable
    assert tr.corners.shape == (tr.n_triangles, 3, 2)
    assert np.array_equal(tr.corners, tr.vertices[tr.triangles])
    d1 = tr.corners[:, 1] - tr.corners[:, 0]
    d2 = tr.corners[:, 2] - tr.corners[:, 0]
    assert np.all(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0)


@pytest.mark.parametrize("name", ["vertices", "triangles", "corners", "edges", "edge_triangles",
                                  "areas"])
def test_mesh_arrays_are_read_only(name):
    """Bundled meshes are cached and shared by every caller in the process,
    so no array of one may be written in place."""
    arr = getattr(load_bundled_mesh("horseshoe_112"), name)
    with pytest.raises(ValueError, match="read-only"):
        arr[0] = arr[0]


def test_corners_of_clockwise_input_are_swapped():
    verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    tr = Triangulation(verts, [[0, 2, 1], [0, 2, 3]])  # the first is clockwise
    assert tr.corners.tolist() == [[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]]


@pytest.mark.parametrize("vertices, triangles, message", [
    ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], "vertices must be a (V, 2) array"),
    ([[0, 0], [1, 0], [0, 1]], [[0, 1]], "triangles must be a (N, 3) array"),
    ([[0, 0], [1, 0], [0, 1]], np.empty((0, 3), dtype=np.int64), "mesh has no triangles"),
])
def test_malformed_arrays_rejected(vertices, triangles, message):
    with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
        Triangulation(vertices, triangles)


def test_overlapping_triangles_rejected():
    # both triangles sit on the same side of their shared edge
    with pytest.raises(NonConforming):
        Triangulation([[0, 0], [1, 0], [1, 1], [0.8, 0.9]], [[0, 1, 2], [0, 1, 3]])


@pytest.mark.parametrize("vertices", [
    [[0, 0], [2, 0], [0, 2], [0.5, 0.5], [3, 0.5], [0.5, 3]],  # edges cross
    [[0, 0], [4, 0], [0, 4], [1, 1], [2, 1], [1, 2]],  # triangle 1 nested in 0
])
def test_overlap_through_a_vertex_rejected(vertices):
    # the triangles share no edge; vertex 3 lies inside triangle 0
    with pytest.raises(NonConforming, match=r"^vertex 3 lies inside triangle 0$"):
        Triangulation(vertices, [[0, 1, 2], [3, 4, 5]])


@pytest.mark.parametrize("vertices, triangles, message", OVERLAPS_NO_VERTEX_ENTERS)
def test_overlap_that_no_vertex_enters_rejected(vertices, triangles, message):
    with pytest.raises(NonConforming, match=f"^{re.escape(message)}$"):
        Triangulation(vertices, triangles)


def test_corners_coinciding_under_two_labels_do_not_cross():
    """Vertex 3 sits one rounding step left of vertex 1, as on the
    horseshoe seams: its edge (3, 5) crosses edge (1, 2) by 1.1e-16, inside
    the crossing margin, so the two triangles still load."""
    tr = Triangulation([[0, 0], [1, 0], [0, 1], [1 - 2 ** -53, 0], [2, 0], [1.5, 1]],
                       [[0, 1, 2], [3, 4, 5]])
    assert tr.area == 1.0


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pick=st.integers(0, 10 ** 6),
       weights=st.tuples(*[st.floats(0.05, 1.0)] * 3))
def test_vertex_moved_into_another_triangle_rejected(seed, pick, weights):
    """A random Delaunay mesh loads; moved strictly inside a triangle that
    does not use it, one interior vertex makes the mesh non-conforming."""
    from scipy.spatial import Delaunay

    pts = np.random.default_rng(seed).random((30, 2))
    mesh = Delaunay(pts)
    simplices = mesh.simplices
    Triangulation(pts, simplices)
    interior = np.setdiff1d(np.arange(len(pts)), mesh.convex_hull)
    v = interior[pick % len(interior)]
    away = np.flatnonzero(~np.any(simplices == v, axis=1))
    t = away[pick // len(interior) % len(away)]
    moved = pts.copy()
    moved[v] = np.array(weights) / sum(weights) @ pts[simplices[t]]
    with pytest.raises(NonConforming):
        Triangulation(moved, simplices)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pick=st.integers(0, 10 ** 6),
       weights=st.tuples(*[st.floats(0.05, 1.0)] * 3), angle=st.floats(0.0, 2 * math.pi))
def test_triangle_with_a_corner_inside_another_rejected(seed, pick, weights, angle):
    """A thin triangle added to a random Delaunay mesh, with corner 30
    strictly inside a mesh triangle and the other two outside the unit
    square, shares no edge with the mesh: only the vertex scan sees the
    overlap. (Moving a vertex, above, also flips one of its own triangles,
    which the directed-edge check reports first.)"""
    from scipy.spatial import Delaunay

    pts = np.random.default_rng(seed).random((30, 2))
    simplices = Delaunay(pts).simplices
    t = pick % len(simplices)
    corner = np.array(weights) / sum(weights) @ pts[simplices[t]]
    d = np.array([math.cos(angle), math.sin(angle)])
    across = 1e-6 * np.array([-d[1], d[0]])
    verts = np.vstack([pts, corner, corner + 3 * d + across, corner + 3 * d - across])
    with pytest.raises(NonConforming, match=f"^vertex 30 lies inside triangle {t}$"):
        Triangulation(verts, np.vstack([simplices, [30, 31, 32]]))


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
    centroid = tri.mean(axis=0, keepdims=True)
    assert barycentric(tri, centroid)[0] == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    assert barycentric(tri, tri[:1])[0] == pytest.approx([1, 0, 0], abs=1e-14)
    mid01 = (tri[:1] + tri[1:2]) / 2
    assert barycentric(tri, mid01).shape == (1, 3)
    assert barycentric(tri, mid01)[0] == pytest.approx([0.5, 0.5, 0.0], abs=1e-14)


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
    assert square2.locate(np.array([[2 / 3, 1 / 3]])).tolist() == [0]
    assert square2.locate(np.array([[10.0, 10.0]])).tolist() == [-1]
    # point on the shared diagonal goes to the lower-indexed triangle
    assert square2.locate(np.array([[0.5, 0.5]])).tolist() == [0]
    idx = square2.locate(np.array([[0.9, 0.1], [0.1, 0.9], [5.0, 5.0]]))
    assert idx.tolist() == [0, 1, -1]


def test_locate_then_barycentric_consistent(unit32, rng):
    pts = rng.random((200, 2))
    idx = unit32.locate(pts)
    assert np.all(idx >= 0)
    for p, t in zip(pts, idx):
        assert barycentric(unit32.corners[t], p[None]).min() >= -geometry.TOL_LOCATE
    bary = barycentric(unit32.corners[idx], pts)  # one triangle per point
    assert bary.shape == (200, 3) and bary.min() >= -geometry.TOL_LOCATE


def _scan_locate(tr, points, tol=geometry.TOL_LOCATE):
    """Reference point location: every point against every triangle, first
    hit in index order (the all-triangles scan locate once used)."""
    pts = np.asarray(points, dtype=float)
    found = np.full(len(pts), -1, dtype=np.int64)
    chunk = max(1, int(2_000_000 // max(1, tr.n_triangles)))
    for lo in range(0, len(pts), chunk):
        p = pts[lo:lo + chunk]
        rel = p[None, :, :] - tr.corners[:, None, 2]  # (N, n, 2)
        b1 = tr._inv_maps[:, None, 0, 0] * rel[:, :, 0] + tr._inv_maps[:, None, 0, 1] * rel[:, :, 1]
        b2 = tr._inv_maps[:, None, 1, 0] * rel[:, :, 0] + tr._inv_maps[:, None, 1, 1] * rel[:, :, 1]
        b3 = 1.0 - b1 - b2
        inside = (b1 >= -tol) & (b2 >= -tol) & (b3 >= -tol)  # (N, n)
        any_hit = inside.any(axis=0)
        first = inside.argmax(axis=0)  # first True = lowest triangle index
        found[lo:lo + chunk] = np.where(any_hit, first, -1)
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
    probes = np.array([tr.vertices[0], [np.nan, 0.0], [1, 0], [1e308, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _scan_locate(tr, pts)
        expected_singles = _scan_locate(tr, probes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # huge and non-finite rows warn nothing
        got = tr.locate(pts)
        singles = [tr.locate(p[None]) for p in probes]  # one (1, 2) array each
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)
    assert np.any(got >= 0) and np.any(got < 0)
    empty = tr.locate(np.empty((0, 2)))
    assert empty.shape == (0,) and empty.dtype == np.int64
    assert all(one.shape == (1,) and one.dtype == np.int64 for one in singles)
    assert np.array_equal(np.concatenate(singles), expected_singles)


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


def vertex_neighborhoods(tr):
    """Rows of the triangle x triangle vertex-sharing pattern that the seed
    reads, which ModelSpace holds so that the mesh layer needs no scipy;
    each row's triangles ascending, and that row's area."""
    from tridensity.bernstein import SplineSpec
    from tridensity.estimator import ModelSpace

    space = ModelSpace(tr, SplineSpec(1, 0))
    hood = space._neighborhood
    assert np.all(hood.data == 1)
    rows = [hood.indices[a:b].tolist() for a, b in zip(hood.indptr[:-1], hood.indptr[1:])]
    assert all(row == sorted(row) for row in rows)
    return rows, space._neighborhood_areas


def test_vertex_neighborhood(square2):
    rows, areas = vertex_neighborhoods(square2)
    assert rows == [[0, 1], [0, 1]]
    assert np.array_equal(areas, [1.0, 1.0])
    single = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    assert vertex_neighborhoods(single)[0] == [[0]]


def test_vertex_neighborhood_grid_bruteforce():
    tr = grid_mesh(0, 1, 0, 1, 4, 4)
    rows, areas = vertex_neighborhoods(tr)
    for k in range(tr.n_triangles):
        mine = set(tr.triangles[k].tolist())
        expected = [
            j for j in range(tr.n_triangles)
            if mine & set(tr.triangles[j].tolist())
        ]
        assert rows[k] == expected
        assert areas[k] == tr.areas[expected].sum()


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
    assert load_points(io.StringIO("x,y\n1,2\n\n3,4\n")).tolist() == [[1, 2], [3, 4]]
    with pytest.raises(MeshError, match="^<stream>: empty file$"):
        load_points(io.StringIO(""))
    with pytest.raises(MeshError):
        load_points(io.StringIO("a,b\n1,2\n"))
    with pytest.raises(MeshError):
        load_points(io.StringIO("x,y\n1,zzz\n"))
    with pytest.raises(MeshError):
        load_points(io.StringIO("x,y\n1,nan\n"))
