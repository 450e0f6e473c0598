"""Triangulated planar domains: loading, point location, quality audit.

A domain is represented by a conforming triangulation: a list of vertices
and a list of vertex-index triples. Meshes are ingested from CSV files and
validated, never generated or refined here. All operations are pure reads
on an immutable mesh, safe for concurrent use.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTriangle, IndexOutOfRange, MeshError, NonConforming

# Barycentric slack used by point location and the mesh's vertex scan.
# Points whose smallest barycentric coordinate is >= -TOL_LOCATE count as
# inside; edge/vertex ties go to the lowest-indexed triangle.
TOL_LOCATE = 1e-10

# Pad of each triangle's bounding box in the point-location grid, relative
# to the domain extent. The points whose barycentric coordinates are all
# >= -TOL_LOCATE form the triangle scaled by 1 + 3 * TOL_LOCATE about its
# centroid, whose box exceeds the triangle's by at most 3 * TOL_LOCATE times
# its diameter; the pad leaves three orders of magnitude above that.
_BUCKET_PAD = 1e4 * TOL_LOCATE

# About this many grid cells per triangle; locate and the vertex scan
# work in chunks of _LOCATE_CHUNK points to bound their temporaries.
_CELLS_PER_TRIANGLE = 8
_LOCATE_CHUNK = 5000


@dataclass(frozen=True)
class MeshQuality:
    """Shape audit of a triangulation.

    mesh_size is the longest edge over all triangles, min_inradius the
    smallest inscribed-disk radius, and beta_ratio their quotient, the
    quasi-uniformity constant of the mesh (>= 2 for any triangle).
    """

    mesh_size: float
    min_inradius: float
    beta_ratio: float
    min_angle_deg: float


class Triangulation:
    """Immutable conforming triangulation of a polygonal domain.

    Parameters
    ----------
    vertices : (V, 2) array of finite vertex coordinates.
    triangles : (N, 3) integer array of vertex indices. Triangles are
        reordered counterclockwise on construction; input orientation is
        not preserved. The read-only (N, 3, 2) array ``corners`` holds
        ``vertices[triangles]`` in that order.

    Raises
    ------
    IndexOutOfRange, DegenerateTriangle, NonConforming
        If the arrays do not describe a valid edge-to-edge partition.
    """

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
        # One signed area per triangle decides orientation, degeneracy and
        # areas: swapping two corners negates it exactly.
        corners = vertices[triangles]  # (N, 3, 2)
        d1 = corners[:, 1] - corners[:, 0]
        d2 = corners[:, 2] - corners[:, 0]
        signed = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        triangles = triangles.copy()
        clockwise = signed < 0
        triangles[clockwise] = triangles[clockwise][:, [0, 2, 1]]
        corners[clockwise] = corners[clockwise][:, [0, 2, 1]]
        repeats = np.flatnonzero(np.any(np.diff(np.sort(triangles, axis=1)) == 0, axis=1))
        if repeats.size:
            raise DegenerateTriangle(f"triangle {repeats[0]} repeats a vertex index")
        self.areas = 0.5 * np.abs(signed)
        xmin, xmax, ymin, ymax = self.bounding_box()
        scale2 = max((xmax - xmin) ** 2 + (ymax - ymin) ** 2, 1e-300)
        bad = np.flatnonzero(self.areas <= 1e-14 * scale2)
        if bad.size:
            raise DegenerateTriangle(
                f"triangles {bad.tolist()} have zero area (collinear vertices)"
            )
        self.areas.setflags(write=False)
        self.area = float(self.areas.sum())

        self.triangles = triangles
        self.triangles.setflags(write=False)
        self.corners = corners
        self.corners.setflags(write=False)

        # Affine maps for barycentric coordinates: b12 = M (p - v3).
        t11, t12, t21, t22, det = _affine(corners)
        self._inv_maps = np.moveaxis(np.array([[t22, -t12], [-t21, t11]]) / det, -1, 0)

        self._buckets = _BucketGrid(self)  # point location and the vertex scan
        self._check_vertices(self._build_edges())
        self._check_crossings()

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_vertices(self):
        return len(self.vertices)

    def bounding_box(self):
        """(xmin, xmax, ymin, ymax) of the vertex set."""
        return (
            float(self.vertices[:, 0].min()),
            float(self.vertices[:, 0].max()),
            float(self.vertices[:, 1].min()),
            float(self.vertices[:, 1].max()),
        )

    def _build_edges(self):
        """edges (E, 2): vertex pairs, ascending, in lexicographic order;
        edge_triangles (E, 2): the triangles on each edge, ascending, -1
        second on the boundary. With every triangle counterclockwise, a
        directed edge that occurs twice means two triangles on the same
        side of an edge (an overlap) or an edge on three or more. Returns
        the (N, 3) edge indices of each triangle."""
        directed = self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)  # 3 per triangle
        forward = directed[:, 0] < directed[:, 1]
        self.edges, first, inverse, counts = np.unique(
            np.sort(directed, axis=1), axis=0,
            return_index=True, return_inverse=True, return_counts=True)
        inverse = inverse.ravel()
        n_forward = np.bincount(inverse, weights=forward, minlength=len(counts))
        twice = (n_forward > 1) | (counts - n_forward > 1)
        if twice.any():
            # report an edge on three or more triangles before an overlap,
            # the first listed edge of either kind
            bad = counts > 2 if np.any(counts > 2) else twice
            e = np.flatnonzero(bad)[np.argmin(first[bad])]
            tris = (np.flatnonzero(inverse == e) // 3).tolist()
            a, b = self.edges[e].tolist()
            if counts[e] > 2:
                raise NonConforming(f"edge {(a, b)} is shared by triangles {tris}")
            raise NonConforming(f"triangles {tris} overlap across edge ({a}, {b})")
        by_edge = np.argsort(inverse, kind="stable") // 3  # triangles ascending per edge
        start = np.cumsum(counts) - counts
        self.edge_triangles = np.full((len(counts), 2), -1, dtype=np.int64)
        self.edge_triangles[:, 0] = by_edge[start]
        shared = counts == 2
        self.edge_triangles[shared, 1] = by_edge[start[shared] + 1]
        self.edges.setflags(write=False)
        self.edge_triangles.setflags(write=False)
        return inverse.reshape(-1, 3)

    def _check_vertices(self, triangle_edges):
        """No used vertex may lie in a triangle it is not a corner of: its
        barycentric coordinates there all >= -TOL_LOCATE, as in locate, and
        the second smallest > TOL_LOCATE, so a vertex on top of a corner
        with another label passes. With the smallest <= TOL_LOCATE the
        vertex sits inside the edge opposite that corner (a T-junction).
        Reports the first such edge, with its lowest vertex; else the
        lowest vertex inside a triangle, with its lowest triangle."""
        used = np.unique(self.triangles)
        hits = []
        for lo in range(0, len(used), _LOCATE_CHUNK):
            chunk = used[lo:lo + _LOCATE_CHUNK]
            rows, cells, b = self._buckets.candidates(self.vertices[chunk])
            b, t = np.stack(b, axis=2), self._buckets.triangles[cells]  # NaN, -1 padded
            v = np.broadcast_to(chunk[rows][:, None], t.shape)
            low = np.sort(b, axis=2)
            lies = ((low[..., 0] >= -TOL_LOCATE) & (low[..., 1] > TOL_LOCATE)
                    & ~np.any(self.triangles[t] == v[..., None], axis=2))
            # edge k of a triangle runs from corner k, so corner j faces edge j + 1
            e = np.where(low[..., 0] <= TOL_LOCATE,
                         triangle_edges[t, (b.argmin(axis=2) + 1) % 3], -1)[lies]
            hits.append(np.column_stack([e < 0, e, v[lies], t[lies]]))
        hits = np.concatenate(hits)
        if len(hits):
            inner, e, v, t = hits[np.lexsort(hits.T[::-1])[0]].tolist()
            if inner:
                raise NonConforming(f"vertex {v} lies inside triangle {t}")
            a, b = self.edges[e].tolist()
            raise NonConforming(
                f"vertex {v} lies inside edge ({a}, {b}) of triangles "
                f"{[t for t in self.edge_triangles[e].tolist() if t >= 0]}"
            )

    def _check_crossings(self):
        """No two boundary edges that share no vertex label may cross. With
        no directed edge twice and no vertex in a foreign triangle, an
        overlap can only make the boundary cross itself. A crossing counts
        only where each end of either edge spans with the other a signed
        area (doubled) beyond TOL_LOCATE times the product of their
        lengths, so corners that coincide under different labels never
        count. Reports the first crossing pair in edge order."""
        ids = np.flatnonzero(self.edge_triangles[:, 1] < 0)
        seg = self.vertices[self.edges[ids]]  # (B, 2 ends, 2)
        # pairs whose extents overlap along the longer side, swept in order
        axis = int(np.argmax(np.ptp(self.vertices, axis=0)))
        lo, hi = seg[:, :, axis].min(axis=1), seg[:, :, axis].max(axis=1)
        order = np.argsort(lo, kind="stable")
        ids, seg, lo, hi = ids[order], seg[order], lo[order], hi[order]
        counts = np.searchsorted(lo, hi, side="right") - np.arange(len(ids)) - 1
        i = np.repeat(np.arange(len(ids)), counts)
        j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
        (a, b), (c, d) = self.edges[ids[i]].T, self.edges[ids[j]].T
        disjoint = (a != c) & (a != d) & (b != c) & (b != d)
        i, j = i[disjoint], j[disjoint]
        p, q, r, s = seg[i, 0], seg[i, 1], seg[j, 0], seg[j, 1]

        def area2(o, u, v):  # twice the signed area of each (o, u, v)
            (ux, uy), (vx, vy) = (u - o).T, (v - o).T
            return ux * vy - uy * vx

        o = np.stack([area2(p, q, r), area2(p, q, s), area2(r, s, p), area2(r, s, q)])
        margin = TOL_LOCATE * np.linalg.norm(q - p, axis=1) * np.linalg.norm(s - r, axis=1)
        cross = np.all(np.abs(o) > margin, axis=0) & (o[0] * o[1] < 0) & (o[2] * o[3] < 0)
        if cross.any():
            pairs = np.sort(np.column_stack([ids[i[cross]], ids[j[cross]]]), axis=1)
            e, f = pairs[np.lexsort(pairs.T[::-1])[0]].tolist()
            tris = sorted([int(self.edge_triangles[e, 0]), int(self.edge_triangles[f, 0])])
            raise NonConforming(f"triangles {tris} overlap: edges {tuple(self.edges[e].tolist())} "
                                f"and {tuple(self.edges[f].tolist())} cross")

    def locate(self, points):
        """Find the triangle containing each point.

        Returns the lowest-indexed triangle whose barycentric coordinates
        are all >= -TOL_LOCATE, so points on shared edges resolve to the
        lowest-indexed adjacent triangle. points is an (n, 2) array; the
        result is an (n,) int64 array, -1 for points outside the domain and
        for non-finite points.

        Each point is tested only against the candidates of its cell in a
        bucket grid over the bounding box, built with the mesh; the
        candidates are in ascending index order, so the first one that
        passes is the lowest-indexed containing triangle.
        """
        pts = np.asarray(points, dtype=float)
        grid = self._buckets
        found = np.full(len(pts), -1, dtype=np.int64)
        for lo in range(0, len(pts), _LOCATE_CHUNK):
            rows, cells, (b1, b2, b3) = grid.candidates(pts[lo:lo + _LOCATE_CHUNK])
            inside = (b1 >= -TOL_LOCATE) & (b2 >= -TOL_LOCATE) & (b3 >= -TOL_LOCATE)
            first = inside.argmax(axis=1)  # first True = lowest triangle index
            hit = inside[np.arange(len(rows)), first]
            found[lo + rows[hit]] = grid.triangles[cells[hit], first[hit]]
        return found


class _BucketGrid:
    """Uniform grid over a mesh's bounding box listing, per cell, every
    triangle whose padded bounding box overlaps the cell, in ascending
    index order.

    The lists are stored as a (cells, K) table padded with -1, together
    with each candidate's inverse affine map and third vertex; padding
    slots carry NaN maps, so no point ever passes them.
    """

    def __init__(self, tr):
        xmin, xmax, ymin, ymax = tr.bounding_box()
        pad = _BUCKET_PAD * max(xmax - xmin, ymax - ymin)
        self.side = max(1, int(math.sqrt(_CELLS_PER_TRIANGLE * tr.n_triangles)))
        self.origin = np.array([xmin - pad, ymin - pad])
        self.cell_size = np.array([xmax - xmin + 2 * pad, ymax - ymin + 2 * pad]) / self.side

        # cell ranges of the padded triangle boxes, with the same floor as
        # candidates so that a point inside a box lands in one of its cells
        lo = self._floor(tr.corners.min(axis=1) - pad).clip(0, self.side - 1).astype(np.int64)
        hi = self._floor(tr.corners.max(axis=1) + pad).clip(0, self.side - 1).astype(np.int64)
        span = hi - lo + 1  # (N, 2) cells per axis
        counts = span[:, 0] * span[:, 1]
        tri = np.repeat(np.arange(tr.n_triangles), counts)
        k = np.arange(len(tri)) - np.repeat(np.cumsum(counts) - counts, counts)
        ix = lo[tri, 0] + k // span[tri, 1]
        iy = lo[tri, 1] + k % span[tri, 1]
        cell = ix * self.side + iy
        order = np.argsort(cell, kind="stable")  # tri stays ascending per cell
        cell, tri = cell[order], tri[order]
        per_cell = np.bincount(cell, minlength=self.side * self.side)
        slot = np.arange(len(cell)) - (np.cumsum(per_cell) - per_cell)[cell]

        width = int(per_cell.max())
        self.triangles = np.full((self.side * self.side, width), -1, dtype=np.int64)
        self.triangles[cell, slot] = tri
        self.inv_maps = np.full((self.side * self.side, width, 2, 2), np.nan)
        self.inv_maps[cell, slot] = tr._inv_maps[tri]
        self.v3 = np.zeros((self.side * self.side, width, 2))
        self.v3[cell, slot] = tr.corners[tri, 2]

    def _floor(self, xy):
        return np.floor((xy - self.origin) / self.cell_size)

    def candidates(self, points):
        """Rows of the (n, 2) points inside the grid (finite ones only),
        their flat cell indices, and the barycentric coordinates
        (b1, b2, b3), each (rows, K), of each point in its cell's
        candidates, NaN in the padding."""
        with np.errstate(over="ignore", invalid="ignore"):  # huge or inf rows
            f = self._floor(points)
        ok = np.all((f >= 0) & (f < self.side), axis=1)  # NaN compares False
        rows = np.nonzero(ok)[0]
        ij = f[rows].astype(np.int64)
        cells = ij[:, 0] * self.side + ij[:, 1]
        q = points[rows]
        inv = self.inv_maps[cells]  # (rows, K, 2, 2)
        v3 = self.v3[cells]  # (rows, K, 2)
        r0 = q[:, 0, None] - v3[:, :, 0]
        r1 = q[:, 1, None] - v3[:, :, 1]
        b1 = inv[:, :, 0, 0] * r0 + inv[:, :, 0, 1] * r1
        b2 = inv[:, :, 1, 0] * r0 + inv[:, :, 1, 1] * r1
        return rows, cells, (b1, b2, 1.0 - b1 - b2)


def cell_grid(tr, resolution):
    """Cell centers of a resolution x resolution grid over the bounding box,
    row-major in x then y, which of them lie in the domain, and the area
    of one cell."""
    xmin, xmax, ymin, ymax = tr.bounding_box()
    dx = (xmax - xmin) / resolution
    dy = (ymax - ymin) / resolution
    xs = xmin + dx * (np.arange(resolution) + 0.5)
    ys = ymin + dy * (np.arange(resolution) + 0.5)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    return centers, tr.locate(centers) >= 0, dx * dy


def _affine(c):
    """Entries t11, t12, t21, t22 and determinant of T, the linear map with
    p - v3 = T (b1, b2), for triangles of (..., 3, 2) corners c."""
    t11 = c[..., 0, 0] - c[..., 2, 0]
    t12 = c[..., 1, 0] - c[..., 2, 0]
    t21 = c[..., 0, 1] - c[..., 2, 1]
    t22 = c[..., 1, 1] - c[..., 2, 1]
    return t11, t12, t21, t22, t11 * t22 - t12 * t21


def barycentric(tri_coords, points):
    """Barycentric coordinates of points relative to triangles.

    tri_coords is one triangle's (3, 2) corner coordinates, or an
    (n, 3, 2) array holding the triangle of each of n points. The third
    coordinate is computed as 1 - b1 - b2, so the triple sums to one up
    to rounding and reproduces the point affinely. points is an (n, 2)
    array; the result is an (n, 3) array.
    """
    c = np.asarray(tri_coords, dtype=float)
    pts = np.asarray(points, dtype=float)
    t11, t12, t21, t22, det = _affine(c)
    rel = pts - c[..., 2, :]
    b1 = (t22 * rel[:, 0] - t12 * rel[:, 1]) / det
    b2 = (-t21 * rel[:, 0] + t11 * rel[:, 1]) / det
    return np.stack([b1, b2, 1.0 - b1 - b2], axis=1)


def load_mesh(vertices_source, triangles_source):
    """Load and validate a triangulation from two CSV files.

    The vertex file has header ``x,y``, one vertex per row, implicitly
    indexed from zero. The triangle file has header ``v1,v2,v3`` with
    zero-based vertex indices.
    """
    vertices = _read_csv_table(vertices_source, ("x", "y"), float)
    triangles = _read_csv_table(triangles_source, ("v1", "v2", "v3"), int)
    return Triangulation(np.array(vertices, dtype=float).reshape(-1, 2),
                         np.array(triangles, dtype=np.int64).reshape(-1, 3))


def load_points(source):
    """Load scattered points from a CSV file with header ``x,y``."""
    rows = _read_csv_table(source, ("x", "y"), float)
    pts = np.array(rows, dtype=float).reshape(-1, 2)
    bad = np.where(~np.isfinite(pts).all(axis=1))[0]
    if bad.size:
        raise MeshError(f"non-finite coordinates at data rows {bad.tolist()[:10]}")
    return pts


def _read_csv_table(source, expected_header, cast):
    def parse(fh, name):
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MeshError(f"{name}: empty file")
        header = [h.strip().lower() for h in header]
        if header[: len(expected_header)] != list(expected_header):
            raise MeshError(
                f"{name}: expected header {','.join(expected_header)}, got {','.join(header)}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(expected_header):
                raise MeshError(f"{name}: line {lineno}: expected {len(expected_header)} "
                                f"fields, got {len(row)}")
            if len(row) > len(header):
                raise MeshError(f"{name}: line {lineno}: {len(row)} fields, more than the "
                                f"{len(header)} of the header")
            try:
                rows.append([cast(x) for x in row[: len(expected_header)]])
            except ValueError as exc:
                raise MeshError(f"{name}: line {lineno}: {exc}") from exc
        return rows

    if hasattr(source, "read"):
        return parse(source, getattr(source, "name", "<stream>"))
    with open(source, newline="") as fh:
        return parse(fh, str(source))


def mesh_quality(tr):
    """Compute the MeshQuality audit of a triangulation."""
    corners = tr.corners
    edges = np.linalg.norm(corners[:, [1, 2, 0]] - corners, axis=2)  # edge k leaves corner k
    mesh_size = float(edges.max())
    semi = edges.sum(axis=1) / 2.0
    inradius = tr.areas / semi
    min_inradius = float(inradius.min())
    # law of cosines at corner k: opposite side k + 1, adjacent sides k + 2 and k
    opp, prev = edges[:, [1, 2, 0]], edges[:, [2, 0, 1]]
    cosv = np.clip((prev ** 2 + edges ** 2 - opp ** 2) / (2 * prev * edges), -1.0, 1.0)
    min_angle = float(np.degrees(np.arccos(cosv)).min())
    return MeshQuality(
        mesh_size=mesh_size,
        min_inradius=min_inradius,
        beta_ratio=mesh_size / min_inradius,
        min_angle_deg=min_angle,
    )
