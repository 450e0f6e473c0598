import os
import sys

import numpy as np
import pytest

from tridensity.bernstein import evaluate, index_set
from tridensity.geometry import Triangulation
from tridensity.quadrature import domain_nodes


def grid_mesh(xmin, xmax, ymin, ymax, nx, ny):
    """Structured rectangle mesh used as a test harness."""
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    verts = [(x, y) for x in xs for y in ys]
    vid = lambda i, j: i * (ny + 1) + j
    tris = []
    for i in range(nx):
        for j in range(ny):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return Triangulation(np.array(verts, float), np.array(tris))


# (vertices, triangles, message): two triangles that overlap with no vertex
# of either inside the other, so only their boundary edges cross
OVERLAPS_NO_VERTEX_ENTERS = [
    pytest.param([[0, 0], [2, 0], [1, 1.732], [0, 1.155], [2, 1.155], [1, -0.577]],
                 [[0, 1, 2], [3, 5, 4]],
                 "triangles [0, 1] overlap: edges (0, 1) and (3, 5) cross", id="hexagram"),
    pytest.param([[0, -0.1], [10, 0], [0, 0.1], [5, -10], [5.1, 10], [4.9, 10]],
                 [[0, 1, 2], [3, 4, 5]],
                 "triangles [0, 1] overlap: edges (0, 1) and (3, 4) cross", id="crossing_slivers"),
]


# The unit square as CSV files, and one data point inside it
SQUARE_CSV = {"vertices": "x,y\n0,0\n1,0\n1,1\n0,1\n",
              "triangles": "v1,v2,v3\n0,1,2\n0,2,3\n",
              "points": "x,y\n0.25,0.5\n"}

# (file, its text with a row shorter than the header, where and how short
# the row is). Kept, such rows would pair up into other rows: the first case
# would read as three points and the last as the square's two triangles.
SHORT_ROWS = [
    pytest.param("points", "x,y\n0.1\n0.2\n0.3\n0.4\n0.5\n0.6\n",
                 "line 2: expected 2 fields, got 1", id="points-all"),
    pytest.param("points", "x,y\n0.1,0.2\n0.3\n0.5,0.6\n",
                 "line 3: expected 2 fields, got 1", id="points-one"),
    pytest.param("vertices", "x,y\n0,0\n1,0\n1\n0,1\n",
                 "line 4: expected 2 fields, got 1", id="vertices"),
    pytest.param("triangles", "v1,v2,v3\n0,1\n2,0\n2,3\n",
                 "line 2: expected 3 fields, got 2", id="triangles"),
]

# The same for rows longer than the header. Truncated to the header's
# width, the first case would read as the points (1, 2) and (4, 5).
LONG_ROWS = [
    pytest.param("points", "x,y\n1,2,3\n4,5\n",
                 "line 2: 3 fields, more than the 2 of the header", id="long-points"),
    pytest.param("vertices", "x,y\n0,0\n1,0\n1,1,7\n0,1\n",
                 "line 4: 3 fields, more than the 2 of the header", id="long-vertices"),
    pytest.param("triangles", "v1,v2,v3\n0,1,2,3\n0,2,3\n",
                 "line 2: 4 fields, more than the 3 of the header", id="long-triangles"),
]


def write_square_csvs(tmp_path, **texts):
    """Write SQUARE_CSV's files under tmp_path, with the text given for a
    file name in its place; returns the paths by file name."""
    paths = {}
    for name, text in {**SQUARE_CSV, **texts}.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(text)
    return paths


def make_workspace(space, points, lam):
    """The objective's Workspace for points at weight lam."""
    from tridensity.estimator import Workspace

    return Workspace(space, space.data_basis(points)[0].mean(axis=0), lam)


def starve_newton(monkeypatch, max_iters, grad_tol, tol):
    """Cap newton at max_iters iterations, with GRAD_TOL grad_tol and OBJ_TOL
    tol, for the rest of the test."""
    from tridensity import estimator

    for name, value in (("MAX_ITERS", max_iters), ("GRAD_TOL", grad_tol), ("OBJ_TOL", tol)):
        monkeypatch.setattr(estimator, name, value)


def interpolate(tr, spec, fn):
    """Per-triangle Bernstein coefficients that reproduce fn at every
    triangle's domain points (i*v1 + j*v2 + k*v3)/m, by collocation; exact
    up to conditioning for polynomials of total degree <= m. fn maps an
    (n, 2) array to n values; needs m >= 1."""
    m = spec.degree
    bary = np.array(index_set(m), dtype=float) / m
    points = bary @ tr.corners  # (N, dim, 2)
    values = np.asarray(fn(points.reshape(-1, 2)), dtype=float).reshape(tr.n_triangles, -1)
    return np.linalg.solve(evaluate(m, bary), values.T).T.ravel()


def integrate_domain(f, tr, rule):
    """f integrated over the whole mesh with rule on every triangle."""
    points, weights = domain_nodes(tr, rule)
    return float(weights @ f(points))


def random_interior_bary(rng, n):
    """Random strictly interior barycentric triples."""
    b12 = rng.random((n, 2))
    flip = b12.sum(axis=1) > 1
    b12[flip] = 1 - b12[flip]
    return np.column_stack([b12, 1 - b12.sum(axis=1)])


def random_triangle(rng, scale=2.0, min_area=0.05):
    while True:
        tri = rng.random((3, 2)) * scale
        d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
        area = (d1[0] * d2[1] - d1[1] * d2[0]) / 2
        if abs(area) > min_area:
            return tri if area > 0 else tri[[0, 2, 1]]


@pytest.fixture
def square2():
    """Unit square split along one diagonal."""
    return Triangulation([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]])


@pytest.fixture
def unit32():
    from tridensity.assets import load_bundled_mesh

    return load_bundled_mesh("square_unit_32")


@pytest.fixture
def horseshoe():
    from tridensity.assets import load_bundled_mesh

    return load_bundled_mesh("horseshoe_112")


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def usable_cpus(monkeypatch, n):
    """Make os.sched_getaffinity report n usable CPUs, which sets how many
    fold workers select_lambda may start, for the rest of the test."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def native_threads(monkeypatch, n):
    """Make select_lambda see n threads in this process (a live BLAS pool is
    one), which with n = 1 lets it start fold workers, for the rest of the
    test."""
    from tridensity import model_selection

    monkeypatch.setattr(model_selection, "_native_threads", lambda: n)


def cli_command(one_cpu):
    """argv that runs the tridensity CLI in a fresh interpreter on every
    usable CPU, or on the first of them alone (as taskset -c would), which
    keeps a spline CV's folds in that one process."""
    if not one_cpu:
        return [sys.executable, "-m", "tridensity.cli"]
    cpu = min(os.sched_getaffinity(0))
    return [sys.executable, "-c",
            f"import os, sys; os.sched_setaffinity(0, {{{cpu}}}); "
            "from tridensity import cli; sys.exit(cli.main(sys.argv[1:]))"]


@pytest.fixture
def fold_pools(monkeypatch):
    """Shows select_lambda one native thread and four usable CPUs, and
    records the worker count of every process pool it starts."""
    from tridensity import model_selection

    native_threads(monkeypatch, 1)
    usable_cpus(monkeypatch, 4)
    started = []

    class Spy(model_selection.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(model_selection, "ProcessPoolExecutor", Spy)
    return started
