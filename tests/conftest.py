import os
import sys

import numpy as np
import pytest

from tridensity.bernstein import evaluate, index_set
from tridensity.geometry import Triangulation


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


def make_workspace(space, points, lam):
    """The objective's Workspace for points at weight lam."""
    from tridensity.estimator import Workspace

    return Workspace(space, space.data_basis(points)[0].mean(axis=0), lam)


def starve_newton(monkeypatch, max_iters, grad_tol, tol):
    """Cap newton at max_iters iterations, with GRAD_TOL grad_tol and tol for
    both OBJ_TOL and STEP_TOL, for the rest of the test."""
    from tridensity import estimator

    for name, value in (("MAX_ITERS", max_iters), ("GRAD_TOL", grad_tol),
                        ("OBJ_TOL", tol), ("STEP_TOL", tol)):
        monkeypatch.setattr(estimator, name, value)


def interpolate(tr, spec, fn):
    """Per-triangle Bernstein coefficients that reproduce fn at every
    triangle's domain points (i*v1 + j*v2 + k*v3)/m, by collocation; exact
    up to conditioning for polynomials of total degree <= m. fn maps an
    (n, 2) array to n values; needs m >= 1."""
    m = spec.degree
    bary = np.array(index_set(m), dtype=float) / m
    points = bary @ tr.vertices[tr.triangles]  # (N, dim, 2)
    values = np.asarray(fn(points.reshape(-1, 2)), dtype=float).reshape(tr.n_triangles, -1)
    return np.linalg.solve(evaluate(m, bary), values.T).T.ravel()


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
