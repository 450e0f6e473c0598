import os

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


@pytest.fixture
def fold_pools(monkeypatch):
    """Pins BLAS to one thread, offers four usable CPUs, and records the
    worker count of every process pool select_lambda starts."""
    from tridensity import model_selection

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    started = []

    class Spy(model_selection.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(model_selection, "ProcessPoolExecutor", Spy)
    return started
