"""Acceptance suite: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail
line per criterion (the -v test line and an explicit PASS print).
"""

import json
import math
import os
import subprocess
import time

import numpy as np
import pytest

from tridensity import estimator, model_selection
from tridensity.assets import load_bundled_mesh
from tridensity.bernstein import SplineSpec, evaluate
from tridensity.estimator import FitConfig, ModelSpace, fit, gradient, hessian, objective
from tridensity.geometry import Triangulation, barycentric
from tridensity.quadrature import conical_rule, rule_9
from tridensity.simbench import (
    KernelDensity,
    _domain_grid,
    mise,
    replication_estimators,
    run_benchmark,
    sample,
    scenario_sim1,
    scenario_sim2,
)
from tridensity.spline_space import nullspace, penalty_matrix, smoothness_matrix

from conftest import (cli_command, interpolate, make_workspace, random_interior_bary,
                      random_triangle)
from test_bernstein import _fd_derivative
from test_spline_space import edge_points, interior_edges, piece_value


def _report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_01_basis_correctness(rng):
    start = time.time()
    bary = random_interior_bary(rng, 1000)
    for m in (1, 2, 3, 5):
        vals = evaluate(m, bary)
        assert np.abs(vals.sum(axis=1) - 1.0).max() <= 1e-12
    from tridensity.bernstein import derivative

    for m in (2, 3, 5):
        for _ in range(3):
            tri = random_triangle(rng)
            point = np.array([[0.4, 0.35, 0.25]]) @ tri
            for orders in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
                exact = derivative(m, tri, orders, barycentric(tri, point))
                approx = _fd_derivative(m, tri, orders, point)
                scale = max(1.0, float(np.abs(exact).max()))
                assert np.abs(exact - approx).max() / scale <= 1e-6
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(1, f"basis correctness, {elapsed:.1f}s")


def test_02_quadrature_exactness():
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    rule = rule_9()
    nodes = rule.nodes @ ref
    for d in range(6):
        for a in range(d + 1):
            b = d - a
            got = 0.5 * float(rule.weights @ (nodes[:, 0] ** a * nodes[:, 1] ** b))
            want = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            assert abs(got - want) <= 1e-12 * want
    _report(2, "quadrature exactness to degree 5")


def test_03_penalty_matrix_oracle(square2, rng):
    from test_spline_space import energy_by_quadrature

    oracle_rule = conical_rule(8)
    for m, n_draws in ((3, 10), (5, 10)):
        spec = SplineSpec(m, 1)
        k = penalty_matrix(square2, spec)
        for _ in range(n_draws):
            gamma = rng.standard_normal(spec.dimension(square2))
            direct = float(gamma @ (k @ gamma))
            indep = energy_by_quadrature(square2, spec, gamma, oracle_rule)
            assert abs(direct - indep) <= 1e-9 * abs(indep)
        linear = interpolate(
            square2, spec, lambda p: 1.7 - 0.4 * p[:, 0] + 2.2 * p[:, 1]
        )
        assert float(linear @ (k @ linear)) <= 1e-12 * float(linear @ linear)
    _report(3, "penalty energy vs independent degree-8 rule")


def test_04_constraint_system_horseshoe(rng):
    tr = load_bundled_mesh("horseshoe_112")
    spec = SplineSpec(3, 1)
    h = smoothness_matrix(tr, spec)
    basis = nullspace(h)[0]
    assert np.abs(h @ basis).max() <= 1e-10
    gamma = basis @ rng.standard_normal(basis.shape[1])
    for edge, (ta, tb) in interior_edges(tr):
        pts = edge_points(tr, edge, k=10)
        for orders in ((0, 0), (1, 0), (0, 1)):
            left = piece_value(tr, spec, gamma, ta, pts, orders)
            right = piece_value(tr, spec, gamma, tb, pts, orders)
            assert np.abs(left - right).max() <= 1e-8
    _report(4, "smoothness across all interior horseshoe edges")


def test_05_objective_calculus(rng):
    square2 = Triangulation([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]])
    configs = [
        (square2, SplineSpec(2, 0), 1e-3, 60),
        (load_bundled_mesh("square_unit_32"), SplineSpec(3, 1), 1e-2, 200),
        (load_bundled_mesh("horseshoe_112"), SplineSpec(3, 1), 1e-3, 300),
    ]
    checks = 0
    for tr, spec, lam, n in configs:
        space = ModelSpace(tr, spec)
        if tr.n_triangles == 112:
            pts = sample(scenario_sim2(), n, seed=1)
        else:
            pts = np.random.default_rng(1).random((n, 2))
        work = make_workspace(space, pts, lam)
        h = 1e-6
        for _ in range(7):
            theta = 0.15 * rng.standard_normal(space.n_free)
            grad = gradient(theta, work)
            fd = np.empty_like(grad)
            for i in range(len(theta)):
                e = np.zeros_like(theta)
                e[i] = h
                fd[i] = (objective(theta + e, work) - objective(theta - e, work)) / (2 * h)
            assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)
            hess = hessian(theta, work)
            # only the upper triangle is defined; it must match the dense
            # Hessian of the reduced objective, sum_q w_q e^eta_q b_q b_q^T + 2 lam P
            eta = np.minimum(space.quad_basis @ theta, estimator.EXP_CAP)
            w_exp = space.quad_weights * np.exp(eta)
            dense = ((space.quad_basis * w_exp[:, None]).T @ space.quad_basis
                     + 2.0 * lam * space.reduced_penalty)
            upper = np.triu(np.ones_like(dense, dtype=bool))
            assert np.abs(hess[upper] - dense[upper]).max() <= 1e-12 * np.abs(dense).max()
            np.linalg.cholesky(np.triu(hess) + np.triu(hess, 1).T)
            checks += 1
    assert checks >= 20
    _report(5, f"gradient/Hessian calculus, {checks} random coefficient draws")


def test_06_unity_property(rng):
    setups = [
        ("square_unit_32", np.random.default_rng(0).random((500, 2)), 1e-3),
        ("square_unit_32", np.random.default_rng(1).random((1500, 2)), 1e-1),
        ("horseshoe_112", sample(scenario_sim2(), 600, seed=5), 1e-2),
    ]
    for mesh_name, pts, lam in setups:
        tr = load_bundled_mesh(mesh_name)
        f = fit(tr, pts, FitConfig(lam=lam))
        integral = float(np.exp(f.log_norm_const))
        assert 0.999 <= integral <= 1.001
    _report(6, "fitted density integrates to one before renormalization")


def test_07_uniform_recovery_with_cv():
    start = time.time()
    tr = load_bundled_mesh("square_unit_32")
    spec = SplineSpec(3, 1)
    pts = np.random.default_rng(42).random((2000, 2))
    space = ModelSpace(tr, spec)
    report = model_selection.select_lambda(
        tr, pts, spec, folds=10, seed=42, space=space
    )
    f = fit(tr, pts, FitConfig(spec=spec, lam=report.best_lambda), space=space)
    g = np.linspace(0, 1, 50, endpoint=False) + 0.01
    gx, gy = np.meshgrid(g, g)
    vals, inside = f.density(np.column_stack([gx.ravel(), gy.ravel()]))
    assert inside.all()
    sup_err = float(np.abs(vals - 1.0).max())
    elapsed = time.time() - start
    assert sup_err <= 0.15
    assert elapsed < 60.0
    _report(7, f"uniform recovery sup error {sup_err:.3f} in {elapsed:.0f}s")


def test_08_sim1_ordering_desk_scale():
    start = time.time()
    results = run_benchmark("sim1", 200, 20, seed=20260809)
    elapsed = time.time() - start
    by_method = {r.method: r for r in results}
    bpst, kde = by_method["bpst"], by_method["kde"]
    assert bpst.n_failed == 0 and kde.n_failed == 0
    assert all(np.isfinite(v) for v in bpst.per_replication + kde.per_replication)
    assert bpst.mean <= kde.mean
    assert elapsed < 600.0
    _report(8, f"sim1 MISE {bpst.mean:.5f} (spline) <= {kde.mean:.5f} (kernel), {elapsed:.0f}s")


def test_09_sim2_boundary_contrast():
    """With a fixed seed at the benchmark sample size, the spline estimate
    puts no mass in the zero-density corridor that separates the horseshoe
    arms, while the domain-blind kernel estimate always does. The corridor
    mass comparison isolates the barrier-blindness of Euclidean smoothing;
    the integrated squared errors are checked alongside."""
    scen = scenario_sim2()
    est = replication_estimators(scen, 600, 2024, methods=("bpst", "kde"))
    f, kde = est["bpst"], est["kde"]
    assert hasattr(f, "density") and isinstance(kde, KernelDensity)

    centers, mask, cell = _domain_grid(scen.domain, 200)
    corridor = (~mask) & (centers[:, 0] >= 0.0) & (np.abs(centers[:, 1]) < 0.1)
    assert corridor.sum() > 50
    bpst_vals, inside = f.density(centers[corridor])
    assert not inside.any()
    bpst_mass = float(bpst_vals.sum() * cell)
    kde_mass = float(kde(centers[corridor]).sum() * cell)
    assert bpst_mass < kde_mass
    assert bpst_mass == 0.0
    assert kde_mass > 0.0

    mise_bpst = mise(f, scen, 100)
    mise_kde = mise(kde, scen, 100)
    assert mise_bpst < mise_kde
    _report(9, f"corridor mass 0 vs {kde_mass:.4f}; MISE {mise_bpst:.4f} vs {mise_kde:.4f}")


def test_10_cv_analytic_anchor(rng):
    """theta = 0 is the constant density 1/area; CV's held-out score of it
    is -1/area."""
    spec = SplineSpec(3, 1)
    for mesh_name in ("square_unit_32", "horseshoe_112"):
        tr = load_bundled_mesh(mesh_name)
        space = ModelSpace(tr, spec)
        theta = np.zeros(space.n_free)
        log_c = estimator.log_integral_exp(tr, spec, space.gamma(theta))
        test_pts = sample(scenario_sim2(), 40, seed=2) if "horseshoe" in mesh_name \
            else rng.random((40, 2))
        err = model_selection.held_out_score(space, theta, log_c,
                                             space.data_basis(test_pts)[0])
        assert abs(err - (-1.0 / tr.area)) <= 1e-10
    _report(10, "constant-density score equals -1/area")


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_cli(args, cwd, one_cpu=False):
    # cwd moves the child away from the checkout, so it gets an absolute src.
    # Bytes repeat only at a fixed BLAS thread count, and OpenBLAS sizes its
    # default pool by the usable CPUs, so BLAS is pinned to one thread; the
    # folds then run in forked workers on every CPU and in-process on one.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [*cli_command(one_cpu), *args], cwd=cwd, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_11_cli_determinism(tmp_path, rng):
    data = tmp_path / "data.csv"
    pts = rng.random((200, 2))
    with open(data, "w") as fh:
        fh.write("x,y\n")
        for x, y in pts:
            fh.write(f"{float(x)!r},{float(y)!r}\n")

    digests = {}
    for one_cpu in (False, True):
        for run in ("a", "b"):
            d = tmp_path / f"run{int(one_cpu)}{run}"
            d.mkdir()
            _run_cli([
                "fit", "--bundled-mesh", "square_unit_32", "--data", str(data),
                "--lambda-grid", "1e-4,1e-2", "--seed", "5", "--grid", "40",
                "--out", str(d / "fit"),
            ], tmp_path, one_cpu)
            _run_cli([
                "cv", "--bundled-mesh", "square_unit_32", "--data", str(data),
                "--lambda-grid", "1e-4,1e-2", "--folds", "5", "--seed", "5",
                "--out", str(d / "cv.json"),
            ], tmp_path, one_cpu)
            _run_cli([
                "simulate", "--scenario", "sim1", "--n", "60", "--reps", "2",
                "--seed", "5", "--grid", "60", "--folds", "5",
                "--out", str(d / "sim.json"),
            ], tmp_path, one_cpu)
            for rel in (
                "fit/fit_report.json", "fit/coefficients.csv",
                "fit/density_grid.csv", "cv.json", "sim.json",
                "sim_replications.csv",
            ):
                digests.setdefault(rel, set()).add((d / rel).read_bytes())
    for rel, blobs in digests.items():
        assert len(blobs) == 1, f"{rel} differs across runs/CPU sets"
    _report(11, "byte-identical artifacts across reruns and usable CPU sets")


@pytest.mark.parametrize("n", [600, 2000])
@pytest.mark.parametrize("scenario", ["sim1", "sim2", "sim3"])
def test_12_spline_beats_kde_on_each_scenario(scenario, n):
    """The paper's comparison as a table: one seed-7 replication per cell,
    the spline's MISE below the KDE's. Whether MISE falls with n is not
    asserted: at this seed sim2 rises from n = 600 to 2000, and a rate
    check needs more replications."""
    by_method = {r.method: r for r in run_benchmark(scenario, n, 1, seed=7)}
    bpst, kde = by_method["bpst"], by_method["kde"]
    assert bpst.n_failed == 0 and kde.n_failed == 0
    assert bpst.mean < kde.mean
    _report(12, f"{scenario} n={n} MISE {bpst.mean:.5f} (spline) < {kde.mean:.5f} (kernel)")
