import contextlib
import multiprocessing
import os
import re
import signal
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from tridensity import estimator, model_selection
from tridensity.bernstein import SplineSpec
from tridensity.errors import AllFoldsFailed
from tridensity.estimator import EXP_CAP, ModelSpace, newton
from tridensity.model_selection import (
    DEFAULT_LAMBDA_GRID,
    fold_assignments,
    held_out_score,
    pick_best,
    select_lambda,
)

from conftest import make_workspace, starve_newton, usable_cpus


def test_fold_assignments_partition():
    assign = fold_assignments(103, 10, seed=5)
    counts = np.bincount(assign, minlength=10)
    assert counts.sum() == 103
    assert counts.max() - counts.min() <= 1
    assert np.array_equal(assign, fold_assignments(103, 10, seed=5))
    assert not np.array_equal(assign, fold_assignments(103, 10, seed=6))


def test_fold_assignments_validation():
    with pytest.raises(ValueError):
        fold_assignments(10, 1, seed=0)
    with pytest.raises(ValueError):
        fold_assignments(3, 5, seed=0)


def test_constant_density_anchor(unit32, rng):
    """theta = 0 is the constant density 1/area, whose score is -1/area."""
    spec = SplineSpec(3, 1)
    space = ModelSpace(unit32, spec)
    theta = np.zeros(space.n_free)
    log_c = estimator.log_integral_exp(unit32, spec, space.gamma(theta))
    err = held_out_score(space, theta, log_c, space.data_basis(rng.random((17, 2)))[0])
    assert abs(err - (-1.0 / unit32.area)) <= 1e-10


def test_pick_best_prefers_larger_lambda_on_ties():
    assert pick_best([1e-4, 1e-3, 1e-2], [0.5, 0.1, 0.1]) == 2
    assert pick_best([1e-2, 1e-3, 1e-4], [0.1, 0.1, 0.5]) == 0
    assert pick_best([1e-4, 1e-3], [0.2, 0.5]) == 0


def test_single_lambda_grid(unit32, rng):
    pts = rng.random((60, 2))
    report = select_lambda(unit32, pts, SplineSpec(3, 1), [1e-3], folds=5, seed=1)
    assert report.best_lambda == 1e-3
    assert len(report.cv_errors) == 1
    assert np.isfinite(report.cv_errors[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_select_lambda_rejects_bad_grid_before_fitting(unit32, rng, monkeypatch, bad):
    def no_fit(*args, **kwargs):
        raise AssertionError("newton ran")

    monkeypatch.setattr(estimator, "newton", no_fit)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        select_lambda(unit32, rng.random((40, 2)), SplineSpec(3, 1), [1e-3, bad], folds=4)


def test_select_lambda_names_a_malformed_points_shape(unit32):
    for points, shape in (([], "(0,)"), (np.empty((0, 2)), "(0, 2)"),
                          (np.full((5, 3), 0.5), "(5, 3)")):
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            select_lambda(unit32, points, SplineSpec(3, 1), [1e-3], folds=2)
    # one (2,) point is one row, which two folds cannot split
    with pytest.raises(ValueError, match="cannot split 1 points into 2 folds"):
        select_lambda(unit32, [0.5, 0.5], SplineSpec(3, 1), [1e-3], folds=2)


def test_select_lambda_rejects_space_of_other_mesh_or_spec(unit32, square2, rng):
    from tridensity.assets import mesh_paths
    from tridensity.geometry import load_mesh

    pts = rng.random((40, 2))
    space = ModelSpace(square2, SplineSpec(2, 1))
    with pytest.raises(ValueError, match="different mesh"):
        select_lambda(unit32, pts, SplineSpec(2, 1), [1e-3], folds=4, space=space)
    with pytest.raises(ValueError, match="built for"):
        select_lambda(square2, pts, SplineSpec(3, 1), [1e-3], folds=4, space=space)
    reloaded = load_mesh(*mesh_paths("square_unit_32"))
    space = ModelSpace(unit32, SplineSpec(2, 1))
    report = select_lambda(reloaded, pts, SplineSpec(2, 1), [1e-3], folds=4, space=space)
    assert np.isfinite(report.cv_errors[0])


def test_cv_error_deterministic(unit32, rng):
    pts = rng.random((80, 2))
    spec = SplineSpec(3, 1)
    space = ModelSpace(unit32, spec)
    a = select_lambda(unit32, pts, spec, [1e-3], folds=5, seed=3, space=space).cv_errors[0]
    b = select_lambda(unit32, pts, spec, [1e-3], folds=5, seed=3, space=space).cv_errors[0]
    assert a == b


@pytest.mark.parametrize("n", [100, 300])  # neighborhood seed below 160 points, histogram above
def test_shared_design_matches_per_fold_fits(unit32, rng, n):
    """CV on the shared design matrix gives exactly the errors of refitting
    each fold's training points with newton on their own workspace, seeded
    by seed_theta of the triangles they are located in on their own and
    warm-started along the grid."""
    pts = rng.random((n, 2))
    spec = SplineSpec(3, 1)
    space = ModelSpace(unit32, spec)
    grid = [1e-2, 1e-5, 1e-3]
    report = select_lambda(unit32, pts, spec, grid, folds=5, seed=4, space=space)
    table = np.full((5, len(grid)), np.nan)
    for k in range(5):
        test = report.fold_assignments == k
        bq_test, _ = space.data_basis(pts[test])
        warm = estimator.seed_theta(space, space.data_basis(pts[~test])[1])
        for gi in np.argsort(grid, kind="stable"):
            f = newton(make_workspace(space, pts[~test], grid[gi]), warm)
            warm = f.theta
            eta = np.minimum(space.quad_basis @ f.theta - f.log_norm_const, EXP_CAP)
            test_vals = np.exp(np.minimum(bq_test @ f.theta - f.log_norm_const, EXP_CAP))
            table[k, gi] = (float(space.quad_weights @ np.exp(2.0 * eta))
                            - 2.0 * float(np.mean(test_vals)))
    assert report.cv_errors == [float(e) for e in table.mean(axis=0)]


def test_full_grid_on_benchmark_data():
    from tridensity.simbench import scenario_sim1, sample

    scen = scenario_sim1()
    pts = sample(scen, 200, 13)
    grid = list(np.logspace(-6, 0, 7))
    report = select_lambda(scen.domain, pts, SplineSpec(3, 1), grid, folds=10, seed=13)
    assert all(np.isfinite(e) for e in report.cv_errors)
    assert report.best_lambda in grid
    assert all(not f for f in report.failed_folds)
    # partition bookkeeping
    assert len(report.fold_assignments) == len(pts)
    counts = np.bincount(report.fold_assignments)
    assert counts.max() - counts.min() <= 1


def test_seed_stability_smoke():
    from tridensity.simbench import scenario_sim1, sample

    scen = scenario_sim1()
    pts = sample(scen, 200, 21)
    spec = SplineSpec(3, 1)
    space = ModelSpace(scen.domain, spec)
    grid = [1e-5, 1e-3, 1e-1]
    r1 = select_lambda(scen.domain, pts, spec, grid, folds=10, seed=1, space=space)
    r2 = select_lambda(scen.domain, pts, spec, grid, folds=10, seed=2, space=space)
    spread = max(r1.cv_errors) - min(r1.cv_errors)
    shift = max(abs(a - b) for a, b in zip(r1.cv_errors, r2.cv_errors))
    assert shift < spread


def test_degenerate_data_flagged(unit32, monkeypatch):
    pts = np.tile([[0.40625, 0.40625]], (30, 1))  # all points identical
    grid = [1e-6, 1e-2, 1.0]
    monkeypatch.setattr(estimator, "MAX_ITERS", 40)
    report = select_lambda(unit32, pts, SplineSpec(3, 1), grid, folds=3, seed=0)
    assert np.isfinite(report.cv_errors[-1])  # heavy smoothing stays finite
    assert report.best_lambda in grid


def test_all_folds_failed(unit32, rng, monkeypatch):
    pts = rng.random((40, 2))
    starve_newton(monkeypatch, 1, 1e-15, 1e-18)
    with pytest.raises(AllFoldsFailed, match="optimizer did not converge"):
        select_lambda(unit32, pts, SplineSpec(3, 1), [1e-3], folds=4, seed=0)


def test_fold_failures_keep_each_cause(unit32, rng, monkeypatch):
    pts = rng.random((40, 2))
    spec = SplineSpec(3, 1)
    grid = [1e-6, 1e-3, 1.0, 1e3, 1e6]
    # with max_iters=1 every fit stops before converging and the whole grid
    # fails; three iterations leave some fits converged and some not
    monkeypatch.setattr(estimator, "MAX_ITERS", 3)
    report = select_lambda(unit32, pts, spec, grid, folds=4, seed=0)
    pairs = [(gi, k) for gi, k, _ in report.fold_failures]
    assert pairs == [(gi, k) for gi, ks in enumerate(report.failed_folds) for k in ks]
    assert 0 < len(pairs) < len(grid) * 4
    _check_fold_errors(report)
    cause = re.compile(
        r"optimizer did not converge: iteration limit \(max_iters=3\) reached "
        r"after 3 iterations, max\|gradient\| (\S+)$"
    )
    for _, _, msg in report.fold_failures:
        match = cause.match(msg)
        assert match, msg
        assert float(match.group(1)) > estimator.GRAD_TOL
    monkeypatch.undo()
    clean = select_lambda(unit32, pts, spec, grid, folds=4, seed=0)
    assert clean.fold_failures == []
    _check_fold_errors(clean)


def _check_fold_errors(report):
    """fold_errors is the (folds, grid) table: NaN exactly at the failed
    fits, and its finite entries average to cv_errors."""
    table = report.fold_errors
    assert table.shape == (report.folds, len(report.lambda_grid))
    failed = {(gi, k) for gi, k, _ in report.fold_failures}
    assert {(int(gi), int(k)) for k, gi in zip(*np.nonzero(np.isnan(table)))} == failed
    assert np.all(np.isfinite(table) | np.isnan(table))
    for gi, err in enumerate(report.cv_errors):
        col = table[:, gi][np.isfinite(table[:, gi])]
        assert err == (col.mean() if col.size else float("inf"))


def test_lambda_at_grid_edge():
    from tridensity.simbench import scenario_sim1, sample

    scen = scenario_sim1()
    pts = sample(scen, 200, 13)
    spec = SplineSpec(3, 1)
    space = ModelSpace(scen.domain, spec)
    one_sided = select_lambda(scen.domain, pts, spec, [1.0, 1e-1, 1e-2],
                              folds=5, seed=13, space=space)
    assert one_sided.best_lambda == 1e-2
    assert one_sided.lambda_at_grid_edge
    bracketed = select_lambda(scen.domain, pts, spec, [1e-6, 1e-5, 1e-4],
                              folds=5, seed=13, space=space)
    assert bracketed.best_lambda == 1e-5
    assert not bracketed.lambda_at_grid_edge


def _assert_same_report(a, b):
    for name in ("lambda_grid", "cv_errors", "best_lambda", "seed", "folds",
                 "failed_folds", "fold_failures", "lambda_at_grid_edge"):
        assert getattr(a, name) == getattr(b, name), name
    assert np.array_equal(a.fold_assignments, b.fold_assignments)
    assert np.array_equal(a.fold_errors, b.fold_errors, equal_nan=True)


def test_threads_do_not_change_results(unit32, rng, fold_pools, monkeypatch):
    """The worker count, set by the usable CPUs, does not change the report."""
    pts = rng.random((70, 2))
    spec = SplineSpec(3, 1)
    space = ModelSpace(unit32, spec)
    grid = [1e-4, 1e-2]
    usable_cpus(monkeypatch, 1)
    r1 = select_lambda(unit32, pts, spec, grid, folds=4, seed=2, space=space)
    assert fold_pools == []
    # the folds share the space, and with it the seed factor, across workers
    for cpus, workers in ((2, 2), (8, 4), (4, 4)):
        usable_cpus(monkeypatch, cpus)
        rk = select_lambda(unit32, pts, spec, grid, folds=4, seed=2, space=space)
        assert fold_pools.pop() == workers
        _assert_same_report(rk, r1)
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("openblas, omp, workers", [
    ("1", None, 3), (None, "1", 3), ("1", "4", 3), (None, None, 1), ("2", None, 1),
    ("2", "1", 1), ("", "1", 1),
])
def test_fold_workers_need_blas_pinned_to_one_thread(monkeypatch, openblas, omp, workers):
    usable_cpus(monkeypatch, 4)
    for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    assert model_selection._fold_workers(3) == workers
    usable_cpus(monkeypatch, 1)
    assert model_selection._fold_workers(3) == 1


def test_fold_workers_are_capped_by_folds_threads_and_cpus(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    workers = []
    for folds, cpus in ((10, 3), (2, 3), (10, 2), (10, 8), (2, 8)):
        usable_cpus(monkeypatch, cpus)
        workers.append(model_selection._fold_workers(folds))
    assert workers == [3, 2, 2, 8, 2]


def test_fold_workers_stay_serial_with_another_thread_alive(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    usable_cpus(monkeypatch, 4)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert model_selection._fold_workers(4) == 1
    finally:
        stop.set()
        other.join()
    assert model_selection._fold_workers(4) == 4


def test_fold_workers_stay_serial_in_a_daemon_process(monkeypatch):
    """A daemon, such as a multiprocessing.Pool worker, may not start
    processes of its own."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    usable_cpus(monkeypatch, 4)
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    assert model_selection._fold_workers(4) == 1
    monkeypatch.undo()
    assert not multiprocessing.current_process().daemon


def test_unpinned_blas_starts_no_pool(unit32, rng, fold_pools, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    pts = rng.random((40, 2))
    report = select_lambda(unit32, pts, SplineSpec(3, 1), [1e-3], folds=4, seed=0)
    assert fold_pools == []
    assert np.isfinite(report.cv_errors[0])


@contextlib.contextmanager
def _deadline(seconds):
    """Fail instead of hanging when the block outlasts seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_fold_exception_reraises_and_joins_workers(unit32, rng, fold_pools, monkeypatch):
    pts = rng.random((60, 2))
    spec = SplineSpec(3, 1)
    space = ModelSpace(unit32, spec)
    assign = fold_assignments(len(pts), 4, 0)
    # newton of fold 2 only, recognised by its training mean
    target = space.data_basis(pts)[0][assign != 2].mean(axis=0)
    real = estimator.newton

    def broken(work, theta0):
        if np.array_equal(work.data_mean, target):
            raise RuntimeError("fold 2 broke")
        return real(work, theta0)

    monkeypatch.setattr(estimator, "newton", broken)
    with _deadline(120), pytest.raises(RuntimeError, match="fold 2 broke"):
        select_lambda(unit32, pts, spec, [1e-3, 1e-1], folds=4, seed=0, space=space)
    assert fold_pools == [4]
    assert multiprocessing.active_children() == []


def test_killed_worker_raises_broken_pool(unit32, rng, fold_pools, monkeypatch):
    parent = os.getpid()
    real = estimator.newton

    def die_in_worker(work, theta0):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(work, theta0)

    monkeypatch.setattr(estimator, "newton", die_in_worker)
    with _deadline(120), pytest.raises(BrokenProcessPool):
        select_lambda(unit32, rng.random((40, 2)), SplineSpec(3, 1), [1e-3], folds=4, seed=0)
    assert fold_pools == [4]
    assert multiprocessing.active_children() == []


def test_forked_folds_keep_the_serial_failures(unit32, rng, fold_pools, monkeypatch):
    pts = rng.random((40, 2))
    spec = SplineSpec(3, 1)
    space = ModelSpace(unit32, spec)
    grid = [1e-6, 1e-3, 1.0, 1e3, 1e6]
    starve_newton(monkeypatch, 3, estimator.GRAD_TOL, estimator.OBJ_TOL)
    with monkeypatch.context() as one_cpu:
        usable_cpus(one_cpu, 1)
        serial = select_lambda(unit32, pts, spec, grid, folds=4, seed=0, space=space)
    forked = select_lambda(unit32, pts, spec, grid, folds=4, seed=0, space=space)
    assert fold_pools == [4]
    assert 0 < len(serial.fold_failures) < len(grid) * 4
    _assert_same_report(forked, serial)


def test_default_grid_shape():
    assert len(DEFAULT_LAMBDA_GRID) == 9
    assert DEFAULT_LAMBDA_GRID[0] == pytest.approx(1e-6)
    assert DEFAULT_LAMBDA_GRID[-1] == pytest.approx(1.0)
