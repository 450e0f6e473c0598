"""Smoothing parameter selection by k-fold cross-validation.

The score of a candidate density f on held-out points x is

    integral f^2  -  (2/|x|) sum_{u in x} f(u),

an unbiased surrogate (up to a constant) for the squared L2 distance to
the truth. Fold errors are averaged; folds whose fit fails are excluded
and flagged rather than poisoning the whole grid cell.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import AllFoldsFailed, TriDensityError
from .estimator import EXP_CAP, ModelSpace, Workspace
from . import estimator

DEFAULT_LAMBDA_GRID = tuple(np.logspace(-6.0, 0.0, 9))


def fold_assignments(n, folds, seed):
    """Fold id per observation: a seeded permutation cut into chunks.

    Chunk sizes differ by at most one; the partition is a pure function of
    (n, folds, seed).
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if folds > n:
        raise ValueError(f"cannot split {n} points into {folds} folds")
    perm = np.random.default_rng(seed).permutation(n)
    sizes = np.full(folds, n // folds)
    sizes[: n % folds] += 1
    out = np.empty(n, dtype=np.int64)
    start = 0
    for k, size in enumerate(sizes):
        out[perm[start:start + size]] = k
        start += size
    return out


def held_out_score(space, theta, log_norm_const, test_rows):
    """Held-out score of the density exp(g_theta - log_norm_const): the
    squared term on the space's quadrature nodes, the mean over the rows
    of the reduced-basis design at the held-out points."""
    sq = float(space.quad_weights @ np.exp(2.0 * (space.quad_basis @ theta - log_norm_const)))
    test_vals = np.exp(np.minimum(test_rows @ theta - log_norm_const, EXP_CAP))
    return sq - 2.0 * float(np.mean(test_vals))


@dataclass
class CvReport:
    """Grid of cross-validation errors and the selected smoothing weight."""

    lambda_grid: list
    cv_errors: list
    best_lambda: float
    fold_assignments: np.ndarray
    seed: int
    folds: int
    # (folds, len(lambda_grid)) held-out error of each fit, NaN where it
    # failed; cv_errors are the means of its finite entries per column
    fold_errors: np.ndarray
    failed_folds: list = field(default_factory=list)  # fold ids excluded, per lambda
    # (lambda index, fold id, message) of each failed fit, by lambda then fold
    fold_failures: list = field(default_factory=list)
    # best_lambda is the smallest or largest grid value, so the grid may
    # not bracket the minimum
    lambda_at_grid_edge: bool = False


def pick_best(lambda_grid, cv_errors):
    """Index of the smallest error, ties broken toward the larger weight."""
    best = int(np.argmin(cv_errors))
    for gi in range(len(lambda_grid)):
        if cv_errors[gi] == cv_errors[best] and lambda_grid[gi] > lambda_grid[best]:
            best = gi
    return best


def check_lambda_grid(lambda_grid):
    """lambda_grid as a list of floats; an empty grid or a negative or
    non-finite weight in it raises ValueError."""
    grid = [float(l) for l in lambda_grid]
    if not grid:
        raise ValueError("lambda grid is empty")
    for lam in grid:
        if not (np.isfinite(lam) and lam >= 0):
            raise ValueError(f"lambda grid values must be finite and nonnegative, got {lam!r}")
    return grid


def _native_threads():
    """Threads of this process, BLAS pools included (None without /proc)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _fold_workers(folds):
    """Worker processes for the folds: min(folds, usable CPUs), or 1
    (in-process) unless fork is available, this process is not a daemon
    (which may not start children) and it runs exactly one native thread.
    A live BLAS pool is a native thread, so workers never share the cores
    with one, and fork is safe with no other thread alive. Fork lets the
    workers inherit the space and the design matrix instead of importing
    scipy and unpickling them."""
    if not (hasattr(os, "sched_getaffinity")
            and "fork" in multiprocessing.get_all_start_methods()):
        return 1
    if _native_threads() != 1 or multiprocessing.current_process().daemon:
        return 1
    return min(folds, len(os.sched_getaffinity(0)))


# run_fold of the select_lambda call a forked worker belongs to; it is
# inherited through fork, never pickled
_worker_fold = None


def _install_fold(run_fold):
    global _worker_fold
    _worker_fold = run_fold


def _call_fold(k):
    return _worker_fold(k)


def select_lambda(tr, points, spec, lambda_grid=DEFAULT_LAMBDA_GRID, folds=10,
                  seed=0, space=None):
    """Evaluate the cross-validation error over a grid of smoothing weights.

    The data design matrix is built once for all points, locating each
    point once; a fold's training mean is the mean of its training rows.
    Within each fold the first fit starts from estimator.seed_theta of the
    training points' triangles and later ones warm-start along the
    ascending grid; both only choose Newton's starting point. Ties are
    broken toward the larger (smoother) weight. The report lists the cause
    of every failed fit and flags a best weight on the edge of the grid. A
    grid cell where every fold failed reports +inf and is never selected;
    if the whole grid is +inf, AllFoldsFailed is raised, naming the first
    cause. An empty grid, a negative or non-finite weight in it, points not
    of shape (n, 2), or a space that does not match tr and spec raises
    ValueError before any fit, and points outside the mesh raise
    PointOutsideDomain naming their rows.

    The folds run in min(folds, usable CPUs) forked worker processes, so
    the CPU set (os.sched_getaffinity, which taskset limits) is the one
    cap. Each worker makes the same calls as the in-process loop, so the
    report is bit-identical on any CPU set at a fixed BLAS thread count.
    The folds run in this process instead unless fork is available, this
    process is not a daemon, and it runs one native thread (/proc/self/task),
    as where BLAS was pinned to one thread before numpy and scipy loaded.
    The pool is shut down and its workers joined before this returns or
    raises; an exception other than TriDensityError in a fold re-raises
    here, and a killed worker raises BrokenProcessPool.
    """
    lambda_grid = check_lambda_grid(lambda_grid)
    pts = estimator._points_array(points)
    n = len(pts)
    assign = fold_assignments(n, folds, seed)
    if space is None:
        space = ModelSpace(tr, spec)
    else:
        space.check(tr, spec)

    data_basis, triangle_index = space.data_basis(pts)  # shared, read-only
    order = np.argsort(lambda_grid, kind="stable")

    def run_fold(k):
        """Fold errors for every lambda, NaN where the fit failed, and the
        (lambda index, message) of each failure."""
        test_mask = assign == k
        train_mean = data_basis[~test_mask].mean(axis=0)
        bq_test = data_basis[test_mask]
        errors = np.full(len(lambda_grid), np.nan)
        failures = []
        theta = None
        for gi in order:
            lam = lambda_grid[gi]
            work = Workspace(space=space, data_mean=train_mean, lam=lam)
            try:
                if theta is None:
                    theta = estimator.seed_theta(space, triangle_index[~test_mask])
                f = estimator.newton(work, theta)
            except TriDensityError as exc:
                failures.append((int(gi), str(exc)))
                continue
            theta = f.theta
            errors[gi] = held_out_score(space, f.theta, f.log_norm_const, bq_test)
        return errors, failures

    workers = _fold_workers(folds)
    if workers > 1:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_install_fold, initargs=(run_fold,)) as pool:
            per_fold = list(pool.map(_call_fold, range(folds)))
    else:
        per_fold = [run_fold(k) for k in range(folds)]
    table = np.stack([errors for errors, _ in per_fold])  # (folds, n_lambda)
    fold_failures = sorted(
        (gi, k, msg) for k, (_, failures) in enumerate(per_fold) for gi, msg in failures
    )

    cv_errors = []
    failed = []
    for gi in range(len(lambda_grid)):
        col = table[:, gi]
        ok = np.isfinite(col)
        failed.append([int(k) for k in np.where(~ok)[0]])
        cv_errors.append(float(col[ok].mean()) if ok.any() else float("inf"))

    finite = [e for e in cv_errors if np.isfinite(e)]
    if not finite:
        message = "every fold failed for every lambda in the grid"
        if fold_failures:
            gi, k, cause = fold_failures[0]
            message += f"; first: lambda {lambda_grid[gi]!r}, fold {k}: {cause}"
        raise AllFoldsFailed(message)
    best_idx = pick_best(lambda_grid, cv_errors)
    return CvReport(
        lambda_grid=lambda_grid,
        cv_errors=cv_errors,
        best_lambda=lambda_grid[best_idx],
        fold_assignments=assign,
        seed=seed,
        folds=folds,
        fold_errors=table,
        failed_folds=failed,
        fold_failures=fold_failures,
        lambda_at_grid_edge=lambda_grid[best_idx] in (min(lambda_grid), max(lambda_grid)),
    )
