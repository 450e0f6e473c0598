"""Smoothing parameter selection by k-fold cross-validation.

The score of a candidate density f on held-out points x is

    integral f^2  -  (2/|x|) sum_{u in x} f(u),

an unbiased surrogate (up to a constant) for the squared L2 distance to
the truth. Fold errors are averaged; folds whose fit fails are excluded
and flagged rather than poisoning the whole grid cell.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import AllFoldsFailed, TriDensityError
from .estimator import EXP_CAP, ModelSpace, Workspace
from . import estimator
from .quadrature import integrate_domain, rule_9

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


def fold_error(density_fn, tr, test_points):
    """Held-out score of an arbitrary density callable.

    density_fn maps an (n, 2) array to density values; the squared term is
    integrated with the fitting quadrature rule over the mesh.
    """
    sq = integrate_domain(lambda p: np.asarray(density_fn(p)) ** 2, tr, rule_9())
    test = np.atleast_2d(np.asarray(test_points, dtype=float))
    return float(sq - 2.0 * np.mean(density_fn(test)))


@dataclass
class CvReport:
    """Grid of cross-validation errors and the selected smoothing weight."""

    lambda_grid: list
    cv_errors: list
    best_lambda: float
    fold_assignments: np.ndarray
    seed: int
    folds: int
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


def select_lambda(tr, points, spec, lambda_grid=DEFAULT_LAMBDA_GRID, folds=10,
                  seed=0, space=None, threads=1):
    """Evaluate the cross-validation error over a grid of smoothing weights.

    The data design matrix is built once for all points; a fold's training
    mean is the mean of its training rows. Within each fold the first fit
    starts from estimator.seed_theta and later ones warm-start along the
    ascending grid; both only choose Newton's starting point. Ties are
    broken toward the larger (smoother) weight. The report lists the cause
    of every failed fit and flags a best weight on the edge of the grid. A
    grid cell where every fold failed reports +inf and is never selected;
    if the whole grid is +inf, AllFoldsFailed is raised, naming the first
    cause. An empty grid, a negative or non-finite weight in it, or a space
    that does not match tr and spec raises ValueError before any fit.
    """
    lambda_grid = [float(l) for l in lambda_grid]
    if not lambda_grid:
        raise ValueError("lambda grid is empty")
    for lam in lambda_grid:
        if not (np.isfinite(lam) and lam >= 0):
            raise ValueError(f"lambda grid values must be finite and nonnegative, got {lam!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(pts)
    assign = fold_assignments(n, folds, seed)
    if space is None:
        space = ModelSpace(tr, spec)
    else:
        space.check(tr, spec)

    data_basis = space.data_basis(pts)  # shared, read-only
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
                    theta = estimator.seed_theta(space, pts[~test_mask])
                f = estimator.newton(work, theta)
            except TriDensityError as exc:
                failures.append((int(gi), str(exc)))
                continue
            theta = f.theta
            eta = np.minimum(space.quad_basis @ f.theta - f.log_norm_const, EXP_CAP)
            sq = float(space.quad_weights @ np.exp(2.0 * eta))
            test_vals = np.exp(
                np.minimum(bq_test @ f.theta - f.log_norm_const, EXP_CAP)
            )
            errors[gi] = sq - 2.0 * float(np.mean(test_vals))
        return errors, failures

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_fold = list(pool.map(run_fold, range(folds)))
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
        failed_folds=failed,
        fold_failures=fold_failures,
        lambda_at_grid_edge=lambda_grid[best_idx] in (min(lambda_grid), max(lambda_grid)),
    )
