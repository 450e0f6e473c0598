"""Penalized likelihood log-density fitting on a triangulated domain.

The log density is a smooth piecewise polynomial expressed through an
orthonormal basis of the smoothness-constraint null space. The objective is

    -(1/n) sum_i g(x_i) + integral exp(g) + lam * roughness(g)

discretized with the fixed triangle quadrature rule; the exponential term
drives the fitted density to integrate to one. The objective is smooth and
strictly convex in the reduced coefficients for lam > 0, so a damped Newton
iteration with an Armijo backtracking line search is used.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.linalg import blas

from . import bernstein, spline_space
from .bernstein import SplineSpec, evaluation_matrix
from .errors import DidNotConverge, PointOutsideDomain, SingularSystem
from .quadrature import domain_nodes, rule_9
from .spline_space import penalty_matrix

# Linear predictors are capped here before exponentiation; an objective
# whose predictor exceeds the cap is treated as +inf by the line search.
EXP_CAP = 700.0

# Floor applied to the initial piecewise-constant density before taking
# logs, relative to the uniform density 1/|domain|.
FLOOR_REL = 1e-8

# Average points per triangle below which the seed aggregates counts over
# vertex neighborhoods (initial_lss) instead of single triangles.
LSS_THRESHOLD = 5.0

# Ridge weight of the least-squares smoothing that seeds the optimizer.
INIT_RIDGE = 1e-4

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5


# Newton stops after MAX_ITERS iterations, or once max|gradient| is at most
# GRAD_TOL, an accepted step moves no coefficient by more than STEP_TOL, or
# a step lowers the objective by at most OBJ_TOL.
MAX_ITERS = 100
GRAD_TOL = 1e-8
STEP_TOL = 1e-12
OBJ_TOL = 1e-12


@dataclass
class FitConfig:
    """What a fit is asked for: the spline space and the smoothing weight;
    defaults follow the package defaults (cubic splines with one order of
    smoothness)."""

    spec: SplineSpec = field(default_factory=lambda: SplineSpec(3, 1))
    lam: float = 1e-3

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam!r}")


class ModelSpace:
    """Data-independent fitting structures for one (mesh, spec) pair.

    Holds the constraint null-space basis, the reduced roughness matrix,
    the quadrature design matrix and the Cholesky factor of the seed's
    ridge system (see init_theta). Building one of these is the expensive
    step (an SVD of the smoothness system); reuse it across repeated fits
    on the same mesh, e.g. cross-validation folds.
    """

    def __init__(self, tr, spec):
        self.tr = tr
        self.spec = spec
        self.rule = rule_9()
        # through the module, where a tracer wraps them
        self.basis = basis = spline_space.nullspace(spline_space.smoothness_matrix(tr, spec))[0]
        self.reduced_penalty = basis.T @ (penalty_matrix(tr, spec) @ basis)
        self.reduced_penalty = (self.reduced_penalty + self.reduced_penalty.T) / 2.0

        n_q = len(self.rule.weights)
        dim = spec.per_triangle_dim
        local = bernstein.evaluate(spec.degree, self.rule.nodes)  # (n_q, dim)
        blocks = basis.reshape(tr.n_triangles, dim, basis.shape[1])
        self.quad_basis = np.einsum("qd,ndp->nqp", local, blocks).reshape(
            tr.n_triangles * n_q, basis.shape[1]
        )
        self.quad_points, self.quad_weights = domain_nodes(tr, self.rule)
        # The seed's ridge system depends only on the space. It is factored
        # here, not on first use, so that concurrent fits only read it.
        a = self.quad_basis
        try:
            self._seed_factor = linalg.cho_factor(
                a.T @ a + INIT_RIDGE * self.reduced_penalty, check_finite=False
            )
        except linalg.LinAlgError as exc:
            raise SingularSystem(f"seed least-squares system is singular: {exc}") from exc

    @property
    def n_free(self):
        return self.basis.shape[1]

    def check(self, tr, spec):
        """Raise ValueError unless this space was built for spec on tr, or
        on a mesh with equal vertex and triangle arrays."""
        if spec != self.spec:
            raise ValueError(f"space is built for {self.spec}, not {spec}")
        if not (tr is self.tr or (np.array_equal(tr.vertices, self.tr.vertices)
                                  and np.array_equal(tr.triangles, self.tr.triangles))):
            raise ValueError("space is built on a different mesh")

    def data_basis(self, points):
        """Reduced-basis design matrix at data points (dense rows)."""
        ev = evaluation_matrix(self.tr, self.spec, points)
        return ev.matrix @ self.basis

    def gamma(self, theta):
        return self.basis @ theta

    def integral_exp(self, theta):
        """Quadrature value of integral exp(g_theta) over the domain."""
        eta = np.minimum(self.quad_basis @ theta, EXP_CAP)
        return float(self.quad_weights @ np.exp(eta))


@dataclass
class Workspace:
    """Per-dataset quantities entering the objective."""

    space: ModelSpace
    data_mean: np.ndarray  # column means of the data design matrix
    lam: float


def make_workspace(space, data_points, lam):
    bq = space.data_basis(data_points)
    return Workspace(space=space, data_mean=np.asarray(bq.mean(axis=0)).ravel(), lam=lam)


def objective(theta, work):
    """Penalized negative log likelihood at reduced coefficients theta.

    Returns +inf when the linear predictor overflows the exponential cap.
    """
    space = work.space
    eta = space.quad_basis @ theta
    if eta.max(initial=-np.inf) > EXP_CAP:
        return np.inf
    like = -float(work.data_mean @ theta) + float(space.quad_weights @ np.exp(eta))
    return like + work.lam * float(theta @ (work.space.reduced_penalty @ theta))


def gradient(theta, work):
    space = work.space
    eta = np.minimum(space.quad_basis @ theta, EXP_CAP)
    w_exp = space.quad_weights * np.exp(eta)
    return (
        -work.data_mean
        + space.quad_basis.T @ w_exp
        + 2.0 * work.lam * (space.reduced_penalty @ theta)
    )


def hessian(theta, work):
    """Hessian of the objective at theta, as a Fortran-ordered matrix of
    which only the upper triangle is defined: it holds the Hessian there,
    while the strict lower triangle holds 2 lam P's and is not meant to be
    read. Mirror the upper triangle for the full symmetric matrix."""
    space = work.space
    eta = np.minimum(space.quad_basis @ theta, EXP_CAP)
    w_exp = space.quad_weights * np.exp(eta)
    s = np.sqrt(w_exp)[:, None] * space.quad_basis
    # upper triangle of s^T s + 2 lam P; s.T is Fortran-ordered, so no copy
    return blas.dsyrk(1.0, s.T, c=2.0 * work.lam * space.reduced_penalty, beta=1.0)


@dataclass
class InitialDensity:
    """Piecewise-constant density seeding the optimizer."""

    tr: object
    values: np.ndarray  # one density value per triangle
    variant: str        # "histogram" or "lss"


def initial_histogram(tr, points):
    """Histogram density: count in each triangle over n times its area."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    idx = tr.locate(pts)
    outside = np.where(idx < 0)[0]
    if outside.size:
        raise PointOutsideDomain(outside.tolist())
    counts = np.bincount(idx, minlength=tr.n_triangles).astype(float)
    return InitialDensity(tr=tr, values=counts / (len(pts) * tr.areas), variant="histogram")


def initial_lss(tr, points):
    """Histogram variant aggregating counts and areas over the triangles
    sharing a vertex with each triangle; keeps sparse-data seeds positive
    wherever any neighboring triangle is occupied."""
    from .geometry import vertex_neighborhood

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    idx = tr.locate(pts)
    outside = np.where(idx < 0)[0]
    if outside.size:
        raise PointOutsideDomain(outside.tolist())
    counts = np.bincount(idx, minlength=tr.n_triangles).astype(float)
    values = np.empty(tr.n_triangles)
    for t in range(tr.n_triangles):
        hood = sorted(vertex_neighborhood(tr, t))
        values[t] = counts[hood].sum() / (len(pts) * tr.areas[hood].sum())
    return InitialDensity(tr=tr, values=values, variant="lss")


def init_theta(space, initial):
    """Seed coefficients by ridge-penalized least squares on log density.

    Fits the reduced basis to log(max(initial, floor)) at the quadrature
    nodes; the floor keeps empty triangles finite. The nodes are strictly
    interior and triangle-major, so each triangle's value repeats once per
    node. The system matrix is the same for every seed of a space, so it
    is solved with the factor ModelSpace holds.
    """
    if not np.any(initial.values > 0):
        raise SingularSystem("initial density is identically zero")
    floor = FLOOR_REL / space.tr.area
    values = np.repeat(initial.values, len(space.rule.weights))
    y = np.log(np.maximum(values, floor))
    return linalg.cho_solve(space._seed_factor, space.quad_basis.T @ y, check_finite=False)


def seed_theta(space, points):
    """Optimizer seed for points on space's mesh: the histogram seed, or
    the neighborhood-aggregated one when the average number of points per
    triangle is below LSS_THRESHOLD. Only the starting point of Newton
    depends on it; the minimizer is unique."""
    tr = space.tr
    if len(points) / tr.n_triangles < LSS_THRESHOLD:
        initial = initial_lss(tr, points)
    else:
        initial = initial_histogram(tr, points)
    return init_theta(space, initial)


@dataclass
class DensityFit:
    """Converged (or best-effort) density estimate.

    gamma holds the full per-triangle coefficients of the log density;
    log_norm_const is the log of integral exp(g) at the solution and is
    subtracted during evaluation so reported densities integrate to one
    exactly under the fitting quadrature.
    """

    space: ModelSpace
    theta: np.ndarray
    gamma: np.ndarray
    lam: float
    log_norm_const: float
    objective_trace: list
    converged: bool
    iterations: int

    @property
    def tr(self):
        return self.space.tr

    @property
    def spec(self):
        return self.space.spec

    def density(self, points):
        """Density values and an inside-domain flag per point.

        Points outside the domain report density zero with flag False.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return density_from_gamma(
            self.tr, self.spec, self.gamma, pts, log_norm_const=self.log_norm_const
        )


def log_integral_exp(tr, spec, gamma):
    """Log of the quadrature integral of exp(g) for raw coefficients."""
    rule = rule_9()
    local = bernstein.evaluate(spec.degree, rule.nodes)
    dim = spec.per_triangle_dim
    eta = local @ gamma.reshape(tr.n_triangles, dim).T  # (n_q, N)
    val = float(np.sum(tr.areas * (rule.weights @ np.exp(np.minimum(eta, EXP_CAP)))))
    return float(np.log(val))


def density_from_gamma(tr, spec, gamma, points, log_norm_const=None):
    """Evaluate exp(g - log_norm_const) at points from raw coefficients."""
    if log_norm_const is None:
        log_norm_const = log_integral_exp(tr, spec, gamma)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ev = evaluation_matrix(tr, spec, pts, allow_outside=True)
    inside = ev.triangle_index >= 0
    values = np.zeros(len(pts))
    g = ev.matrix @ gamma
    values[inside] = np.exp(g[inside] - log_norm_const)
    return values, inside


def fit(tr, points, config=None, space=None):
    """Fit the penalized log-density to points scattered on the mesh.

    Builds the workspace of the points, seeds with seed_theta and runs
    newton. A given space must match tr and config.spec (ModelSpace.check).
    Raises DidNotConverge (carrying the last iterate and objective trace)
    if newton stops before converging.
    """
    config = config or FitConfig()
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(pts) == 0:
        raise ValueError("at least one data point is required")
    if space is None:
        space = ModelSpace(tr, config.spec)
    else:
        space.check(tr, config.spec)
    work = make_workspace(space, pts, config.lam)
    return newton(work, seed_theta(space, pts))


def newton(work, theta0):
    """Minimize the objective of a workspace from theta0.

    Newton directions with an Armijo backtracking line search; a Hessian
    factorization failure falls back to a plain gradient step for that
    iteration. The penalty weight is work.lam; the iteration limit and
    tolerances are the module constants MAX_ITERS, GRAD_TOL, STEP_TOL and
    OBJ_TOL. Raises DidNotConverge (carrying the last iterate and objective
    trace) if the iteration limit is reached or the line search stalls
    first; its message names which, with the iterations used and the final
    max|gradient|.
    """
    space = work.space
    theta = np.asarray(theta0, dtype=float).copy()
    obj = objective(theta, work)
    if not np.isfinite(obj):
        # fall back to the flat seed; objective(0) equals the domain area
        theta = np.zeros_like(theta)
        obj = objective(theta, work)
    trace = [obj]
    converged = False
    iterations = 0
    cause = f"iteration limit (max_iters={MAX_ITERS}) reached"

    for iterations in range(1, MAX_ITERS + 1):
        grad = gradient(theta, work)
        if np.abs(grad).max() <= GRAD_TOL:
            converged = True
            iterations -= 1
            break
        # potrf('U') reads only the triangle that dsyrk wrote
        try:
            factor = linalg.cho_factor(
                hessian(theta, work), overwrite_a=True, check_finite=False
            )
            direction = -linalg.cho_solve(factor, grad, check_finite=False)
        except linalg.LinAlgError:
            direction = -grad
        slope = float(grad @ direction)
        if slope >= 0.0:
            direction = -grad
            slope = float(grad @ direction)
        alpha = 1.0
        new_theta, new_obj = theta, obj
        while alpha > 1e-20:
            cand = theta + alpha * direction
            cand_obj = objective(cand, work)
            if cand_obj <= obj + ARMIJO_C * alpha * slope:
                new_theta, new_obj = cand, cand_obj
                break
            alpha *= ARMIJO_SHRINK
        else:
            cause = "line search stalled"  # at machine precision
            break
        step = alpha * float(np.abs(direction).max())
        decrease = obj - new_obj
        theta, obj = new_theta, new_obj
        trace.append(obj)
        if decrease <= OBJ_TOL or step <= STEP_TOL:
            converged = True
            break
    if not converged:
        grad_max = float(np.abs(gradient(theta, work)).max())
        converged = grad_max <= GRAD_TOL

    gamma = space.gamma(theta)
    result = DensityFit(
        space=space,
        theta=theta,
        gamma=gamma,
        lam=work.lam,
        log_norm_const=float(np.log(space.integral_exp(theta))),
        objective_trace=trace,
        converged=converged,
        iterations=iterations,
    )
    if not converged:
        raise DidNotConverge(
            result,
            f"optimizer did not converge: {cause} after {iterations} iterations, "
            f"max|gradient| {grad_max:.3e}",
        )
    return result
