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
from scipy import linalg, sparse
from scipy.linalg import blas

from . import bernstein, spline_space
from .bernstein import SplineSpec, evaluation_matrix
from .errors import DidNotConverge, PointOutsideDomain, SingularSystem
from .quadrature import domain_nodes, rule_9
from .spline_space import penalty_matrix

# An objective whose linear predictor exceeds this at a quadrature node is
# +inf, so the line search never steps there and exp cannot overflow.
EXP_CAP = 700.0

# Floor applied to the initial piecewise-constant density before taking
# logs, relative to the uniform density 1/|domain|.
FLOOR_REL = 1e-8

# Average points per triangle below which the seed aggregates counts over
# vertex neighborhoods instead of single triangles (see seed_theta).
LSS_THRESHOLD = 5.0

# Ridge weight of the least-squares smoothing that seeds the optimizer.
INIT_RIDGE = 1e-4

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5


# Newton converges once max|gradient| is at most GRAD_TOL, or once an
# accepted step lowers the objective by at most OBJ_TOL (the rounding floor
# of the objective); it gives up after MAX_ITERS steps.
MAX_ITERS = 100
GRAD_TOL = 1e-8
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
    the quadrature design matrix, and what the seed reads: the Cholesky
    factor of its ridge system (see init_theta), the triangle x triangle
    pattern of triangles sharing a vertex and the area of each such
    neighborhood (see seed_theta). Building one of these is the expensive
    step (an SVD of the smoothness system); reuse it across repeated fits
    on the same mesh, e.g. cross-validation folds.
    """

    # the quadrature rule of the fit's integral of exp(g)
    rule = rule_9()

    def __init__(self, tr, spec):
        self.tr = tr
        self.spec = spec
        # through the module, where a tracer wraps them
        self.basis = basis = spline_space.nullspace(spline_space.smoothness_matrix(tr, spec))[0]
        self.reduced_penalty = basis.T @ (penalty_matrix(tr, spec) @ basis)
        self.reduced_penalty = (self.reduced_penalty + self.reduced_penalty.T) / 2.0
        self.quad_basis, self.quad_weights = _rule_nodes(tr, spec, basis)
        # The seed's ridge system depends only on the space. It is factored
        # here, not on first use, so that concurrent fits only read it.
        a = self.quad_basis
        try:
            self._seed_factor = linalg.cho_factor(
                a.T @ a + INIT_RIDGE * self.reduced_penalty, check_finite=False
            )
        except linalg.LinAlgError as exc:
            raise SingularSystem(f"seed least-squares system is singular: {exc}") from exc
        # triangles sharing a vertex: incidence times its transpose, each
        # row ascending, and each row's area summed in that order
        rows = np.repeat(np.arange(tr.n_triangles), 3)
        incidence = sparse.csr_matrix((np.ones(len(rows), dtype=np.int64),
                                       (rows, tr.triangles.ravel())))
        hood = (incidence @ incidence.T).tocsr()
        hood.sort_indices()
        hood.data[:] = 1
        self._neighborhood = hood
        self._neighborhood_areas = np.array(
            [tr.areas[hood.indices[a:b]].sum() for a, b in zip(hood.indptr[:-1], hood.indptr[1:])]
        )

    @property
    def n_free(self):
        return self.basis.shape[1]

    def check(self, tr, spec):
        """Return this space; raise ValueError unless it was built for spec
        on tr, or on a mesh with equal vertex and triangle arrays."""
        if spec != self.spec:
            raise ValueError(f"space is built for {self.spec}, not {spec}")
        if not (tr is self.tr or (np.array_equal(tr.vertices, self.tr.vertices)
                                  and np.array_equal(tr.triangles, self.tr.triangles))):
            raise ValueError("space is built on a different mesh")
        return self

    def data_basis(self, points):
        """Reduced-basis design matrix at data points (dense rows) and the
        triangle of each point. Raises PointOutsideDomain naming the rows
        outside the mesh."""
        matrix, triangle_index = evaluation_matrix(self.tr, self.spec, points)
        outside = np.flatnonzero(triangle_index < 0)
        if outside.size:
            raise PointOutsideDomain(outside.tolist())
        return matrix @ self.basis, triangle_index

    def gamma(self, theta):
        return self.basis @ theta


@dataclass
class Workspace:
    """Per-dataset quantities entering the objective."""

    space: ModelSpace
    data_mean: np.ndarray  # column means of the data design matrix
    lam: float


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
    w_exp = space.quad_weights * np.exp(space.quad_basis @ theta)
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
    w_exp = space.quad_weights * np.exp(space.quad_basis @ theta)
    s = np.sqrt(w_exp)[:, None] * space.quad_basis
    # upper triangle of s^T s + 2 lam P; s.T is Fortran-ordered, so no copy
    return blas.dsyrk(1.0, s.T, c=2.0 * work.lam * space.reduced_penalty, beta=1.0)


def init_theta(space, values):
    """Seed coefficients by ridge-penalized least squares on log density.

    Fits the reduced basis to log(max(values, floor)) at the quadrature
    nodes, where values holds one density value per triangle; the floor
    keeps empty triangles finite. The nodes are strictly interior and
    triangle-major, so each triangle's value repeats once per node. The
    system matrix is the same for every seed of a space, so it is solved
    with the factor ModelSpace holds.
    """
    values = np.asarray(values, dtype=float)
    if not np.any(values > 0):
        raise SingularSystem("initial density is identically zero")
    floor = FLOOR_REL / space.tr.area
    y = np.log(np.maximum(np.repeat(values, len(space.rule.weights)), floor))
    return linalg.cho_solve(space._seed_factor, space.quad_basis.T @ y, check_finite=False)


def seed_theta(space, triangle_index):
    """Optimizer seed from the triangle of each data point, as
    ModelSpace.data_basis returns it: init_theta of the histogram density
    (each triangle's count over n times its area), or, when the average
    number of points per triangle is below LSS_THRESHOLD, of the histogram
    aggregated over each triangle's vertex neighborhood, which stays
    positive wherever a neighboring triangle is occupied. Only the starting
    point of Newton depends on it; the minimizer is unique."""
    tr = space.tr
    n = len(triangle_index)
    counts = np.bincount(triangle_index, minlength=tr.n_triangles)
    if n / tr.n_triangles < LSS_THRESHOLD:
        values = (space._neighborhood @ counts) / (n * space._neighborhood_areas)
    else:
        values = counts / (n * tr.areas)
    return init_theta(space, values)


@dataclass
class DensityFit:
    """Converged (or best-effort) density estimate.

    gamma holds the full per-triangle coefficients of the log density;
    log_norm_const is log_integral_exp of gamma, the one normalizing
    constant that density (through density_from_gamma) subtracts, so
    reported densities integrate to one exactly under the fitting
    quadrature.
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
        return density_from_gamma(self.tr, self.spec, self.gamma, points)


def _rule_nodes(tr, spec, coefficients):
    """Node values of raw per-triangle coefficient blocks (one column each;
    a vector is one column) and node weights of ModelSpace.rule over the
    mesh, both triangle-major as quadrature.domain_nodes lays them out."""
    local = bernstein.evaluate(spec.degree, ModelSpace.rule.nodes)  # (n_q, dim)
    blocks = coefficients.reshape(tr.n_triangles, spec.per_triangle_dim, -1)
    values = np.einsum("qd,ndp->nqp", local, blocks).reshape(-1, blocks.shape[2])
    return values, domain_nodes(tr, ModelSpace.rule)[1]


def log_integral_exp(tr, spec, gamma):
    """Log of the quadrature integral of exp(g) for raw coefficients,
    shifted by the largest node value so that exp cannot overflow."""
    values, weights = _rule_nodes(tr, spec, gamma)
    top = float(values.max())
    return top + float(np.log(weights @ np.exp(values[:, 0] - top)))


def density_from_gamma(tr, spec, gamma, points):
    """Density exp(g - log_integral_exp(tr, spec, gamma)) at points from
    raw coefficients, and an inside-domain flag per point; points outside
    the domain report density zero. points must have shape (n, 2), n >= 0,
    else ValueError names their shape."""
    pts = _points_array(points, min_rows=0)
    log_norm_const = log_integral_exp(tr, spec, gamma)
    matrix, triangle_index = evaluation_matrix(tr, spec, pts)
    inside = triangle_index >= 0
    values = np.zeros(len(pts))
    g = matrix @ gamma
    # an overflow gives inf, which callers that need finite values reject
    # with their own error (cli._grid_csv raises NonFiniteDensity)
    with np.errstate(over="ignore"):
        values[inside] = np.exp(g[inside] - log_norm_const)
    return values, inside


def _points_array(points, min_rows=1):
    """points as an (n, 2) float array, n >= min_rows; one (2,) point is
    one row."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[0] < min_rows or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2) with n >= {min_rows}, "
                         f"got {np.shape(points)}")
    return pts


def fit(tr, points, config=None, space=None):
    """Fit the penalized log-density to points scattered on the mesh.

    Locates the points once: the design matrix gives the workspace and
    its triangle index the seed (seed_theta), from which newton runs. A
    given space must match tr and config.spec (ModelSpace.check). Raises
    ValueError naming the shape of points that are not (n, 2) with n >= 1,
    PointOutsideDomain naming the rows outside the mesh, and DidNotConverge
    (carrying the last iterate and objective trace) if newton stops before
    converging.
    """
    config = config or FitConfig()
    pts = _points_array(points)
    space = ModelSpace(tr, config.spec) if space is None else space.check(tr, config.spec)
    bq, triangle_index = space.data_basis(pts)
    work = Workspace(space=space, data_mean=bq.mean(axis=0), lam=config.lam)
    return newton(work, seed_theta(space, triangle_index))


def newton(work, theta0):
    """Minimize the objective of a workspace from theta0.

    Newton directions with an Armijo backtracking line search; a Hessian
    factorization failure falls back to a plain gradient step for that
    iteration. The penalty weight is work.lam. Each pass tests the
    gradient once: newton has converged when max|gradient| is at most
    GRAD_TOL, or when the step it accepts lowers the objective by at most
    OBJ_TOL. The fit's iterations are its accepted steps. Raises
    DidNotConverge (carrying the last iterate and objective trace) if
    MAX_ITERS steps do not converge or the line search stalls first; its
    message names which, with the iterations used and the final
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
    cause = f"iteration limit (max_iters={MAX_ITERS}) reached"

    for iterations in range(MAX_ITERS + 1):
        grad = gradient(theta, work)
        grad_max = float(np.abs(grad).max())
        converged = grad_max <= GRAD_TOL
        if converged or iterations == MAX_ITERS:
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
        while alpha > 1e-20:
            cand = theta + alpha * direction
            cand_obj = objective(cand, work)
            if cand_obj <= obj + ARMIJO_C * alpha * slope:
                break
            alpha *= ARMIJO_SHRINK
        else:
            cause = "line search stalled"  # at machine precision
            break
        decrease = obj - cand_obj
        theta, obj = cand, cand_obj
        trace.append(obj)
        if decrease <= OBJ_TOL:
            converged = True
            break
    iterations = len(trace) - 1

    gamma = space.gamma(theta)
    result = DensityFit(
        space=space,
        theta=theta,
        gamma=gamma,
        lam=work.lam,
        log_norm_const=log_integral_exp(space.tr, space.spec, gamma),
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
