"""Benchmark scenarios, sampling, MISE scoring and the kernel baseline.

Three synthetic truths are provided: a four-component Gaussian mixture on a
square, a shifted ridge function on a horseshoe-shaped domain, and a mixture
of the ridge density with two tight Gaussians and a skewed Gaussian on the
same horseshoe. Every density is truncated to its triangulated domain and
renormalized numerically, samples are drawn by seeded rejection sampling,
and estimates are scored by a fine-grid approximation of the integrated
squared error against the truth.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from . import estimator, model_selection
from .assets import load_bundled_mesh
from .bernstein import SplineSpec
from .errors import NonFiniteIntegrand, SingularBandwidth, TriDensityError
from .geometry import cell_grid
from .quadrature import domain_nodes, rule_9

# resolution of the grid used to normalize scenario densities and to
# estimate the rejection-sampling envelope
_NORM_RESOLUTION = 512

# coarsest grid, per axis, on which mise scores an estimate
MIN_MISE_RESOLUTION = 50


@dataclass(frozen=True)
class GaussComponent:
    mean: tuple
    cov: tuple  # ((a, b), (b, c)), symmetric positive definite
    weight: float


@dataclass(frozen=True)
class SkewNormalComponent:
    """Azzalini skewed Gaussian: 2 phi2(u - xi; omega) Phi(alpha' w^-1 (u - xi))."""

    xi: tuple
    omega: tuple   # ((a, 0), (0, c)) scale matrix
    alpha: tuple
    weight: float = 1.0


@dataclass
class Scenario:
    """A benchmark truth: triangulated domain plus normalized density."""

    name: str
    domain: object                 # Triangulation used for fitting and scoring
    density: object                # callable (n, 2) -> normalized values
    density_max: float             # grid estimate of the density maximum
    components: tuple = ()


def gaussian_pdf(points, mean, cov):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
    d = pts - mean
    q = d[:, 0] ** 2 * inv[0, 0] + 2 * d[:, 0] * d[:, 1] * inv[0, 1] + d[:, 1] ** 2 * inv[1, 1]
    return np.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))


def skew_normal_pdf(points, comp):
    """Density of the skewed Gaussian component."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    xi = np.asarray(comp.xi, dtype=float)
    omega = np.asarray(comp.omega, dtype=float)
    alpha = np.asarray(comp.alpha, dtype=float)
    scale = np.sqrt(np.diag(omega))
    z = (pts - xi) / scale
    return 2.0 * gaussian_pdf(pts, xi, omega) * ndtr(z @ alpha)


def horseshoe_function(points):
    """Ridge test function on the horseshoe: spine coordinate plus squared
    offset from the spine.

    The spine runs along the lower arm, around the bend (a semicircle of
    radius 0.5) and along the upper arm; the value grows linearly, with
    slope one, in the signed distance travelled and quadratically in the
    transverse offset. Defined for all of R^2; only values on the domain
    are meaningful.
    """
    r = 0.5
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    q = math.pi * r / 2.0
    a = np.empty(len(pts))
    d = np.empty(len(pts))
    up = (x >= 0) & (y > 0)
    lo = (x >= 0) & (y <= 0)
    bend = x < 0
    a[up] = q + x[up]
    d[up] = y[up] - r
    a[lo] = -q - x[lo]
    d[lo] = -r - y[lo]
    with np.errstate(divide="ignore", invalid="ignore"):
        a[bend] = -np.arctan(y[bend] / x[bend]) * r
    d[bend] = np.hypot(x[bend], y[bend]) - r
    return a + d ** 2


# Cached per mesh object: benchmark replications rescore on identical
# grids, and meshes are immutable after construction.
_domain_grid = lru_cache(maxsize=32)(cell_grid)


def _scenario(name, tr, raw, components=()):
    """Scenario of raw on tr, normalized and its maximum estimated over
    the in-domain cells of the _NORM_RESOLUTION grid."""
    centers, mask, cell = _domain_grid(tr, _NORM_RESOLUTION)
    vals = raw(centers[mask])
    norm = float(vals.sum() * cell)
    return Scenario(name=name, domain=tr, density=lambda pts: raw(pts) / norm,
                    density_max=float(vals.max()) / norm, components=components)


@lru_cache(maxsize=None)
def scenario_sim1():
    """Four-component Gaussian mixture on the [-6, 6] square."""
    comps = (
        GaussComponent((-2.0, -1.5), ((0.8, -0.5), (-0.5, 1.0)), 0.25),
        GaussComponent((2.0, -2.0), ((1.5, 0.0), (0.0, 1.5)), 0.25),
        GaussComponent((-2.0, 1.5), ((0.6, 0.0), (0.0, 0.6)), 0.25),
        GaussComponent((2.0, 2.0), ((1.0, 0.9), (0.9, 1.0)), 0.25),
    )

    def raw(pts):
        out = np.zeros(len(np.atleast_2d(pts)))
        for c in comps:
            out += c.weight * gaussian_pdf(pts, np.array(c.mean), np.array(c.cov))
        return out

    return _scenario("sim1", load_bundled_mesh("square_sim1_50"), raw, comps)


@lru_cache(maxsize=None)
def scenario_sim2():
    """Shifted ridge density on the horseshoe domain.

    The raw ridge function is raised by five (making it strictly positive
    on the domain) and normalized numerically.
    """
    return _scenario("sim2", load_bundled_mesh("horseshoe_112"),
                     lambda pts: horseshoe_function(pts) + 5.0)


@lru_cache(maxsize=None)
def scenario_sim3():
    """Horseshoe mixture: ridge base, two tight Gaussians, one skewed."""
    base = scenario_sim2()
    gauss = (
        GaussComponent((0.9, -0.5), ((0.04, 0.0), (0.0, 0.01)), 0.05),
        GaussComponent((2.0, -0.5), ((0.02, 0.0), (0.0, 0.01)), 0.05),
    )
    skew = SkewNormalComponent(
        xi=(1.3, 0.0), omega=((0.5, 0.0), (0.0, 0.1)), alpha=(0.0, 6.0), weight=0.2
    )

    def raw(pts):
        out = 0.7 * base.density(pts)
        for c in gauss:
            out = out + c.weight * gaussian_pdf(pts, np.array(c.mean), np.array(c.cov))
        out = out + skew.weight * skew_normal_pdf(pts, skew)
        return out

    return _scenario("sim3", base.domain, raw, gauss + (skew,))


SCENARIOS = {
    "sim1": scenario_sim1,
    "sim2": scenario_sim2,
    "sim3": scenario_sim3,
}


def get_scenario(name):
    try:
        return SCENARIOS[name]()
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")


def sample(scenario, n, seed):
    """Draw n points from the scenario by seeded rejection sampling.

    Proposals are uniform over the bounding box intersected with the
    domain; the acceptance envelope starts at 1.1 times the grid-estimated
    density maximum. If the density ever exceeds the envelope, the
    envelope is doubled and sampling restarts from the same seed, so the
    output is a pure function of (scenario, n, seed).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    xmin, xmax, ymin, ymax = scenario.domain.bounding_box()
    envelope = 1.1 * scenario.density_max
    batch = max(4 * n, 1024)
    for _ in range(64):  # envelope doublings
        rng = np.random.default_rng(seed)
        out = []
        collected = 0
        for _ in range(100_000):
            pts = np.column_stack([
                rng.uniform(xmin, xmax, batch),
                rng.uniform(ymin, ymax, batch),
            ])
            u = rng.uniform(0.0, 1.0, batch)
            inside = scenario.domain.locate(pts) >= 0
            vals = scenario.density(pts[inside])
            if np.any(vals > envelope):
                break  # restart with a doubled envelope
            accept = pts[inside][u[inside] < vals / envelope]
            out.append(accept)
            collected += len(accept)
            if collected >= n:
                return np.concatenate(out)[:n]
        else:
            raise TriDensityError("rejection sampling made no progress")
        envelope *= 2.0
    raise TriDensityError("rejection envelope failed to stabilize")


def mise(estimate, scenario, resolution=100):
    """Integrated squared error of an estimate against the scenario truth.

    estimate is a callable mapping (n, 2) points to density values, or a
    DensityFit. The integral is a Riemann sum over the in-domain cells of
    a resolution x resolution grid covering the bounding box.
    """
    _check_resolution(resolution)
    centers, mask, cell = _domain_grid(scenario.domain, resolution)
    pts = centers[mask]
    est = estimate.density(pts)[0] if hasattr(estimate, "density") else estimate(pts)
    return float(np.sum((np.asarray(est) - scenario.density(pts)) ** 2) * cell)


def _check_resolution(resolution):
    if resolution < MIN_MISE_RESOLUTION:
        raise ValueError(f"grid resolution must be at least {MIN_MISE_RESOLUTION} per axis")


# Entries per block of the blocked kernel sums (512 KB of float64 per
# temporary), so that a block's temporaries stay near a 2 MB L2 cache.
# Measured on a 2-core Xeon with one BLAS thread, the bandwidth CV at
# n=2000 (sim3) took 0.17-0.20 s with 2**16 and 0.30-0.31 s with 2**19.
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(n_rows, n_cols):
    """Row slices covering n_rows, each block about _BLOCK_ENTRIES entries
    of an n_cols-column matrix."""
    step = max(1, _BLOCK_ENTRIES // max(1, n_cols))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


class KernelDensity:
    """Bivariate Gaussian kernel density with a full bandwidth matrix.

    Deliberately unaware of the domain: mass integrates to one over the
    plane, so some of it leaks outside irregular domains. That leakage is
    the behavior the benchmark contrasts against. Data points that are
    not (n, 2) with n >= 1, evaluation points that are not (n, 2) with
    n >= 0, or a bandwidth that is not 2 x 2 raise ValueError naming the
    shape.
    """

    def __init__(self, points, bandwidth):
        self.points = estimator._points_array(points)
        h = np.asarray(bandwidth, dtype=float)
        if h.shape != (2, 2):
            raise ValueError(f"bandwidth must have shape (2, 2), got {h.shape}")
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        if not np.all(np.isfinite(h)) or det <= 0 or h[0, 0] <= 0:
            raise SingularBandwidth(f"bandwidth matrix {h.tolist()} is not SPD")
        self.bandwidth = h
        self._inv = np.array([[h[1, 1], -h[0, 1]], [-h[1, 0], h[0, 0]]]) / det
        self._norm = 1.0 / (2.0 * math.pi * math.sqrt(det))

    def kernel_matrix(self, eval_points):
        """K[i, j] = kernel centered at data point j evaluated at point i."""
        pts = estimator._points_array(eval_points, min_rows=0)
        d0 = pts[:, None, 0] - self.points[None, :, 0]
        d1 = pts[:, None, 1] - self.points[None, :, 1]
        q = (self._inv[0, 0] * d0 ** 2 + 2.0 * self._inv[0, 1] * d0 * d1
             + self._inv[1, 1] * d1 ** 2)
        return self._norm * np.exp(-0.5 * q)

    def __call__(self, eval_points):
        """Density values: row means of the kernel matrix, one block of rows
        at a time, so the full matrix is never held."""
        pts = estimator._points_array(eval_points, min_rows=0)
        out = np.empty(len(pts))
        for rows in _row_blocks(len(pts), len(self.points)):
            out[rows] = self.kernel_matrix(pts[rows]).mean(axis=1)
        return out


def normal_reference_bandwidth(points):
    """Scott's rule for two dimensions: n^(-1/3) times the sample covariance.
    points that are not (n, 2) with n >= 1 raise ValueError naming their
    shape."""
    pts = estimator._points_array(points)
    if len(pts) < 2:
        raise SingularBandwidth("need at least 2 points")
    cov = np.cov(pts.T, ddof=1)
    return len(pts) ** (-1.0 / 3.0) * cov


_SCALES = (0.5, 1.0, 2.0)  # each half the next, as _scale_factors requires
_ANGLES = (-math.pi / 8, 0.0, math.pi / 8)


def _rotations(points):
    """The candidate grid, one entry per angle of _ANGLES: (basis, var0, var1).

    basis is the angle's rotation of the eigenvectors of the
    normal-reference bandwidth; var0 and var1 hold its eigenvalues times
    each scale of _SCALES. Candidate (i, j) of the entry is
    basis @ diag(var0[i], var1[j]) @ basis.T.
    """
    href = normal_reference_bandwidth(points)
    evals, evecs = np.linalg.eigh(href)
    if evals.min() <= 0:
        raise SingularBandwidth("sample covariance is singular")
    out = []
    for phi in _ANGLES:
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        out.append((rot @ evecs, [s * evals[0] for s in _SCALES],
                    [s * evals[1] for s in _SCALES]))
    return out


def bandwidth_candidates(points):
    """Diagonal-plus-rotation grid around the normal-reference bandwidth.

    Each angle of _ANGLES rotates the eigenvectors of the normal-reference
    bandwidth, and each pair of scales of _SCALES multiplies its two
    eigenvalues: 3 angles x 3 x 3 scales = 27 candidates, ordered by angle,
    then the first scale, then the second.
    """
    return [basis @ np.diag([a, b]) @ basis.T
            for basis, var0, var1 in _rotations(points)
            for a in var0 for b in var1]


def _scale_factors(rows, cols, widest):
    """exp(-(r - c)^2 / 2v) for r in rows and c in cols, at
    v = widest * s / _SCALES[-1] for each scale s of _SCALES: an array of
    shape (len(_SCALES), len(rows), len(cols)) in _SCALES order. Each scale
    is half the next, so only the widest factor takes an exponential; each
    narrower one is the square of the next."""
    out = np.empty((len(_SCALES), len(rows), len(cols)))
    widest_factor = out[-1]
    np.subtract.outer(rows, cols, out=widest_factor)
    np.square(widest_factor, out=widest_factor)
    widest_factor *= -0.5 / widest
    np.exp(widest_factor, out=widest_factor)
    for i in range(len(_SCALES) - 2, -1, -1):
        np.square(out[i + 1], out=out[i])
    return out


def select_kde_bandwidth(points, domain, folds=10, seed=0):
    """Pick a bandwidth from bandwidth_candidates by k-fold cross-validation.

    The held-out score of a candidate H is the one select_lambda uses for
    the spline smoothing weight, averaged over the folds k:

        integral f_k^2  -  (2 / |fold k|) sum_{x in fold k} f_k(x),

    where f_k is the kernel density with bandwidth H on the n_k' points
    outside fold k and the integral uses the 9-point rule on the domain
    mesh. The candidates of one rotation are basis @ diag(a, b) @ basis.T,
    so their kernel factors as exp(-u^2 / 2a) exp(-v^2 / 2b) times a
    constant, with (u, v) the offset between two points in that basis; one
    exponential per axis gives all three scales (_scale_factors), and a
    matrix product of the two stacks gives the 9 scale pairs at once.

    The points are sorted by fold, so each fold is a contiguous column
    range. For the integral, each block of quadrature nodes gives every
    fold's kernel sum at each node; f_k is the total minus fold k's sum,
    over n_k'. The second term is linear and symmetric in the kernel:
    sum_{x in fold k} f_k(x) = sum over pairs (x in fold k, y in another
    fold) of K(x, y), over n_k'. So each pair of points in different folds
    is evaluated once, in tiles of at most _BLOCK_ENTRIES pairs, and adds
    to the sums of both its folds; pairs within a fold are never formed.
    No full kernel matrix is built.

    Returns the first candidate with the smallest score and a dict with
    the "scores" and "candidates", both in bandwidth_candidates order.
    points that are not (n, 2) with n >= 1 raise ValueError naming their
    shape.
    """
    pts = estimator._points_array(points)
    n = len(pts)
    assign = model_selection.fold_assignments(n, folds, seed)
    quad_pts, quad_w = domain_nodes(domain, rule_9())
    sizes = np.bincount(assign, minlength=folds)
    n_train = n - sizes
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    fold_cols = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    by_fold = pts[np.argsort(assign, kind="stable")]
    scores = []
    for basis, var0, var1 in _rotations(pts):
        proj_quad = quad_pts @ basis
        proj = by_fold @ basis
        # sq[k, i, j]: quadrature of f_k^2, unnormalized, at scales (i, j)
        sq = np.zeros((folds, len(var0), len(var1)))
        for block in _row_blocks(len(proj_quad), n):
            eu = _scale_factors(proj_quad[block, 0], proj[:, 0], var0[-1]).transpose(1, 0, 2)
            ev = _scale_factors(proj_quad[block, 1], proj[:, 1], var1[-1]).transpose(1, 2, 0)
            in_fold = np.stack([eu[..., c] @ ev[:, c] for c in fold_cols], axis=1)
            held = (in_fold.sum(axis=1, keepdims=True) - in_fold) / n_train[:, None, None]
            sq += np.einsum("r,rkij->kij", quad_w[block], held ** 2)
        # cross[k, i, j]: kernel sum over pairs (fold k, any other fold)
        cross = np.zeros_like(sq)
        for k in range(folds):
            rows_k = proj[fold_cols[k]]
            for l in range(k + 1, folds):
                cols_l = proj[fold_cols[l]]
                for rows in _row_blocks(sizes[k], sizes[l]):
                    eu = _scale_factors(rows_k[rows, 0], cols_l[:, 0], var0[-1])
                    ev = _scale_factors(rows_k[rows, 1], cols_l[:, 1], var1[-1])
                    pair = eu.reshape(len(var0), -1) @ ev.reshape(len(var1), -1).T
                    cross[k] += pair
                    cross[l] += pair
        mean_test = cross / (n_train * sizes)[:, None, None]
        norm = 1.0 / (2.0 * math.pi * np.sqrt(np.outer(var0, var1)))
        err = norm ** 2 * sq - 2.0 * norm * mean_test
        scores.extend(err.mean(axis=0).ravel().tolist())
    candidates = bandwidth_candidates(pts)
    return candidates[int(np.argmin(scores))], {"scores": scores, "candidates": candidates}


METHODS = ("bpst", "kde")


def check_methods(methods):
    """methods as a tuple; raises ValueError unless it names at least one
    method, each of METHODS, none twice."""
    methods = tuple(methods)
    if not methods:
        raise ValueError(f"methods is empty; choose from {METHODS}")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"methods {methods} name a method twice")
    return methods


def replication_estimators(scenario, n, rep_seed, methods=METHODS,
                           spec=SplineSpec(3, 1), lambda_grid=model_selection.DEFAULT_LAMBDA_GRID,
                           folds=10, space=None):
    """Sample one replication and fit every requested method on it.

    Returns a dict mapping method name to a fitted estimator (a DensityFit
    or a KernelDensity); a method that raised stores its exception instead.
    Everything derives deterministically from rep_seed. methods must pass
    check_methods, and a given space must match the scenario's domain and
    spec (ModelSpace.check); both are checked before sampling. The spline
    CV runs its folds as select_lambda does.
    """
    methods = check_methods(methods)
    if space is not None:
        space.check(scenario.domain, spec)
    data = sample(scenario, n, rep_seed)
    out = {}
    for method in methods:
        try:
            if method == "bpst":
                if space is None:
                    space = estimator.ModelSpace(scenario.domain, spec)
                report = model_selection.select_lambda(
                    scenario.domain, data, spec, lambda_grid,
                    folds=folds, seed=rep_seed, space=space,
                )
                cfg = estimator.FitConfig(spec=spec, lam=report.best_lambda)
                out[method] = estimator.fit(scenario.domain, data, cfg, space=space)
            else:
                bw, _ = select_kde_bandwidth(
                    data, scenario.domain, folds=folds, seed=rep_seed
                )
                out[method] = KernelDensity(data, bw)
        except TriDensityError as exc:
            out[method] = exc
    return out


@dataclass
class MiseResult:
    """Aggregated integrated-squared-error scores of one method."""

    method: str
    per_replication: list
    mean: float
    sd: float
    sd_defined: bool
    n_failed: int
    failures: list = field(default_factory=list)  # (replication, message)
    estimates: list = field(default_factory=list)  # per replication: fit or exception


def run_benchmark(scenario, n, reps, methods=METHODS, seed=0,
                  spec=SplineSpec(3, 1), lambda_grid=model_selection.DEFAULT_LAMBDA_GRID,
                  folds=10, mise_resolution=100):
    """Sample, fit and score each method over independent replications.

    Replication r derives its seed as seed XOR r, so results are a pure
    function of (scenario, n, reps, seed). Replications run in order;
    each spline CV runs its folds as select_lambda does, so results do not
    depend on the usable CPUs at a fixed BLAS thread count. A replication
    whose fit raised or whose MISE is not finite (NonFiniteIntegrand)
    failed: it is excluded from the aggregates and reported per method,
    and the mean is NaN when every replication failed. Each method's
    estimates keep every replication's fit or the exception that failed
    it. Bad reps, n, methods (check_methods), folds, lambda_grid values or
    mise_resolution raise ValueError before any sampling or fitting.
    """
    methods = check_methods(methods)
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    model_selection.fold_assignments(n, folds, seed)  # checks 2 <= folds <= n
    lambda_grid = model_selection.check_lambda_grid(lambda_grid)
    _check_resolution(mise_resolution)
    scenario = get_scenario(scenario) if isinstance(scenario, str) else scenario
    space = estimator.ModelSpace(scenario.domain, spec) if "bpst" in methods else None

    rows = []
    for r in range(reps):
        fits = replication_estimators(scenario, n, seed ^ r, methods, spec=spec,
                                      lambda_grid=lambda_grid, folds=folds, space=space)
        scores = {}
        for method, est in fits.items():
            if isinstance(est, Exception):
                continue
            score = mise(est, scenario, mise_resolution)
            if np.isfinite(score):
                scores[method] = score
            else:
                fits[method] = NonFiniteIntegrand(f"MISE is {score!r}, not finite")
        rows.append((fits, scores))

    results = []
    for method in methods:
        estimates = [fits[method] for fits, _ in rows]
        values = [scores[method] for _, scores in rows if method in scores]
        failures = [(r, str(e)) for r, e in enumerate(estimates) if isinstance(e, Exception)]
        mean = float(np.mean(values)) if values else float("nan")
        sd_defined = len(values) >= 2
        sd = float(np.std(values, ddof=1)) if sd_defined else 0.0
        results.append(MiseResult(
            method=method, per_replication=values, mean=mean, sd=sd,
            sd_defined=sd_defined, n_failed=len(failures), failures=failures,
            estimates=estimates,
        ))
    return results
