import re

import numpy as np
import pytest

from tridensity import estimator
from tridensity.bernstein import SplineSpec
from tridensity.errors import DidNotConverge, PointOutsideDomain, SingularSystem
from tridensity.estimator import (
    FitConfig,
    ModelSpace,
    fit,
    gradient,
    hessian,
    init_theta,
    objective,
)
from tridensity.geometry import Triangulation
from tridensity.quadrature import domain_nodes, rule_9

from conftest import (grid_mesh, make_workspace, random_interior_bary, starve_newton,
                      usable_cpus)


@pytest.fixture(scope="module")
def unit32_space():
    from tridensity.assets import load_bundled_mesh

    tr = load_bundled_mesh("square_unit_32")
    return ModelSpace(tr, SplineSpec(3, 1))


def uniform_points(n, seed=42):
    return np.random.default_rng(seed).random((n, 2))


def vertex_neighborhoods_oracle(tr):
    """Per triangle, the set of triangles sharing a vertex with it, itself
    included: the vertex -> triangles dict walk that ModelSpace's sparse
    pattern replaced."""
    to_triangles = {}
    for t, tri in enumerate(tr.triangles):
        for v in tri:
            to_triangles.setdefault(int(v), []).append(t)
    return [set().union(*(to_triangles[int(v)] for v in tri)) for tri in tr.triangles]


def seed_values_oracle(tr, points):
    """Per-triangle seed density by the loops seed_theta replaced: counts
    over n times areas, summed over each ascending vertex neighborhood when
    there are fewer than LSS_THRESHOLD points per triangle."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    idx = tr.locate(pts)
    assert np.all(idx >= 0)
    counts = np.bincount(idx, minlength=tr.n_triangles).astype(float)
    if len(pts) / tr.n_triangles >= estimator.LSS_THRESHOLD:
        return counts / (len(pts) * tr.areas)
    values = np.empty(tr.n_triangles)
    for t, hood in enumerate(vertex_neighborhoods_oracle(tr)):
        hood = sorted(hood)
        values[t] = counts[hood].sum() / (len(pts) * tr.areas[hood].sum())
    return values


def seed_of(space, points):
    """seed_theta of points located on the space's mesh: the per-triangle
    density it hands to the module-global init_theta, and theta0."""
    seen = []
    real = estimator.init_theta

    def spy(space, values):
        seen.append(values)
        return real(space, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "init_theta", spy)
        theta = estimator.seed_theta(space, space.tr.locate(np.asarray(points, dtype=float)))
    assert len(seen) == 1
    return seen[0], theta


@pytest.fixture(scope="module")
def single_space():
    return ModelSpace(Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]]), SplineSpec(1, 0))


def test_initial_histogram_single_triangle(single_space):
    pts = np.random.default_rng(3).random((6, 2)) / 2  # histogram seed from 5 per triangle
    values, theta = seed_of(single_space, pts)
    assert values == pytest.approx([1 / single_space.tr.area])
    assert np.array_equal(values, seed_values_oracle(single_space.tr, pts))
    assert np.all(np.isfinite(theta))


def test_initial_histogram_two_triangles(square2):
    pts = [[0.7, 0.2], [0.8, 0.3], [0.9, 0.1]] * 4  # all in triangle 0
    values, _ = seed_of(ModelSpace(square2, SplineSpec(1, 0)), pts)
    assert values == pytest.approx([2.0, 0.0])
    assert float(values @ square2.areas) == pytest.approx(1.0)


def test_initial_histogram_partition(rng, unit32_space):
    pts = rng.random((200, 2))
    values, _ = seed_of(unit32_space, pts)
    assert float(values @ unit32_space.tr.areas) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(values, seed_values_oracle(unit32_space.tr, pts))


def test_fit_and_select_lambda_name_outside_rows(rng, unit32_space):
    from tridensity.model_selection import select_lambda

    pts = rng.random((40, 2))
    pts[[3, 17]] = [[2.0, 2.0], [-0.5, 0.5]]
    space = unit32_space
    for run in (lambda: fit(space.tr, pts, space=space),
                lambda: select_lambda(space.tr, pts, space.spec, [1e-3], folds=2, space=space)):
        with pytest.raises(PointOutsideDomain, match=r"rows \[3, 17\]") as info:
            run()
        assert info.value.indices == [3, 17]


def test_initial_lss_single_triangle(single_space):
    pts = [[0.2, 0.2], [0.3, 0.1]]
    values, _ = seed_of(single_space, pts)
    assert np.array_equal(values, [2 / (len(pts) * single_space.tr.area)])
    assert np.array_equal(values, seed_values_oracle(single_space.tr, pts))


def test_initial_lss_two_triangles(square2):
    pts = [[0.7, 0.2], [0.8, 0.3], [0.9, 0.1]]
    values, _ = seed_of(ModelSpace(square2, SplineSpec(1, 0)), pts)
    # shared neighborhood covers the whole unit square
    assert values == pytest.approx([1.0, 1.0])


def test_initial_lss_positive_near_occupied():
    tr = grid_mesh(0, 1, 0, 1, 4, 4)
    space = ModelSpace(tr, SplineSpec(1, 0))
    pts = [[0.05, 0.05], [0.1, 0.03]]  # corner triangle only
    values, _ = seed_of(space, pts)
    occupied = int(tr.locate(np.array(pts[:1]))[0])
    hood = vertex_neighborhoods_oracle(tr)[occupied]
    assert set(np.flatnonzero(values > 0.0).tolist()) == hood
    assert np.all(values >= 0.0)
    assert np.array_equal(values, seed_values_oracle(tr, pts))


def test_init_theta_constant(unit32_space):
    space = unit32_space
    tr = space.tr
    theta = init_theta(space, np.full(tr.n_triangles, 1.0 / tr.area))
    fitted = space.quad_basis @ theta
    assert np.abs(fitted - np.log(1.0 / tr.area)).max() <= 1e-6


def test_init_theta_floor_keeps_finite(square2):
    space = ModelSpace(square2, SplineSpec(2, 1))
    theta = init_theta(space, np.array([2.0, 0.0]))
    assert np.all(np.isfinite(theta))
    with pytest.raises(SingularSystem):
        init_theta(space, np.zeros(2))


def test_init_theta_matches_dense_oracle(square2, rng):
    space = ModelSpace(square2, SplineSpec(2, 1))
    values = np.array([1.4, 0.3])
    theta = init_theta(space, values)
    # direct dense ridge solve on the same design
    a = space.quad_basis
    nodes = domain_nodes(square2, rule_9())[0]
    y = np.log(np.maximum(values[square2.locate(nodes)], 1e-8 / square2.area))
    lhs = a.T @ a + 1e-4 * space.reduced_penalty
    oracle = np.linalg.solve(lhs, a.T @ y)
    assert np.abs(space.quad_basis @ (theta - oracle)).max() <= 1e-8


def bundled_seed_points(tr, branch, rng):
    """Every vertex, every shared-edge midpoint and random interior points:
    below LSS_THRESHOLD points per triangle for "lss", at or above it for
    "histogram"."""
    shared = tr.edge_triangles[:, 1] >= 0
    mids = tr.vertices[tr.edges[shared]].mean(axis=1)
    n_random = tr.n_triangles * (1 if branch == "lss" else int(estimator.LSS_THRESHOLD))
    t = rng.integers(tr.n_triangles, size=n_random)
    inner = np.einsum("nk,nkd->nd", random_interior_bary(rng, n_random), tr.corners[t])
    pts = np.vstack([tr.vertices, mids, inner])
    assert (len(pts) / tr.n_triangles < estimator.LSS_THRESHOLD) == (branch == "lss")
    return rng.permutation(pts)


@pytest.mark.parametrize("branch", ["lss", "histogram"])
@pytest.mark.parametrize("mesh", ["square_unit_32", "square_sim1_50", "horseshoe_112",
                                  "horseshoe_356"])
def test_seed_equals_removed_loops_on_bundled_meshes(mesh, branch):
    """seed_theta's per-triangle density and theta0 are bit-identical to the
    per-triangle loops it replaced, with points on vertices and shared
    edges, on each bundled mesh and on both sides of LSS_THRESHOLD."""
    from tridensity.assets import load_bundled_mesh

    tr = load_bundled_mesh(mesh)
    space = ModelSpace(tr, SplineSpec(1, 0))
    pts = bundled_seed_points(tr, branch, np.random.default_rng(len(mesh)))
    values, theta = seed_of(space, pts)
    want = seed_values_oracle(tr, pts)
    assert np.array_equal(values, want)
    assert np.array_equal(theta, init_theta(space, want))


def test_objective_at_zero_is_area(unit32_space):
    work = make_workspace(unit32_space, uniform_points(50), lam=0.5)
    assert objective(np.zeros(unit32_space.n_free), work) == pytest.approx(
        unit32_space.tr.area
    )


def test_objective_prefers_uniform_log_density():
    from tridensity.simbench import scenario_sim1, sample

    scen = scenario_sim1()
    space = ModelSpace(scen.domain, SplineSpec(2, 0))
    pts = sample(scen, 100, 4)
    work = make_workspace(space, pts, lam=0.0)
    zero = objective(np.zeros(space.n_free), work)
    const = space.basis.T @ np.full(
        space.basis.shape[0], np.log(1.0 / scen.domain.area)
    )
    assert objective(const, work) < zero
    assert zero == pytest.approx(scen.domain.area)


def test_objective_linear_in_lambda(unit32_space, rng):
    pts = uniform_points(80)
    theta = 0.1 * rng.standard_normal(unit32_space.n_free)
    w1 = make_workspace(unit32_space, pts, lam=0.3)
    w2 = make_workspace(unit32_space, pts, lam=0.6)
    pen = float(theta @ (unit32_space.reduced_penalty @ theta))
    assert objective(theta, w2) - objective(theta, w1) == pytest.approx(0.3 * pen)


def test_objective_overflow_sentinel(unit32_space):
    work = make_workspace(unit32_space, uniform_points(10), lam=0.0)
    theta = np.full(unit32_space.n_free, 1e4)
    assert objective(theta, work) == np.inf


def test_convexity_probe(unit32_space, rng):
    work = make_workspace(unit32_space, uniform_points(60), lam=1e-3)
    for _ in range(10):
        ta = 0.3 * rng.standard_normal(unit32_space.n_free)
        tb = 0.3 * rng.standard_normal(unit32_space.n_free)
        fa, fb = objective(ta, work), objective(tb, work)
        for t in (0.25, 0.5, 0.75):
            mid = objective(t * ta + (1 - t) * tb, work)
            assert mid <= t * fa + (1 - t) * fb + 1e-9


def test_gradient_matches_finite_differences(unit32_space, rng):
    work = make_workspace(unit32_space, uniform_points(60), lam=1e-3)
    h = 1e-6
    for _ in range(3):
        theta = 0.2 * rng.standard_normal(unit32_space.n_free)
        grad = gradient(theta, work)
        fd = np.empty_like(grad)
        for i in range(len(theta)):
            e = np.zeros_like(theta)
            e[i] = h
            fd[i] = (objective(theta + e, work) - objective(theta - e, work)) / (2 * h)
        assert np.linalg.norm(fd - grad) / np.linalg.norm(grad) <= 1e-6


def test_gradient_of_exponential_term_is_basis_integral(unit32_space):
    """At the uniform log density with no data term, the gradient of the
    exponential term reduces to the integrals of the reduced basis
    functions scaled by the uniform density; checked against an
    independently constructed quadrature rule."""
    from tridensity.quadrature import conical_rule

    space = unit32_space
    tr = space.tr
    const = space.basis.T @ np.full(
        space.basis.shape[0], np.log(1.0 / tr.area)
    )
    work = estimator.Workspace(space=space, data_mean=np.zeros(space.n_free), lam=0.0)
    grad = gradient(const, work)
    rule = conical_rule(space.spec.degree)
    from tridensity.bernstein import evaluate

    local = evaluate(space.spec.degree, rule.nodes)
    dim = space.spec.per_triangle_dim
    integrals = np.zeros(space.spec.dimension(tr))
    for t in range(tr.n_triangles):
        integrals[t * dim:(t + 1) * dim] = tr.areas[t] * (rule.weights @ local)
    expected = (space.basis.T @ integrals) / tr.area
    assert np.abs(grad - expected).max() <= 1e-12


def mirrored_upper(h):
    """The full symmetric matrix of hessian's upper triangle."""
    return np.triu(h) + np.triu(h, 1).T


def test_hessian_symmetric_positive_definite(unit32_space, rng):
    work = make_workspace(unit32_space, uniform_points(60), lam=1e-2)
    step = 1e-6
    for _ in range(3):
        theta = 0.2 * rng.standard_normal(unit32_space.n_free)
        h = hessian(theta, work)
        assert h.flags.f_contiguous
        full = mirrored_upper(h)
        np.linalg.cholesky(full)  # raises if not positive definite
        # the upper triangle is the Hessian: central differences of the gradient
        fd = np.empty_like(full)
        for i in range(len(theta)):
            e = np.zeros_like(theta)
            e[i] = step
            fd[:, i] = (gradient(theta + e, work) - gradient(theta - e, work)) / (2 * step)
        assert np.abs(fd - full).max() <= 1e-6 * np.abs(full).max()


def test_fit_uniform_recovery(unit32_space):
    pts = uniform_points(2000)
    f = fit(unit32_space.tr, pts, FitConfig(lam=1e-3), space=unit32_space)
    assert f.converged
    diffs = np.diff(f.objective_trace)
    assert np.all(diffs < 0.0)
    assert np.exp(f.log_norm_const) == pytest.approx(1.0, abs=1e-3)
    g = np.linspace(0.01, 0.99, 50)
    gx, gy = np.meshgrid(g, g)
    vals, inside = f.density(np.column_stack([gx.ravel(), gy.ravel()]))
    assert inside.all()
    assert np.abs(vals - 1.0).max() <= 0.15


def test_fit_recovers_from_overflowing_seed(unit32_space):
    huge = np.full(unit32_space.n_free, 1e6)
    work = make_workspace(unit32_space, uniform_points(200), 1e-2)
    f = estimator.newton(work, huge)
    assert f.converged


@pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
def test_fit_config_rejects_bad_lambda(lam):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        FitConfig(lam=lam)


def test_fit_requires_points(unit32_space):
    for points, shape in (([], "(0,)"), (np.empty((0, 2)), "(0, 2)"),
                          (np.full((5, 3), 0.5), "(5, 3)")):
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            fit(unit32_space.tr, points, FitConfig(), space=unit32_space)


def test_density_names_a_malformed_points_shape(unit32_space):
    tr, spec = unit32_space.tr, unit32_space.spec
    gamma = unit32_space.gamma(np.zeros(unit32_space.n_free))
    for points, shape in (([], "(0,)"), (np.full((5, 3), 0.5), "(5, 3)")):
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            estimator.density_from_gamma(tr, spec, gamma, points)
    values, inside = estimator.density_from_gamma(tr, spec, gamma, np.empty((0, 2)))
    assert values.shape == inside.shape == (0,)
    assert inside.dtype == bool


def test_fit_takes_one_point_as_one_row(unit32_space):
    one = fit(unit32_space.tr, [0.3, 0.6], FitConfig(lam=1e-1), space=unit32_space)
    row = fit(unit32_space.tr, [[0.3, 0.6]], FitConfig(lam=1e-1), space=unit32_space)
    assert np.array_equal(one.theta, row.theta)


def test_fit_rejects_space_of_other_mesh_or_spec(unit32_space, square2):
    from tridensity.assets import mesh_paths
    from tridensity.geometry import load_mesh

    pts = uniform_points(100)
    with pytest.raises(ValueError, match="different mesh"):
        fit(square2, pts, FitConfig(lam=1e-3), space=unit32_space)
    with pytest.raises(ValueError, match="built for"):
        fit(unit32_space.tr, pts, FitConfig(spec=SplineSpec(2, 1), lam=1e-3),
            space=unit32_space)
    reloaded = load_mesh(*mesh_paths("square_unit_32"))
    assert reloaded is not unit32_space.tr
    assert unit32_space.check(reloaded, SplineSpec(3, 1)) is unit32_space
    f = fit(reloaded, pts, FitConfig(lam=1e-3), space=unit32_space)
    assert f.converged and f.space is unit32_space


def test_did_not_converge_carries_iterate(unit32_space, monkeypatch):
    starve_newton(monkeypatch, 1, 1e-14, 1e-16)
    with pytest.raises(DidNotConverge) as err:
        fit(unit32_space.tr, uniform_points(100), FitConfig(lam=1e-3), space=unit32_space)
    partial = err.value.fit
    assert not partial.converged
    assert partial.iterations == 1
    assert len(partial.objective_trace) == 2
    assert str(err.value).startswith(
        "optimizer did not converge: iteration limit (max_iters=1) reached after 1 iterations"
    )


def test_did_not_converge_names_stalled_line_search(unit32_space, monkeypatch):
    real_objective = estimator.objective
    calls = []

    def first_finite(theta, work):
        # every trial step after the starting value is rejected
        calls.append(1)
        return real_objective(theta, work) if len(calls) == 1 else np.inf

    monkeypatch.setattr(estimator, "objective", first_finite)
    with pytest.raises(DidNotConverge) as err:
        fit(unit32_space.tr, uniform_points(100), FitConfig(lam=1e-3), space=unit32_space)
    partial = err.value.fit
    assert len(partial.objective_trace) == 1
    work = make_workspace(unit32_space, uniform_points(100), 1e-3)
    grad_max = np.abs(gradient(partial.theta, work)).max()
    assert str(err.value) == (
        "optimizer did not converge: line search stalled after 0 iterations, "
        f"max|gradient| {grad_max:.3e}"
    )


def test_eval_density_flags_and_normalization(unit32_space):
    f = fit(unit32_space.tr, uniform_points(300), FitConfig(lam=1e-2), space=unit32_space)
    vals, inside = f.density([[0.5, 0.5], [4.0, 4.0]])
    assert inside.tolist() == [True, False]
    assert vals[1] == 0.0
    assert np.all(vals >= 0.0)
    # renormalized density integrates to one under the fitting quadrature
    dens, _ = f.density(domain_nodes(f.tr, rule_9())[0])
    total = float(f.space.quad_weights @ dens)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_penalty_monotone_in_lambda(unit32_space):
    pts = uniform_points(500, seed=7)
    energies = []
    for lam in np.logspace(-5, -1, 5):
        f = fit(unit32_space.tr, pts, FitConfig(lam=float(lam)), space=unit32_space)
        energies.append(float(f.theta @ (unit32_space.reduced_penalty @ f.theta)))
    assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))


def test_density_invariant_to_triangle_reindexing(rng, monkeypatch):
    tr = grid_mesh(0, 1, 0, 1, 3, 3)
    perm = rng.permutation(tr.n_triangles)
    tr_perm = Triangulation(tr.vertices, tr.triangles[perm])
    pts = uniform_points(400, seed=9)
    monkeypatch.setattr(estimator, "GRAD_TOL", 1e-11)
    cfg = FitConfig(lam=1e-3)
    f1 = fit(tr, pts, cfg)
    f2 = fit(tr_perm, pts, cfg)
    probes = rng.random((100, 2))
    v1, _ = f1.density(probes)
    v2, _ = f2.density(probes)
    assert np.abs(v1 - v2).max() <= 1e-9


def test_fitted_density_smooth_across_edges(unit32_space, rng):
    from test_spline_space import edge_points, interior_edges, piece_value

    f = fit(unit32_space.tr, uniform_points(500, seed=3),
            FitConfig(lam=1e-3), space=unit32_space)
    tr, spec = f.tr, f.spec
    for edge, (ta, tb) in interior_edges(tr):
        pts = edge_points(tr, edge)
        for orders in ((0, 0), (1, 0), (0, 1)):
            left = piece_value(tr, spec, f.gamma, ta, pts, orders)
            right = piece_value(tr, spec, f.gamma, tb, pts, orders)
            assert np.abs(left - right).max() <= 1e-8



# ------------------------------------------------ the Newton loop's oracle

def _mirrored_hessian(theta, work):
    """The Hessian as newton once formed it: dsyrk's upper triangle
    mirrored into a full symmetric matrix."""
    from scipy.linalg import blas

    space = work.space
    eta = np.minimum(space.quad_basis @ theta, estimator.EXP_CAP)
    w_exp = space.quad_weights * np.exp(eta)
    s = np.sqrt(w_exp)[:, None] * space.quad_basis
    h = blas.dsyrk(1.0, s.T, c=2.0 * work.lam * space.reduced_penalty, beta=1.0)
    return np.triu(h) + np.triu(h, 1).T


def _mirrored_newton(work, theta0):
    """newton as it was before it factored dsyrk's triangle in place:
    mirrored Hessian, checked cho_factor and cho_solve, and the same stop
    rule. Returns the fit, or the DidNotConverge it raises."""
    from scipy import linalg

    objective, gradient = estimator.objective, estimator.gradient  # as patched
    max_iters, grad_tol, obj_tol = estimator.MAX_ITERS, estimator.GRAD_TOL, estimator.OBJ_TOL
    space = work.space
    theta = np.asarray(theta0, dtype=float).copy()
    obj = objective(theta, work)
    if not np.isfinite(obj):
        theta = np.zeros_like(theta)
        obj = objective(theta, work)
    trace = [obj]
    cause = f"iteration limit (max_iters={max_iters}) reached"

    for iterations in range(max_iters + 1):
        grad = gradient(theta, work)
        grad_max = float(np.abs(grad).max())
        converged = grad_max <= grad_tol
        if converged or iterations == max_iters:
            break
        hess = _mirrored_hessian(theta, work)
        try:
            direction = -linalg.cho_solve(linalg.cho_factor(hess), grad)
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
            if cand_obj <= obj + estimator.ARMIJO_C * alpha * slope:
                break
            alpha *= estimator.ARMIJO_SHRINK
        else:
            cause = "line search stalled"
            break
        decrease = obj - cand_obj
        theta, obj = cand, cand_obj
        trace.append(obj)
        if decrease <= obj_tol:
            converged = True
            break
    iterations = len(trace) - 1

    gamma = space.gamma(theta)
    result = estimator.DensityFit(
        space=space, theta=theta, gamma=gamma, lam=work.lam,
        log_norm_const=estimator.log_integral_exp(space.tr, space.spec, gamma),
        objective_trace=trace, converged=converged, iterations=iterations,
    )
    if not converged:
        return DidNotConverge(
            result,
            f"optimizer did not converge: {cause} after {iterations} iterations, "
            f"max|gradient| {grad_max:.3e}",
        )
    return result


def _newton_outcome(run):
    try:
        return run()
    except DidNotConverge as exc:
        return exc


def _assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, DidNotConverge):
        assert str(got) == str(want)
        got, want = got.fit, want.fit
    assert np.array_equal(got.theta, want.theta)
    assert got.objective_trace == want.objective_trace
    assert got.iterations == want.iterations == len(got.objective_trace) - 1
    assert got.converged == want.converged
    assert got.log_norm_const == want.log_norm_const


@pytest.fixture(scope="module")
def horseshoe_space():
    from tridensity.assets import load_bundled_mesh

    return ModelSpace(load_bundled_mesh("horseshoe_112"), SplineSpec(3, 1))


def horseshoe_points(tr, n, seed):
    """n points drawn uniformly on the mesh by rejection from its box,
    crowded toward one corner so the fits are not flat."""
    rng = np.random.default_rng(seed)
    xmin, xmax, ymin, ymax = tr.bounding_box()
    out = np.empty((0, 2))
    while len(out) < n:
        p = rng.random((4 * n, 2)) ** [1.0, 2.0] * [xmax - xmin, ymax - ymin] + [xmin, ymin]
        out = np.vstack([out, p[tr.locate(p) >= 0]])
    return out[:n]


def test_hessian_equals_mirrored_formula(horseshoe_space, rng):
    pts = horseshoe_points(horseshoe_space.tr, 300, seed=4)
    for lam in (0.0, 1e-3, 1.0):
        work = make_workspace(horseshoe_space, pts, lam)
        for theta in (np.zeros(horseshoe_space.n_free),
                      0.3 * rng.standard_normal(horseshoe_space.n_free)):
            assert np.array_equal(mirrored_upper(hessian(theta, work)),
                                  _mirrored_hessian(theta, work))


def test_newton_matches_mirrored_oracle_on_warm_started_chain(horseshoe_space):
    space = horseshoe_space
    pts = horseshoe_points(space.tr, 600, seed=11)
    theta = estimator.seed_theta(space, space.tr.locate(pts))
    for lam in np.logspace(-6.0, 0.0, 9):
        work = make_workspace(space, pts, float(lam))
        got = _newton_outcome(lambda: estimator.newton(work, theta))
        _assert_same_outcome(got, _mirrored_newton(work, theta))
        assert got.converged
        theta = got.theta


def test_newton_converges_only_on_its_two_tests(horseshoe_space):
    """A converged fit ends with max|gradient| at most GRAD_TOL, or on a
    step that lowered the objective by at most OBJ_TOL; no other test may
    declare convergence. At n = 2000 the lam = 1 fit of this chain stops
    where the gradient test has not fired."""
    from tridensity.model_selection import DEFAULT_LAMBDA_GRID
    from tridensity.simbench import get_scenario, sample

    space = horseshoe_space
    pts = sample(get_scenario("sim3"), 2000, 3)
    theta = estimator.seed_theta(space, space.tr.locate(pts))
    for lam in DEFAULT_LAMBDA_GRID:
        work = make_workspace(space, pts, float(lam))
        f = estimator.newton(work, theta)
        trace = f.objective_trace
        grad_max = np.abs(gradient(f.theta, work)).max()
        last_decrease = trace[-2] - trace[-1] if len(trace) > 1 else np.inf
        assert grad_max <= estimator.GRAD_TOL or last_decrease <= estimator.OBJ_TOL, lam
        assert f.iterations == len(trace) - 1
        theta = f.theta


@pytest.mark.parametrize("case", ["above_exp_cap", "max_iters", "stalled"])
def test_newton_matches_mirrored_oracle_off_the_happy_path(horseshoe_space, case,
                                                           monkeypatch):
    space = horseshoe_space
    pts = horseshoe_points(space.tr, 200, seed=5)
    work = make_workspace(space, pts, 1e-3)
    theta0 = estimator.seed_theta(space, space.tr.locate(pts))
    if case == "above_exp_cap":
        theta0 = np.full(space.n_free, 1e6)
        assert not np.isfinite(objective(theta0, work))
    elif case == "max_iters":
        starve_newton(monkeypatch, 2, 1e-14, 1e-16)
    calls = []
    if case == "stalled":
        real_objective = estimator.objective

        def first_finite(theta, work):
            calls.append(1)
            return real_objective(theta, work) if len(calls) == 1 else np.inf

        monkeypatch.setattr(estimator, "objective", first_finite)
    got = _newton_outcome(lambda: estimator.newton(work, theta0))
    calls.clear()
    want = _mirrored_newton(work, theta0)
    _assert_same_outcome(got, want)
    assert isinstance(got, DidNotConverge) == (case != "above_exp_cap")


@pytest.mark.parametrize("n", [300, 900])  # LSS seed below 560 points, histogram above
def test_init_theta_equals_ridge_solve(horseshoe_space, n):
    from scipy import linalg

    space = horseshoe_space
    pts = horseshoe_points(space.tr, n, seed=n)
    values = seed_values_oracle(space.tr, pts)
    a = space.quad_basis
    y = np.log(np.maximum(np.repeat(values, len(space.rule.weights)),
                          estimator.FLOOR_REL / space.tr.area))
    lhs = a.T @ a + estimator.INIT_RIDGE * space.reduced_penalty
    want = linalg.solve(lhs, a.T @ y, assume_a="pos")
    assert np.array_equal(init_theta(space, values), want)
    assert np.array_equal(seed_of(space, pts)[1], want)


def test_newton_calls_the_traced_names(horseshoe_space, monkeypatch):
    """newton looks objective, gradient and hessian up as estimator module
    globals, where a tracer wraps them: one Hessian per iteration, and
    select_lambda reaches all three."""
    from tridensity.model_selection import select_lambda

    counts = dict.fromkeys(("objective", "gradient", "hessian"), 0)
    for name in counts:
        def counted(theta, work, name=name, real=getattr(estimator, name)):
            counts[name] += 1
            return real(theta, work)

        monkeypatch.setattr(estimator, name, counted)
    space = horseshoe_space
    pts = horseshoe_points(space.tr, 300, seed=2)
    f = fit(space.tr, pts, FitConfig(lam=1e-3), space=space)
    assert f.iterations > 0
    assert counts["hessian"] == f.iterations
    assert counts["gradient"] >= f.iterations
    assert counts["objective"] >= len(f.objective_trace)
    counts.update(dict.fromkeys(counts, 0))
    # one usable CPU keeps the fold fits in this process, where the counters are
    usable_cpus(monkeypatch, 1)
    select_lambda(space.tr, pts, space.spec, [1e-3], folds=2, space=space)
    assert all(counts.values()), counts


def test_model_space_calls_the_traced_names(unit32, monkeypatch):
    """ModelSpace looks the smoothness matrix and null space up through the
    spline_space module and the penalty matrix as an estimator module
    global, where a tracer wraps them: each runs once per space."""
    from tridensity import spline_space

    counts = {}
    for module, name in ((spline_space, "smoothness_matrix"), (spline_space, "nullspace"),
                         (estimator, "penalty_matrix")):
        def counted(*args, name=name, real=getattr(module, name)):
            counts[name] += 1
            return real(*args)

        counts[name] = 0
        monkeypatch.setattr(module, name, counted)
    for n_spaces in (1, 2):
        space = ModelSpace(unit32, SplineSpec(3, 1))
        assert counts == dict.fromkeys(counts, n_spaces)
    assert space.n_free == space.basis.shape[1] > 0


@pytest.mark.parametrize("lam", [1e-5, 1e-3, 1e-1])
@pytest.mark.parametrize("case", ["square_unit_32", "horseshoe_112"])
def test_repeating_the_sample_gives_its_fit(unit32_space, horseshoe_space, case, lam):
    """The likelihood term is a mean over the points, so the sample listed
    twice has the sample's objective. With n >= LSS_THRESHOLD * N both fits
    seed from the histogram, and the seed is identical; the data mean is
    summed in another order, so Newton's stop rule may end the two fits a
    rounding apart, and the bound is not 0."""
    if case == "square_unit_32":
        space, pts = unit32_space, uniform_points(200, seed=3)
    else:
        from tridensity.simbench import get_scenario, sample

        space, pts = horseshoe_space, sample(get_scenario("sim2"), 600, 1)
    tr = space.tr
    twice = np.vstack([pts, pts])
    assert len(pts) >= estimator.LSS_THRESHOLD * tr.n_triangles
    assert np.array_equal(estimator.seed_theta(space, tr.locate(pts)),
                          estimator.seed_theta(space, tr.locate(twice)))
    cfg = FitConfig(spec=space.spec, lam=lam)
    once, _ = fit(tr, pts, cfg, space=space).density(tr.vertices)
    double, _ = fit(tr, twice, cfg, space=space).density(tr.vertices)
    assert np.all(once > 0)
    assert np.abs(double / once - 1).max() <= 1e-7


@pytest.mark.parametrize("motion, bound", [("relabel", 1e-8), ("rigid", 1e-8), ("scale", 1e-5)])
@pytest.mark.parametrize("case", ["square_unit_32", "horseshoe_112", "sliver"])
def test_fit_is_invariant_to_labels_rigid_motion_and_scale(unit32_space, horseshoe_space, case,
                                                           motion, bound):
    """The minimizer is unique, so relabelling the mesh (vertices and
    triangles permuted, each triangle's corners rotated) or moving mesh and
    data rigidly (30 degrees, then by (3, -2)) gives the same density at the
    moved points, and scaling both by s = 2 with lam * s**2 gives
    f_s(s x) = f(x) / s**2; the penalty scales as 1 / s**2. The error is
    relative to max f on 3000 probe points inside the domain. Scaling is
    looser: the seed's ridge INIT_RIDGE * reduced_penalty does not scale
    with the penalty, so Newton starts elsewhere and stops a tolerance
    apart (measured 3.9e-7 on the horseshoe). The sliver mesh has a
    triangle with two 0.46 degree angles."""
    if case == "square_unit_32":
        space, pts = unit32_space, uniform_points(400, seed=5)
    elif case == "sliver":
        from test_geometry import _sliver_mesh

        tr = _sliver_mesh()
        space, pts = ModelSpace(tr, SplineSpec(3, 1)), horseshoe_points(tr, 400, seed=5)
    else:
        from tridensity.simbench import get_scenario, sample

        space, pts = horseshoe_space, sample(get_scenario("sim2"), 600, 1)
    tr = space.tr
    rng = np.random.default_rng(11)
    xmin, xmax, ymin, ymax = tr.bounding_box()
    box = rng.random((9000, 2)) * [xmax - xmin, ymax - ymin] + [xmin, ymin]
    probes = box[tr.locate(box) >= 0][:3000]
    assert len(probes) == 3000
    vertices, triangles, lam, factor = tr.vertices, tr.triangles, 1e-3, 1.0
    move = lambda p: p
    if motion == "relabel":
        label = rng.permutation(tr.n_vertices)
        vertices = np.empty_like(tr.vertices)
        vertices[label] = tr.vertices
        triangles = label[tr.triangles][rng.permutation(tr.n_triangles)]
        turn = (np.arange(3) + rng.integers(0, 3, (tr.n_triangles, 1))) % 3
        triangles = np.take_along_axis(triangles, turn, axis=1)
    elif motion == "rigid":
        c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
        move = lambda p: p @ np.array([[c, s], [-s, c]]) + [3.0, -2.0]
    else:
        move, lam, factor = (lambda p: 2.0 * p), 4e-3, 4.0
    want, _ = fit(tr, pts, FitConfig(lam=1e-3), space=space).density(probes)
    moved = Triangulation(move(vertices), triangles)
    got, _ = fit(moved, move(pts), FitConfig(lam=lam)).density(move(probes))
    assert np.abs(factor * got - want).max() / want.max() <= bound
