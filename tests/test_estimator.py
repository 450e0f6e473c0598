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
    initial_histogram,
    initial_lss,
    make_workspace,
    objective,
)
from tridensity.geometry import Triangulation
from tridensity.spline_space import roughness

from conftest import grid_mesh


@pytest.fixture(scope="module")
def unit32_space():
    from tridensity.assets import load_bundled_mesh

    tr = load_bundled_mesh("square_unit_32")
    return ModelSpace(tr, SplineSpec(3, 1))


def uniform_points(n, seed=42):
    return np.random.default_rng(seed).random((n, 2))


def test_initial_histogram_single_triangle():
    tr = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    init = initial_histogram(tr, [[0.2, 0.2], [0.3, 0.1]])
    assert init.values == pytest.approx([1 / tr.area])


def test_initial_histogram_two_triangles(square2):
    pts = [[0.7, 0.2], [0.8, 0.3], [0.9, 0.1]]  # all in triangle 0
    init = initial_histogram(square2, pts)
    assert init.values == pytest.approx([2.0, 0.0])
    assert float(init.values @ square2.areas) == pytest.approx(1.0)


def test_initial_histogram_partition(rng, unit32):
    pts = rng.random((137, 2))
    init = initial_histogram(unit32, pts)
    assert float(init.values @ unit32.areas) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PointOutsideDomain):
        initial_histogram(unit32, [[2.0, 2.0]])


def test_initial_lss_single_triangle():
    tr = Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    pts = [[0.2, 0.2], [0.3, 0.1]]
    assert initial_lss(tr, pts).values == pytest.approx(
        initial_histogram(tr, pts).values
    )


def test_initial_lss_two_triangles(square2):
    pts = [[0.7, 0.2], [0.8, 0.3], [0.9, 0.1]]
    init = initial_lss(square2, pts)
    # shared neighborhood covers the whole unit square
    assert init.values == pytest.approx([1.0, 1.0])


def test_initial_lss_positive_near_occupied():
    tr = grid_mesh(0, 1, 0, 1, 4, 4)
    pts = [[0.05, 0.05], [0.1, 0.03]]  # corner triangle only
    hist = initial_histogram(tr, pts)
    lss = initial_lss(tr, pts)
    from tridensity.geometry import vertex_neighborhood

    occupied = int(np.argmax(hist.values))
    for t in vertex_neighborhood(tr, occupied):
        assert lss.values[t] > 0.0
    assert np.all(lss.values >= 0.0)


def test_init_theta_constant(unit32_space):
    space = unit32_space
    tr = space.tr
    init = estimator.InitialDensity(
        tr=tr, values=np.full(tr.n_triangles, 1.0 / tr.area), variant="histogram"
    )
    theta = init_theta(space, init)
    fitted = space.quad_basis @ theta
    assert np.abs(fitted - np.log(1.0 / tr.area)).max() <= 1e-6


def test_init_theta_floor_keeps_finite(square2):
    space = ModelSpace(square2, SplineSpec(2, 1))
    init = estimator.InitialDensity(
        tr=square2, values=np.array([2.0, 0.0]), variant="histogram"
    )
    theta = init_theta(space, init)
    assert np.all(np.isfinite(theta))
    with pytest.raises(SingularSystem):
        init_theta(space, estimator.InitialDensity(
            tr=square2, values=np.zeros(2), variant="histogram"
        ))


def test_init_theta_matches_dense_oracle(square2, rng):
    space = ModelSpace(square2, SplineSpec(2, 1))
    values = np.array([1.4, 0.3])
    init = estimator.InitialDensity(tr=square2, values=values, variant="histogram")
    theta = init_theta(space, init)
    # direct dense ridge solve on the same design
    a = space.quad_basis
    y = np.log(np.maximum(init.values[square2.locate(space.quad_points)], 1e-8 / square2.area))
    lhs = a.T @ a + 1e-4 * space.reduced_penalty
    oracle = np.linalg.solve(lhs, a.T @ y)
    assert np.abs(space.quad_basis @ (theta - oracle)).max() <= 1e-8


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
    const = space.constraints.basis.T @ np.full(
        space.constraints.basis.shape[0], np.log(1.0 / scen.domain.area)
    )
    assert objective(const, work) < zero
    assert zero == pytest.approx(scen.domain.area)


def test_objective_linear_in_lambda(unit32_space, rng):
    pts = uniform_points(80)
    theta = 0.1 * rng.standard_normal(unit32_space.n_free)
    w1 = make_workspace(unit32_space, pts, lam=0.3)
    w2 = make_workspace(unit32_space, pts, lam=0.6)
    pen = roughness(unit32_space.reduced_penalty, theta)
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
    const = space.constraints.basis.T @ np.full(
        space.constraints.basis.shape[0], np.log(1.0 / tr.area)
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
    expected = (space.constraints.basis.T @ integrals) / tr.area
    assert np.abs(grad - expected).max() <= 1e-12


def test_hessian_symmetric_positive_definite(unit32_space, rng):
    work = make_workspace(unit32_space, uniform_points(60), lam=1e-2)
    for _ in range(3):
        theta = 0.2 * rng.standard_normal(unit32_space.n_free)
        h = hessian(theta, work)
        assert np.abs(h - h.T).max() == 0.0
        np.linalg.cholesky(h)  # raises if not positive definite


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
    f = fit(unit32_space.tr, uniform_points(200), FitConfig(lam=1e-2),
            space=unit32_space, theta0=huge)
    assert f.converged


def test_fit_requires_points(unit32_space):
    with pytest.raises(ValueError):
        fit(unit32_space.tr, np.empty((0, 2)), FitConfig(), space=unit32_space)


def test_did_not_converge_carries_iterate(unit32_space):
    cfg = FitConfig(lam=1e-3, max_iters=1, grad_tol=1e-14, obj_tol=1e-16, step_tol=1e-16)
    with pytest.raises(DidNotConverge) as err:
        fit(unit32_space.tr, uniform_points(100), cfg, space=unit32_space)
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
        "optimizer did not converge: line search stalled after 1 iterations, "
        f"max|gradient| {grad_max:.3e}"
    )


def test_eval_density_flags_and_normalization(unit32_space):
    f = fit(unit32_space.tr, uniform_points(300), FitConfig(lam=1e-2), space=unit32_space)
    vals, inside = f.density([[0.5, 0.5], [4.0, 4.0]])
    assert inside.tolist() == [True, False]
    assert vals[1] == 0.0
    assert np.all(vals >= 0.0)
    # renormalized density integrates to one under the fitting quadrature
    dens, _ = f.density(f.space.quad_points)
    total = float(f.space.quad_weights @ dens)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_penalty_monotone_in_lambda(unit32_space):
    pts = uniform_points(500, seed=7)
    energies = []
    for lam in np.logspace(-5, -1, 5):
        f = fit(unit32_space.tr, pts, FitConfig(lam=float(lam)), space=unit32_space)
        energies.append(roughness(unit32_space.reduced_penalty, f.theta))
    assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))


def test_density_invariant_to_triangle_reindexing(rng):
    tr = grid_mesh(0, 1, 0, 1, 3, 3)
    perm = rng.permutation(tr.n_triangles)
    tr_perm = Triangulation(tr.vertices, tr.triangles[perm])
    pts = uniform_points(400, seed=9)
    cfg = FitConfig(lam=1e-3, grad_tol=1e-11)
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

