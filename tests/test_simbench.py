import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from tridensity import model_selection, simbench
from tridensity.errors import NonFiniteIntegrand, SingularBandwidth
from tridensity.geometry import load_mesh
from tridensity.quadrature import domain_nodes, rule_9
from tridensity.simbench import (
    KernelDensity,
    Scenario,
    _domain_grid,
    _row_blocks,
    bandwidth_candidates,
    gaussian_pdf,
    get_scenario,
    horseshoe_function,
    mise,
    normal_reference_bandwidth,
    replication_estimators,
    run_benchmark,
    sample,
    scenario_sim1,
    scenario_sim2,
    scenario_sim3,
    select_kde_bandwidth,
    skew_normal_pdf,
)

from conftest import usable_cpus


def test_sim1_parameters():
    scen = scenario_sim1()
    weights = [c.weight for c in scen.components]
    assert sum(weights) == pytest.approx(1.0)
    means = [c.mean for c in scen.components]
    assert (2.0, -2.0) in means
    second = scen.components[1]
    assert second.mean == (2.0, -2.0)
    assert second.cov == ((1.5, 0.0), (0.0, 1.5))


def test_sim1_normalization_fine_grid():
    scen = scenario_sim1()
    centers, mask, cell = _domain_grid(scen.domain, 400)
    total = scen.density(centers[mask]).sum() * cell
    assert total == pytest.approx(1.0, abs=1e-4)


def test_sim1_truncation_mass():
    scen = scenario_sim1()
    centers, mask, cell = _domain_grid(scen.domain, 400)

    def raw(pts):
        out = np.zeros(len(pts))
        for c in scen.components:
            out += c.weight * gaussian_pdf(pts, np.array(c.mean), np.array(c.cov))
        return out

    inside_mass = raw(centers[mask]).sum() * cell  # full mixture integrates to 1
    assert 1.0 - inside_mass < 1e-3


def test_sim2_positive_and_normalized():
    scen = scenario_sim2()
    centers, mask, cell = _domain_grid(scen.domain, 400)
    vals = scen.density(centers[mask])
    assert vals.min() > 0.0
    assert vals.sum() * cell == pytest.approx(1.0, abs=1e-3)


def test_sim2_domain_nonconvex():
    scen = scenario_sim2()
    tr = scen.domain
    # two in-domain points whose midpoint falls into the concavity
    assert tr.locate(np.array([[1.5, 0.5]]))[0] >= 0
    assert tr.locate(np.array([[1.5, -0.5]]))[0] >= 0
    assert tr.locate(np.array([[1.5, 0.0]]))[0] == -1


def test_horseshoe_function_ranges():
    # ridge coordinate is continuous across the bend/arm junctions
    eps = 1e-9
    for y in (0.5, -0.5):
        left = horseshoe_function(np.array([[-eps, y]]))[0]
        right = horseshoe_function(np.array([[eps, y]]))[0]
        assert left == pytest.approx(right, abs=1e-6)
    # upper arm carries larger values than the lower arm
    up = horseshoe_function(np.array([[2.0, 0.5]]))[0]
    lo = horseshoe_function(np.array([[2.0, -0.5]]))[0]
    assert up > lo
    assert lo + 5.0 > 0.0


def test_sim3_parameters_and_normalization():
    scen = scenario_sim3()
    weights = [c.weight for c in scen.components]
    assert weights == [0.05, 0.05, 0.2]  # plus 0.7 on the ridge base
    assert sum(weights) + 0.7 == pytest.approx(1.0)
    centers, mask, cell = _domain_grid(scen.domain, 400)
    assert scen.density(centers[mask]).sum() * cell == pytest.approx(1.0, abs=1e-3)


def test_skew_normal_against_conditional_oracle():
    scen = scenario_sim3()
    comp = scen.components[-1]
    alpha = np.asarray(comp.alpha)
    delta = alpha / np.sqrt(1.0 + alpha @ alpha)
    cov = np.eye(3)
    cov[0, 1:] = delta
    cov[1:, 0] = delta
    inv = np.linalg.inv(cov)
    det = np.linalg.det(cov)

    def trivariate(v):
        return np.exp(-0.5 * v @ inv @ v) / np.sqrt((2 * np.pi) ** 3 * det)

    def oracle(point):
        scale = np.sqrt(np.diag(np.asarray(comp.omega)))
        z = (np.asarray(point) - np.asarray(comp.xi)) / scale
        val, _ = integrate.quad(
            lambda t: trivariate(np.array([t, z[0], z[1]])), 0, np.inf
        )
        return 2.0 * val / (scale[0] * scale[1])

    rng = np.random.default_rng(1)
    pts = np.column_stack([
        1.3 + rng.normal(0, 0.8, 20), rng.normal(0.1, 0.35, 20)
    ])
    direct = skew_normal_pdf(pts, comp)
    for p, d in zip(pts, direct):
        o = oracle(p)
        if o > 1e-12:
            assert abs(d - o) / o <= 1e-8


def test_sample_deterministic_and_inside():
    scen = scenario_sim1()
    a = sample(scen, 200, seed=7)
    b = sample(scen, 200, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample(scen, 200, seed=8))
    assert np.all(scen.domain.locate(a) >= 0)
    with pytest.raises(ValueError):
        sample(scen, 0, seed=1)


def test_sample_moments_against_grid():
    scen = scenario_sim1()
    pts = sample(scen, 100_000, seed=3)
    centers, mask, cell = _domain_grid(scen.domain, 400)
    w = scen.density(centers[mask]) * cell
    grid_mean = (centers[mask] * w[:, None]).sum(axis=0)
    assert np.abs(pts.mean(axis=0) - grid_mean).max() <= 0.05


def test_sample_envelope_rebuild_is_deterministic():
    base = scenario_sim2()
    tight = Scenario(
        name="tight", domain=base.domain, density=base.density,
        density_max=base.density_max / 100.0,
    )
    a = sample(tight, 100, seed=5)
    b = sample(tight, 100, seed=5)
    assert np.array_equal(a, b)
    assert np.all(base.domain.locate(a) >= 0)


def test_mise_properties():
    scen = scenario_sim1()
    assert mise(scen.density, scen, 100) == 0.0
    c = 1.0 / scen.domain.area
    got = mise(lambda p: np.full(len(p), c), scen, 100)
    centers, mask, cell = _domain_grid(scen.domain, 100)
    f = scen.density(centers[mask])
    ident = float((f ** 2).sum() * cell - 2 * c * f.sum() * cell + c * c * mask.sum() * cell)
    assert got == pytest.approx(ident, abs=1e-10)
    assert got >= 0.0
    with pytest.raises(ValueError):
        mise(scen.density, scen, 40)


def test_kde_leaks_outside_irregular_domain():
    scen = scenario_sim2()
    pts = sample(scen, 300, seed=9)
    kde = KernelDensity(pts, normal_reference_bandwidth(pts))
    centers, mask, cell = _domain_grid(scen.domain, 250)
    inside_mass = kde(centers[mask]).sum() * cell
    assert inside_mass < 1.0
    # over a box much wider than the data the full mass is recovered
    wide_x = np.linspace(-6, 10, 400)
    wide_y = np.linspace(-8, 8, 400)
    gx, gy = np.meshgrid(wide_x, wide_y, indexing="ij")
    wide = np.column_stack([gx.ravel(), gy.ravel()])
    wide_cell = (wide_x[1] - wide_x[0]) * (wide_y[1] - wide_y[0])
    assert kde(wide).sum() * wide_cell == pytest.approx(1.0, abs=1e-3)


def test_kde_peaks_at_data():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
    kde = KernelDensity(pts, np.eye(2) * 0.01)
    near = kde(np.array([[0.0, 0.0]]))[0]
    far = kde(np.array([[5 * 0.1, 5 * 0.1]]))[0]
    assert near >= far


def test_kde_singular_bandwidth():
    with pytest.raises(SingularBandwidth):
        KernelDensity(np.array([[0, 0], [1, 1]]), np.zeros((2, 2)))
    identical = np.tile([[0.3, 0.3]], (10, 1))
    with pytest.raises(SingularBandwidth):
        bandwidth_candidates(identical)
    with pytest.raises(SingularBandwidth):
        normal_reference_bandwidth(np.array([[0.1, 0.2]]))


def test_kde_names_a_malformed_points_or_bandwidth_shape():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match=re.escape("got (50, 3)")):
        normal_reference_bandwidth(rng.random((50, 3)))
    with pytest.raises(ValueError, match=re.escape("got (50, 3)")):
        KernelDensity(rng.random((50, 3)), np.eye(2) * 0.01)
    with pytest.raises(ValueError, match=re.escape("bandwidth must have shape (2, 2), got (3, 3)")):
        KernelDensity(rng.random((50, 2)), np.eye(3) * 0.01)
    kde = KernelDensity(rng.random((50, 2)), np.eye(2) * 0.01)
    with pytest.raises(ValueError, match=re.escape("got (5, 3)")):
        kde(rng.random((5, 3)))
    assert kde(np.empty((0, 2))).shape == (0,)


def test_bandwidth_grid_shape():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(50, 2))
    cands = bandwidth_candidates(pts)
    assert len(cands) == 27
    for h in cands:
        np.linalg.cholesky(h)


def per_candidate_kde_cv(points, domain, folds=10, seed=0):
    """Reference bandwidth CV: one full kernel matrix per candidate, fold
    sums by fancy indexing."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    assign = model_selection.fold_assignments(len(pts), folds, seed)
    quad_pts, quad_w = domain_nodes(domain, rule_9())
    best = None
    scores = []
    candidates = bandwidth_candidates(pts)
    for h in candidates:
        kde = KernelDensity(pts, h)
        kq = kde.kernel_matrix(quad_pts)    # (n_quad, n)
        kd = kde.kernel_matrix(pts)         # (n, n)
        kq_total = kq.sum(axis=1)
        kd_total = kd.sum(axis=1)
        err = 0.0
        for k in range(folds):
            test = assign == k
            n_train = int((~test).sum())
            f_quad = (kq_total - kq[:, test].sum(axis=1)) / n_train
            f_test = (kd_total[test] - kd[np.ix_(test, test)].sum(axis=1)) / n_train
            err += float(quad_w @ f_quad ** 2) - 2.0 * float(f_test.mean())
        err /= folds
        scores.append(err)
        if best is None or err < best[0]:
            best = (err, h)
    return best[1], {"scores": scores, "candidates": candidates}


@pytest.mark.parametrize("name, n, folds, seed", [
    ("sim1", 203, 10, 1),   # n not divisible by the fold count
    ("sim2", 120, 2, 2),
    ("sim3", 300, 5, 3),
    ("sim1", 10, 10, 4),    # n == folds
    ("sim3", 700, 10, 5),   # many quadrature row blocks, partial last block
    ("sim3", 700, 2, 6),    # each cross-fold tile split over row blocks
    ("sim2", 457, 7, 7),    # folds of unequal size
])
def test_select_kde_bandwidth_matches_per_candidate_oracle(name, n, folds, seed):
    scen = get_scenario(name)
    pts = sample(scen, n, seed)
    want_h, want = per_candidate_kde_cv(pts, scen.domain, folds=folds, seed=seed)
    got_h, got = select_kde_bandwidth(pts, scen.domain, folds=folds, seed=seed)
    assert np.array_equal(got_h, want_h)
    assert len(got["candidates"]) == len(want["candidates"]) == 27
    for a, b in zip(got["candidates"], want["candidates"]):
        assert np.array_equal(a, b)
    np.testing.assert_allclose(got["scores"], want["scores"], rtol=1e-12, atol=0)
    # the cases cover the tilings they are named for
    sizes = np.bincount(model_selection.fold_assignments(n, folds, seed))
    n_quad = len(domain_nodes(scen.domain, rule_9())[0])
    if (n, folds) == (700, 10):
        blocks = _row_blocks(n_quad, n)
        assert len(blocks) > 1 and n_quad % blocks[0].stop != 0
    if (n, folds) == (700, 2):
        assert len(_row_blocks(sizes[0], sizes[1])) > 1
    if (n, folds) == (457, 7):
        assert sizes.min() < sizes.max()


def test_kde_call_is_blocked_row_mean():
    scen = scenario_sim1()
    pts = sample(scen, 150, seed=8)
    kde = KernelDensity(pts, normal_reference_bandwidth(pts))
    evals = sample(scen, 1001, seed=9)
    blocks = _row_blocks(len(evals), len(pts))
    assert len(blocks) > 1 and len(evals) % blocks[0].stop != 0
    assert np.array_equal(kde(evals), kde.kernel_matrix(evals).mean(axis=1))
    # mise of the blocked evaluation equals mise of the full kernel matrix
    centers, mask, cell = _domain_grid(scen.domain, 100)
    est = kde.kernel_matrix(centers[mask]).mean(axis=1)
    full = float(np.sum((est - scen.density(centers[mask])) ** 2) * cell)
    assert mise(kde, scen, 100) == full


def test_select_kde_bandwidth_names_a_malformed_points_shape():
    domain = scenario_sim1().domain
    for points, shape in (([], "(0,)"), (np.empty((0, 2)), "(0, 2)"),
                          (np.full((5, 3), 0.5), "(5, 3)")):
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            select_kde_bandwidth(points, domain, folds=2)


def test_select_kde_bandwidth_deterministic():
    scen = scenario_sim1()
    pts = sample(scen, 150, seed=6)
    h1, info1 = select_kde_bandwidth(pts, scen.domain, folds=5, seed=6)
    h2, _ = select_kde_bandwidth(pts, scen.domain, folds=5, seed=6)
    assert np.array_equal(h1, h2)
    assert len(info1["scores"]) == 27


def test_run_benchmark_single_replication():
    res = run_benchmark("sim1", 80, 1, seed=3, folds=5, mise_resolution=60)
    assert [r.method for r in res] == ["bpst", "kde"]
    for r in res:
        assert len(r.per_replication) == 1
        assert r.sd == 0.0
        assert not r.sd_defined
        assert r.n_failed == 0
        assert np.isfinite(r.mean)


def test_run_benchmark_reproducible_across_threads(fold_pools, monkeypatch):
    """One usable CPU and four give the same results."""
    with monkeypatch.context() as one_cpu:
        usable_cpus(one_cpu, 1)
        a = run_benchmark("sim1", 60, 3, seed=10, folds=5, mise_resolution=60)
    assert fold_pools == []
    b = run_benchmark("sim1", 60, 3, seed=10, folds=5, mise_resolution=60)
    assert fold_pools == [4, 4, 4]  # one pool per replication's spline CV
    for ra, rb in zip(a, b):
        assert ra.per_replication == rb.per_replication
    for ea, eb in zip(a[0].estimates, b[0].estimates):
        assert np.array_equal(ea.theta, eb.theta)


def test_kde_benchmark_reproducible_across_threads(fold_pools, monkeypatch):
    """The KDE-only study starts no process pool on four usable CPUs with
    one BLAS thread, and matches the one-CPU run."""
    kw = dict(methods=("kde",), seed=11, folds=5, mise_resolution=60)
    with monkeypatch.context() as one_cpu:
        usable_cpus(one_cpu, 1)
        a = run_benchmark("sim2", 400, 3, **kw)
    b = run_benchmark("sim2", 400, 3, **kw)
    assert fold_pools == []
    assert a[0].n_failed == 0
    assert a[0].per_replication == b[0].per_replication


def test_run_benchmark_fails_a_replication_whose_mise_is_not_finite(monkeypatch):
    real = simbench.mise
    calls = []

    def mise_inf_for_replication_1(est, scenario, resolution):
        calls.append(est)
        return float("inf") if len(calls) == 2 else real(est, scenario, resolution)

    monkeypatch.setattr(simbench, "mise", mise_inf_for_replication_1)
    (kde,) = run_benchmark("sim2", 60, 3, methods=("kde",), seed=4, folds=5,
                           mise_resolution=50)
    assert kde.n_failed == 1
    assert kde.failures == [(1, "MISE is inf, not finite")]
    assert isinstance(kde.estimates[1], NonFiniteIntegrand)
    assert kde.estimates[0] is calls[0] and kde.estimates[2] is calls[2]
    assert len(kde.per_replication) == 2
    assert np.isfinite(kde.mean) and np.isfinite(kde.sd)


def test_run_benchmark_fails_the_replication_a_pinched_mesh_blows_up():
    """The horseshoe_112 files with two coincident vertex pairs (kept as
    they were bundled) leave the end cap joined to the arm at one vertex.
    On sample(sim2, 200, 4) one point lies in the cap, outside the convex
    hull of its quadrature nodes, so the fit runs off and the MISE is inf:
    the replication fails with that cause."""
    data = Path(__file__).parent / "data"
    tr = load_mesh(str(data / "horseshoe_112_coincident_vertices.csv"),
                   str(data / "horseshoe_112_coincident_triangles.csv"))
    scen = dataclasses.replace(get_scenario("sim2"), domain=tr)
    (bpst,) = run_benchmark(scen, 200, 1, seed=4, methods=("bpst",))
    assert bpst.n_failed == 1
    assert bpst.failures == [(0, "MISE is inf, not finite")]
    assert isinstance(bpst.estimates[0], NonFiniteIntegrand)
    assert bpst.per_replication == []


def test_run_benchmark_keeps_each_replications_fit(monkeypatch):
    from tridensity.estimator import DensityFit

    forced = SingularBandwidth("forced for replication 1")
    real = simbench.select_kde_bandwidth

    def select(points, domain, folds=10, seed=0):
        if seed == 7 ^ 1:
            raise forced
        return real(points, domain, folds=folds, seed=seed)

    monkeypatch.setattr(simbench, "select_kde_bandwidth", select)
    scen = scenario_sim1()
    bpst, kde = run_benchmark(scen, 60, 3, seed=7, folds=5, mise_resolution=60)
    assert len(bpst.estimates) == len(kde.estimates) == 3
    assert all(isinstance(est, DensityFit) for est in bpst.estimates)
    assert [type(est) for est in kde.estimates] == [KernelDensity, SingularBandwidth,
                                                     KernelDensity]
    assert kde.estimates[1] is forced
    assert kde.failures == [(1, "forced for replication 1")]
    # the scores are those of the kept fits
    for r in (bpst, kde):
        fits = [est for est in r.estimates if not isinstance(est, Exception)]
        assert r.per_replication == [mise(est, scen, 60) for est in fits]


def test_replication_estimators_types():
    scen = scenario_sim1()
    est = replication_estimators(scen, 60, 12, folds=5)
    assert hasattr(est["bpst"], "density")
    assert callable(est["kde"])


def _no_sample(*args, **kwargs):
    raise AssertionError("sampled")


@pytest.mark.parametrize("methods, message", [
    ((), "methods is empty"),
    (("foo",), "unknown method 'foo'"),
    (("kde", "kde"), "name a method twice"),
])
def test_replication_estimators_checks_methods_before_sampling(methods, message,
                                                               monkeypatch):
    monkeypatch.setattr(simbench, "sample", _no_sample)
    with pytest.raises(ValueError, match=re.escape(message)):
        replication_estimators(scenario_sim1(), 60, 12, methods=methods, folds=5)


def test_replication_estimators_rejects_space_of_other_mesh_or_spec(square2, monkeypatch):
    from tridensity import estimator
    from tridensity.bernstein import SplineSpec

    scen = scenario_sim1()
    monkeypatch.setattr(simbench, "sample", _no_sample)
    with pytest.raises(ValueError, match="different mesh"):
        replication_estimators(scen, 60, 12, folds=5,
                               space=estimator.ModelSpace(square2, SplineSpec(3, 1)))
    with pytest.raises(ValueError, match="built for"):
        replication_estimators(scen, 60, 12, spec=SplineSpec(2, 1), folds=5,
                               space=estimator.ModelSpace(scen.domain, SplineSpec(3, 1)))


def test_run_benchmark_rejects_zero_reps(monkeypatch):
    monkeypatch.setattr(simbench, "sample", _no_sample)
    with pytest.raises(ValueError, match="reps must be at least 1"):
        run_benchmark("sim1", 60, 0)


@pytest.mark.parametrize("kwargs", [{"n": 0}, {"folds": 1}, {"folds": 61},
                                    {"mise_resolution": 49},
                                    {"methods": ("bpst", "foo")},
                                    {"methods": ("bpst", "bpst")}, {"methods": ()},
                                    {"methods": ("foo",)}, {"methods": ("kde", "kde")}])
def test_run_benchmark_rejects_bad_input_before_fitting(kwargs, monkeypatch):
    from tridensity import estimator

    def fail(*args, **kwargs):
        raise AssertionError("sampled or built a space")

    monkeypatch.setattr(simbench, "sample", fail)
    monkeypatch.setattr(estimator.ModelSpace, "__init__", fail)
    args = {"n": 60, "folds": 5, "mise_resolution": 60, **kwargs}
    with pytest.raises(ValueError):
        run_benchmark("sim2", args.pop("n"), 1, **args)


def test_mise_rejects_coarse_grid():
    from tridensity.simbench import MIN_MISE_RESOLUTION

    assert MIN_MISE_RESOLUTION == 50
    with pytest.raises(ValueError, match="at least 50"):
        mise(lambda p: np.ones(len(p)), scenario_sim1(), 49)


def test_get_scenario_validation():
    assert get_scenario("sim2").name == "sim2"
    with pytest.raises(KeyError):
        get_scenario("sim9")
