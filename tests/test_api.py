import dataclasses
import inspect
import types

import tridensity
from tridensity import estimator, geometry, model_selection, simbench, spline_space


def test_exported_names_resolve_and_exclude_modules():
    for name in tridensity.__all__:
        assert not isinstance(getattr(tridensity, name), types.ModuleType), name
    assert len(set(tridensity.__all__)) == len(tridensity.__all__)
    for gone in ("GridIndex", "FoldFitFailed", "eval_density", "cv_error", "kde_baseline",
                 "roughness", "dump_coo", "ConstraintSystem", "build_constraints"):
        assert gone not in tridensity.__all__
        assert not hasattr(tridensity, gone)


def test_removed_helpers_and_options_stay_gone():
    mesh = geometry.Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    for module, name in ((mesh, "edge_adjacency"), (mesh, "barycentric"),
                         (estimator, "_hessian_upper"), (model_selection, "cv_error"),
                         (spline_space, "roughness"), (spline_space, "dump_coo"),
                         (spline_space, "ConstraintSystem"), (spline_space, "build_constraints"),
                         (spline_space, "_vertex_positions"), (spline_space, "_storage_index"),
                         (simbench, "kde_baseline")):
        assert not hasattr(module, name), name
    space = estimator.ModelSpace(mesh, estimator.FitConfig().spec)
    for gone in ("constraints", "penalty"):
        assert not hasattr(space, gone), gone
    assert [f.name for f in dataclasses.fields(estimator.FitConfig)] == ["spec", "lam"]
    assert [f.name for f in dataclasses.fields(simbench.SkewNormalComponent)] == [
        "xi", "omega", "alpha", "weight"]
    assert not hasattr(simbench.Scenario, "true_density")
    for fn, params in ((estimator.newton, ["work", "theta0"]),
                       (estimator.fit, ["tr", "points", "config", "space"]),
                       (estimator.hessian, ["theta", "work"]),
                       (model_selection.select_lambda,
                        ["tr", "points", "spec", "lambda_grid", "folds", "seed", "space",
                         "threads"]),
                       (spline_space.nullspace, ["h"]),
                       (simbench.horseshoe_function, ["points"]),
                       (simbench.bandwidth_candidates, ["points"])):
        assert list(inspect.signature(fn).parameters) == params, fn.__name__
