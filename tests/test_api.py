import argparse
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
import types

import tridensity
from tridensity import (bernstein, cli, errors, estimator, geometry, model_selection,
                        quadrature, simbench, spline_space)


def test_exported_names_resolve_and_exclude_modules():
    for name in tridensity.__all__:
        assert not isinstance(getattr(tridensity, name), types.ModuleType), name
    assert len(set(tridensity.__all__)) == len(tridensity.__all__)
    for gone in ("GridIndex", "FoldFitFailed", "eval_density", "cv_error", "kde_baseline",
                 "roughness", "dump_coo", "ConstraintSystem", "build_constraints",
                 "initial_histogram", "initial_lss", "InitialDensity", "vertex_neighborhood",
                 "EnvelopeViolated", "integrate_triangle", "fold_error", "EvalMatrix",
                 "interpolate_function", "domain_points", "rule_12", "make_workspace",
                 "integrate_domain", "triangle_coords", "objective", "gradient", "hessian",
                 "init_theta", "scenario_sim1", "scenario_sim2", "scenario_sim3"):
        assert gone not in tridensity.__all__
        assert not hasattr(tridensity, gone)


def test_exported_names_are_their_modules_objects():
    assert len(tridensity.__all__) == 44
    for name in tridensity.__all__:
        module = importlib.import_module(f"tridensity.{tridensity._ORIGIN[name]}")
        assert getattr(tridensity, name) is getattr(module, name), name


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs in a fresh interpreter: after the package import and after a mesh-info
# run, no scipy module may be loaded; names still resolve lazily.
LAZY_PROBE = """
import json, runpy, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import tridensity, tridensity.cli
listed = set(tridensity.__all__) <= set(dir(tridensity))  # before any name resolves
after_import = scipy_modules()
sys.argv = ["tridensity", "mesh-info", "--bundled-mesh", "square_unit_32"]
try:
    runpy.run_module("tridensity.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
after_mesh_info = scipy_modules()
fit = tridensity.estimator.fit
print(json.dumps([listed, after_import, code, after_mesh_info, fit is tridensity.fit,
                  hasattr(tridensity, "no_such_name")]))
"""


def test_import_and_mesh_info_load_no_scipy(tmp_path):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), check=True)
    listed, after_import, code, after_mesh_info, same_fit, unknown = json.loads(
        proc.stdout.splitlines()[-1])
    assert listed
    assert after_import == []
    assert code == 0
    assert after_mesh_info == []
    assert same_fit and not unknown


def test_removed_helpers_and_options_stay_gone():
    mesh = geometry.Triangulation([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    for module, name in ((mesh, "edge_adjacency"), (mesh, "barycentric"),
                         (estimator, "_hessian_upper"), (model_selection, "cv_error"),
                         (spline_space, "roughness"), (spline_space, "dump_coo"),
                         (spline_space, "ConstraintSystem"), (spline_space, "build_constraints"),
                         (spline_space, "_vertex_positions"), (spline_space, "_storage_index"),
                         (simbench, "kde_baseline"), (estimator, "initial_histogram"),
                         (estimator, "initial_lss"), (estimator, "InitialDensity"),
                         (geometry, "vertex_neighborhood"), (mesh, "_vertex_to_triangles"),
                         (errors, "EnvelopeViolated"), (simbench, "EnvelopeViolated"),
                         (model_selection, "fold_error"), (quadrature, "integrate_triangle"),
                         (quadrature.QuadRule, "cartesian_nodes"),
                         (estimator.ModelSpace, "integral_exp"), (bernstein, "EvalMatrix"),
                         (bernstein, "interpolate_function"), (bernstein, "domain_points"),
                         (bernstein, "_collocation_solver"), (quadrature, "rule_12"),
                         (quadrature, "_orbit6"), (estimator, "make_workspace"),
                         (model_selection, "_check_threads"),
                         (simbench, "_normalize_over_domain"), (quadrature, "integrate_domain"),
                         (mesh, "triangle_coords"), (mesh, "_corners"), (mesh, "_v3"),
                         (spline_space._edge_template, "cache_info"), (estimator, "STEP_TOL")):
        assert not hasattr(module, name), name
    assert list(inspect.signature(errors.PointOutsideDomain).parameters) == ["indices"]
    for fn in (simbench.replication_estimators, simbench.run_benchmark):
        assert inspect.signature(fn).parameters["spec"].default == bernstein.SplineSpec(3, 1)
    space = estimator.ModelSpace(mesh, estimator.FitConfig().spec)
    for gone in ("constraints", "penalty", "quad_points"):
        assert not hasattr(space, gone), gone
    assert [f.name for f in dataclasses.fields(estimator.FitConfig)] == ["spec", "lam"]
    assert [f.name for f in dataclasses.fields(simbench.SkewNormalComponent)] == [
        "xi", "omega", "alpha", "weight"]
    assert not hasattr(simbench.Scenario, "true_density")
    assert not hasattr(simbench.Scenario, "bbox")
    assert [f.name for f in dataclasses.fields(simbench.Scenario)] == [
        "name", "domain", "density", "density_max", "components"]
    assert [f.name for f in dataclasses.fields(simbench.MiseResult)] == [
        "method", "per_replication", "mean", "sd", "sd_defined", "n_failed", "failures",
        "estimates"]
    for fn, params in ((estimator.newton, ["work", "theta0"]),
                       (estimator.fit, ["tr", "points", "config", "space"]),
                       (estimator.hessian, ["theta", "work"]),
                       (estimator.seed_theta, ["space", "triangle_index"]),
                       (estimator.init_theta, ["space", "values"]),
                       (estimator.density_from_gamma, ["tr", "spec", "gamma", "points"]),
                       (model_selection.select_lambda,
                        ["tr", "points", "spec", "lambda_grid", "folds", "seed", "space"]),
                       (simbench.replication_estimators,
                        ["scenario", "n", "rep_seed", "methods", "spec", "lambda_grid", "folds",
                         "space"]),
                       (simbench.run_benchmark,
                        ["scenario", "n", "reps", "methods", "seed", "spec", "folds",
                         "mise_resolution"]),
                       (bernstein.evaluation_matrix, ["tr", "spec", "points"]),
                       (spline_space.nullspace, ["h"]),
                       (simbench.horseshoe_function, ["points"]),
                       (simbench.bandwidth_candidates, ["points"])):
        assert list(inspect.signature(fn).parameters) == params, fn.__name__
    mesh_flags = ["--mesh-vertices", "--mesh-triangles", "--bundled-mesh"]
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
            for name, p in sub.choices.items()} == {
        "fit": [*mesh_flags, "--data", "--m", "--r", "--lambda", "--lambda-grid", "--folds",
                "--seed", "--grid", "--drop-outside", "--out"],
        "density": [*mesh_flags, "--fit-dir", "--grid", "--out"],
        "cv": [*mesh_flags, "--data", "--m", "--r", "--lambda-grid", "--folds", "--seed",
               "--drop-outside", "--out"],
        "simulate": ["--scenario", "--n", "--reps", "--methods", "--m", "--r", "--folds",
                     "--seed", "--grid", "--emit-grids", "--out"],
        "mesh-info": [*mesh_flags, "--out"],
    }


def test_source_has_no_unused_import_or_unreferenced_private_name():
    """Every name a module of src/tridensity imports is read in that module,
    and every module-level private name is read somewhere in src/: a name
    only ever bound is dead code."""
    import ast
    import glob

    trees = {path: ast.parse(open(path).read())
             for path in sorted(glob.glob(os.path.join(SRC, "tridensity", "*.py")))}

    def reads(tree):
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        return names

    read_anywhere = set().union(*map(reads, trees.values()))
    dead = []
    for path, tree in trees.items():
        module = os.path.basename(path)
        read_here = {node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read_here:
                        dead.append(f"{module}: import {bound}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{module}: {name}" for name in bound if name.startswith("_")
                     and not name.startswith("__") and name not in read_anywhere]
    assert dead == []
