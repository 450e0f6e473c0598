"""Timing wrappers around the package's public calls, and the per-layer
metrics computed from the spans they record.

Every wrapper is installed where callers look the name up: a module global
that another module calls by bare name, a module attribute called as
``module.name``, or a class attribute. A name that a later version of the
package no longer has is skipped, and its metrics then read 0.
"""

import numpy as np

from spans import self_times

# Span name -> per-layer metric reporting its self time.
SELF_TIME = {
    "geometry.load_mesh": "geometry.load_mesh_s",
    "geometry.locate": "geometry.locate_s",
    "bernstein.evaluation_matrix": "bernstein.evaluation_matrix_s",
    "spline_space.smoothness_matrix": "spline_space.smoothness_matrix_s",
    "spline_space.nullspace": "spline_space.nullspace_s",
    "spline_space.penalty_matrix": "spline_space.penalty_matrix_s",
    "estimator.model_space": "estimator.model_space_self_s",
    "estimator.fit": "estimator.fit_self_s",
    "estimator.hessian": "estimator.hessian_s",
    "estimator.gradient": "estimator.gradient_s",
    "estimator.objective": "estimator.objective_s",
    "estimator.workspace": "estimator.workspace_s",
    "estimator.seed": "estimator.seed_s",
    "estimator.density": "estimator.density_s",
    "model_selection.select_lambda": "model_selection.self_s",
    "simbench.scenario": "simbench.scenario_s",
    "simbench.sample": "simbench.sample_s",
    "simbench.kde_cv": "simbench.kde_cv_s",
    "simbench.kernel_matrix": "simbench.kernel_matrix_s",
    "simbench.mise": "simbench.mise_s",
    "cli.fit": "cli.fit_s",
    "cli.density": "cli.density_s",
    "cli.mesh_info": "cli.mesh_info_s",
}

# Counters summed over calls; cli.import_s and cli.bytes_written are added
# by the CLI workload itself.
SUMMED = (
    "geometry.locate_points",
    "bernstein.evaluation_rows",
    "estimator.fit_calls",
    "estimator.newton_iters",
    "estimator.objective_calls",
    "estimator.fit_failed",
    "model_selection.failed_folds",
    "simbench.kernel_entries",
    "cli.import_s",
    "cli.bytes_written",
)

# Largest value seen, not a sum.
PEAKS = ("spline_space.n_free", "spline_space.constraint_rows")

# Metric name -> unit, in report order.
UNITS = {name: "s" for name in SELF_TIME.values()}
UNITS.update({name: "count" for name in SUMMED + PEAKS})
UNITS.update({
    "cli.import_s": "s",
    "cli.bytes_written": "B",
    "model_selection.select_lambda_s": "s",
    "estimator.step_accept_ratio": "ratio",
    "model_selection.fits_per_call": "count",
    "model_selection.lambda_at_edge": "ratio",
    "trace.op_s_p50": "s",
    "trace.untraced_op_s_p50": "s",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.unattributed_s": "s",
})


def _points(position, name, counter):
    """Count hook: rows of the points argument, given by position or name."""
    def count(args, kwargs, result, exc):
        points = args[position] if len(args) > position else kwargs[name]
        return {counter: len(np.atleast_2d(np.asarray(points)))}
    return count


def _fit_counts(args, kwargs, result, exc):
    fit = result if exc is None else getattr(exc, "fit", None)
    out = {"estimator.fit_calls": 1, "estimator.fit_failed": int(exc is not None)}
    if fit is not None:
        out["estimator.newton_iters"] = fit.iterations
        out["estimator.newton_steps"] = len(fit.objective_trace) - 1
    return out


def _cv_counts(args, kwargs, result, exc):
    out = {"model_selection.calls": 1}
    if result is not None:
        grid = result.lambda_grid
        out["model_selection.failed_folds"] = sum(len(f) for f in result.failed_folds)
        out["model_selection.at_edge"] = int(result.best_lambda in (min(grid), max(grid)))
    return out


def install(tracer):
    """Wrap every traced call of the package; returns the names skipped."""
    from tridensity import (assets, bernstein, cli, estimator, geometry,
                            model_selection, simbench, spline_space)

    skipped = []

    def wrap(owner, attr, name, count=None, peak=None):
        if hasattr(owner, attr):
            tracer.wrap(owner, attr, name, count, peak)
        else:
            skipped.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    for module in (geometry, assets, cli):
        wrap(module, "load_mesh", "geometry.load_mesh")
    wrap(geometry.Triangulation, "locate", "geometry.locate",
         _points(1, "points", "geometry.locate_points"))

    for module in (bernstein, estimator):
        wrap(module, "evaluation_matrix", "bernstein.evaluation_matrix",
             _points(2, "points", "bernstein.evaluation_rows"))

    wrap(spline_space, "smoothness_matrix", "spline_space.smoothness_matrix",
         peak=lambda a, k, r, e: {"spline_space.constraint_rows": r.shape[0]} if e is None else {})
    wrap(spline_space, "nullspace", "spline_space.nullspace")
    for module in (spline_space, estimator):
        wrap(module, "penalty_matrix", "spline_space.penalty_matrix")

    wrap(estimator.ModelSpace, "__init__", "estimator.model_space",
         peak=lambda a, k, r, e: {"spline_space.n_free": a[0].n_free} if e is None else {})
    wrap(estimator, "fit", "estimator.fit", _fit_counts)
    wrap(estimator, "objective", "estimator.objective",
         lambda a, k, r, e: {"estimator.objective_calls": 1})
    wrap(estimator, "gradient", "estimator.gradient")
    wrap(estimator, "hessian", "estimator.hessian")
    wrap(estimator, "make_workspace", "estimator.workspace")
    wrap(estimator.ModelSpace, "data_basis", "estimator.workspace")
    for attr in ("initial_histogram", "initial_lss", "init_theta"):
        wrap(estimator, attr, "estimator.seed")
    wrap(estimator, "density_from_gamma", "estimator.density")

    wrap(model_selection, "select_lambda", "model_selection.select_lambda", _cv_counts)

    wrap(simbench, "get_scenario", "simbench.scenario")
    wrap(simbench, "sample", "simbench.sample")
    wrap(simbench, "select_kde_bandwidth", "simbench.kde_cv")
    wrap(simbench.KernelDensity, "kernel_matrix", "simbench.kernel_matrix",
         lambda a, k, r, e: {"simbench.kernel_entries": r.size} if e is None else {})
    wrap(simbench, "mise", "simbench.mise")

    wrap(cli, "cmd_fit", "cli.fit")
    wrap(cli, "cmd_density", "cli.density")
    wrap(cli, "cmd_mesh_info", "cli.mesh_info")
    return skipped


def phase_totals(tracer):
    """Layer self times and counters of one phase (set-up or operations),
    summed over the phase. Root spans are the benchmark's own and are not
    attributed to any layer."""
    selfs = self_times(tracer.spans)
    out = {name: 0.0 for name in UNITS}
    fits_in_cv = 0
    by_id = {s[0]: s for s in tracer.spans}
    for sid, name, start, end, parent in tracer.spans:
        if parent is None:
            continue
        metric = SELF_TIME.get(name)
        if metric is not None:
            out[metric] += selfs[sid]
        if name == "model_selection.select_lambda":
            out["model_selection.select_lambda_s"] += end - start
        if name == "estimator.fit" and by_id[parent][1] == "model_selection.select_lambda":
            fits_in_cv += 1
    for key in SUMMED:
        out[key] = float(tracer.counts.get(key, 0.0))
    for key in PEAKS:
        out[key] = float(tracer.peaks.get(key, 0.0))
    out["_newton_steps"] = float(tracer.counts.get("estimator.newton_steps", 0.0))
    out["_cv_calls"] = float(tracer.counts.get("model_selection.calls", 0.0))
    out["_cv_at_edge"] = float(tracer.counts.get("model_selection.at_edge", 0.0))
    out["_fits_in_cv"] = float(fits_in_cv)
    out["_self_sum"] = sum(v for sid, v in selfs.items() if by_id[sid][4] is not None)
    out["_roots_wall"] = sum(s[3] - s[2] for s in tracer.spans if s[4] is None)
    return out


def layer_metrics(setup, ops, n_ops, traced_p50, untraced_p50):
    """Per-layer metrics: the set-up's share plus one operation's share.

    setup and ops are phase_totals of the traced set-up and operations.
    """
    per = {k: setup[k] + ops[k] / n_ops for k in setup}
    out = {name: per[name] for name in UNITS if not name.startswith("trace.")}
    for key in PEAKS:
        out[key] = max(setup[key], ops[key])
    trials = per["estimator.objective_calls"] - per["estimator.fit_calls"]
    out["estimator.step_accept_ratio"] = per["_newton_steps"] / trials if trials > 0 else 0.0
    cv_calls = setup["_cv_calls"] + ops["_cv_calls"]
    out["model_selection.fits_per_call"] = (
        (setup["_fits_in_cv"] + ops["_fits_in_cv"]) / cv_calls if cv_calls else 0.0)
    out["model_selection.lambda_at_edge"] = (
        (setup["_cv_at_edge"] + ops["_cv_at_edge"]) / cv_calls if cv_calls else 0.0)
    out["trace.op_s_p50"] = traced_p50
    out["trace.untraced_op_s_p50"] = untraced_p50
    out["trace.overhead_s"] = traced_p50 - untraced_p50
    out["trace.wall_s"] = per["_roots_wall"]
    out["trace.self_sum_s"] = per["_self_sum"]
    out["trace.unattributed_s"] = out["trace.wall_s"] - out["trace.self_sum_s"]
    return {name: (out[name], UNITS[name]) for name in UNITS}
