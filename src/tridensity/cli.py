"""Command line front end.

Subcommands: fit, density, cv, simulate, mesh-info. Structured reports are
JSON with a schema_version field and no NaN or Infinity (a value that is
not finite is null), point and grid data are CSV. Outputs are written
atomically (temp file plus rename) and are byte-identical for identical
inputs and seed, on any set of usable CPUs and at a fixed BLAS thread
count. The folds of a spline CV (fit --lambda-grid, cv, simulate) run in
min(folds, usable CPUs) forked worker processes; taskset limits the
usable CPUs. They run in one process unless the process runs one native
thread, which holds where BLAS was pinned to one thread before numpy and
scipy loaded it.

Exit codes: 0 success, 2 input validation, 3 fit did not converge
(artifacts are still written), every CV fold failed at every weight
(AllFoldsFailed; nothing is written), or a density grid is not finite
(the report and coefficients of fit are still written), 4 internal error.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

# Only what mesh-info needs is imported here; each command imports the
# modules that pull in scipy where it uses them.
from .assets import BUNDLED_MESHES, mesh_paths
from .errors import (AllFoldsFailed, DidNotConverge, MeshError, PointOutsideDomain,
                     TriDensityError, UnsupportedSmoothness)
from .geometry import cell_grid, load_mesh, load_points, mesh_quality

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_INTERNAL = 4


class ValidationError(TriDensityError):
    """Bad command line input or input files."""


class NonFiniteDensity(TriDensityError):
    """A density grid holds non-finite values inside the domain."""


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DidNotConverge, AllFoldsFailed, NonFiniteDensity) as exc:
        _error_json(type(exc).__name__, str(exc), EXIT_CONVERGENCE)
        return EXIT_CONVERGENCE
    except (ValidationError, MeshError, PointOutsideDomain, UnsupportedSmoothness,
            ValueError) as exc:
        _error_json(type(exc).__name__, str(exc), EXIT_VALIDATION)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 4
        _error_json(type(exc).__name__, str(exc), EXIT_INTERNAL)
        return EXIT_INTERNAL


def _error_json(kind, message, code):
    sys.stderr.write(json.dumps(
        {"error": kind, "message": message, "exit_code": code}, sort_keys=True
    ) + "\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tridensity",
        description="Density estimation on triangulated irregular domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a density to scattered points")
    _mesh_flags(p_fit)
    p_fit.add_argument("--data", required=True, help="CSV of points, header x,y")
    _spec_flags(p_fit)
    lam = p_fit.add_mutually_exclusive_group()
    lam.add_argument("--lambda", dest="lam", type=float,
                     help="fixed smoothing weight")
    lam.add_argument("--lambda-grid", dest="lambda_grid",
                     help="comma separated weights, or 'default'; selects by CV")
    p_fit.add_argument("--folds", type=int, default=10)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--grid", type=int, default=0,
                       help="also write a density grid CSV at this resolution")
    p_fit.add_argument("--drop-outside", action="store_true",
                       help="drop points outside the domain instead of failing")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.set_defaults(handler=cmd_fit)

    p_den = sub.add_parser("density", help="evaluate a saved fit on a grid")
    _mesh_flags(p_den)
    p_den.add_argument("--fit-dir", required=True,
                       help="directory holding fit_report.json and coefficients.csv")
    p_den.add_argument("--grid", type=int, default=100)
    p_den.add_argument("--out", required=True, help="output CSV path")
    p_den.set_defaults(handler=cmd_density)

    p_cv = sub.add_parser("cv", help="cross-validate the smoothing weight")
    _mesh_flags(p_cv)
    p_cv.add_argument("--data", required=True)
    _spec_flags(p_cv)
    p_cv.add_argument("--lambda-grid", dest="lambda_grid", default="default")
    p_cv.add_argument("--folds", type=int, default=10)
    p_cv.add_argument("--seed", type=int, default=0)
    p_cv.add_argument("--drop-outside", action="store_true")
    p_cv.add_argument("--out", required=True, help="output JSON path")
    p_cv.set_defaults(handler=cmd_cv)

    p_sim = sub.add_parser("simulate", help="run benchmark replications")
    p_sim.add_argument("--scenario", required=True,
                       help="benchmark scenario; an unknown name lists the valid ones")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--methods", default="bpst,kde",
                       help="comma separated, distinct methods from bpst,kde")
    _spec_flags(p_sim)
    p_sim.add_argument("--folds", type=int, default=10)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--grid", type=int, default=100,
                       help="error-integration grid resolution per axis")
    p_sim.add_argument("--emit-grids", action="store_true",
                       help="also write true/estimated density grids of replication 0")
    p_sim.add_argument("--out", required=True, help="output JSON path")
    p_sim.set_defaults(handler=cmd_simulate)

    p_info = sub.add_parser("mesh-info", help="audit a triangulation")
    _mesh_flags(p_info)
    p_info.add_argument("--out", help="optional JSON path; always prints to stdout")
    p_info.set_defaults(handler=cmd_mesh_info)

    return parser


def _mesh_flags(p):
    p.add_argument("--mesh-vertices", help="CSV of vertices, header x,y")
    p.add_argument("--mesh-triangles", help="CSV of triangles, header v1,v2,v3")
    p.add_argument("--bundled-mesh", choices=BUNDLED_MESHES,
                   help="use a bundled mesh instead of files")


def _spec_flags(p):
    p.add_argument("--m", type=int, default=3, help="polynomial degree")
    p.add_argument("--r", type=int, default=1, help="smoothness order")


def _load_mesh(args):
    if args.bundled_mesh:
        if args.mesh_vertices or args.mesh_triangles:
            raise ValidationError("--bundled-mesh conflicts with mesh file flags")
        return load_mesh(*mesh_paths(args.bundled_mesh))
    if not (args.mesh_vertices and args.mesh_triangles):
        raise ValidationError(
            "either --bundled-mesh or both --mesh-vertices and --mesh-triangles are required"
        )
    return load_mesh(args.mesh_vertices, args.mesh_triangles)


def _load_data(args, tr):
    pts = load_points(args.data)
    if len(pts) == 0:
        raise ValidationError(f"{args.data}: no data points")
    inside = tr.locate(pts) >= 0
    n_dropped = int((~inside).sum())
    if n_dropped and not args.drop_outside:
        outside = PointOutsideDomain(np.flatnonzero(~inside).tolist())
        raise ValidationError(
            f"{args.data}: {n_dropped} {outside}; use --drop-outside to ignore them")
    if n_dropped == len(pts):
        raise ValidationError("no data points remain inside the domain")
    return pts[inside], n_dropped


def _parse_lambda_grid(text):
    if text == "default":
        from .model_selection import DEFAULT_LAMBDA_GRID

        return list(DEFAULT_LAMBDA_GRID)
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad --lambda-grid value: {exc}") from exc
    if not grid:
        raise ValidationError("--lambda-grid is empty")
    return grid


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(path, obj):
    _write_atomic(path, _json_text(obj))


def _finite_or_null(value):
    """value, or None (JSON null) when it is not finite: a CV grid cell
    where every fold failed, or the mean MISE of no replication."""
    return value if np.isfinite(value) else None


def _cv_fields(report):
    """The fields of a CvReport that fit and cv both write."""
    return {
        "lambda_grid": report.lambda_grid,
        "cv_errors": [_finite_or_null(e) for e in report.cv_errors],
        "best_lambda": report.best_lambda,
        "folds": report.folds,
        "seed": report.seed,
    }


def _grid_csv(tr, resolution, density):
    """Density grid CSV text: cell centers of the bounding box, row-major in
    x then y, with density(centers) in the domain; out-of-domain cells
    carry density 0 and in_domain 0. Raises NonFiniteDensity, naming how
    many, if an in-domain cell is not finite."""
    pts, inside, _ = cell_grid(tr, resolution)
    values = np.asarray(density(pts), dtype=float)
    n_bad = int(np.count_nonzero(~np.isfinite(values[inside])))
    if n_bad:
        raise NonFiniteDensity(
            f"{n_bad} of {int(inside.sum())} in-domain cells of the {resolution}x{resolution} "
            f"density grid are not finite"
        )
    columns = (pts[:, 0].tolist(), pts[:, 1].tolist(),
               np.where(inside, values, 0.0).tolist(), inside.astype(int).tolist())
    lines = ["x,y,density,in_domain"]
    lines.extend(f"{x!r},{y!r},{v!r},{flag}" for x, y, v, flag in zip(*columns))
    return "\n".join(lines) + "\n"


def _mesh_summary(tr):
    """What density checks a mesh against: the sha256 over the vertex and
    triangle arrays tells a relabelled copy of the fit's mesh apart."""
    q = mesh_quality(tr)
    digest = hashlib.sha256(np.ascontiguousarray(tr.vertices, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(tr.triangles, dtype=np.int64).tobytes())
    return {
        "N": tr.n_triangles,
        "mesh_size": q.mesh_size,
        "beta_ratio": q.beta_ratio,
        "sha256": digest.hexdigest(),
    }


def cmd_fit(args):
    from . import estimator, model_selection
    from .bernstein import SplineSpec

    if args.grid < 0:
        raise ValidationError("--grid must be nonnegative (0 writes no grid)")
    tr = _load_mesh(args)
    spec = SplineSpec(args.m, args.r)
    pts, n_dropped = _load_data(args, tr)

    if args.lam is None and args.lambda_grid is None:
        raise ValidationError("one of --lambda or --lambda-grid is required")
    # every weight and the folds of a CV are checked before the space (an
    # SVD) is built
    if args.lambda_grid is None:
        config = estimator.FitConfig(spec=spec, lam=args.lam)
    else:
        grid = model_selection.check_lambda_grid(_parse_lambda_grid(args.lambda_grid))
        model_selection.fold_assignments(len(pts), args.folds, args.seed)

    space = estimator.ModelSpace(tr, spec)
    if args.lambda_grid is not None:
        report = model_selection.select_lambda(
            tr, pts, spec, grid, folds=args.folds, seed=args.seed, space=space,
        )
        config = estimator.FitConfig(spec=spec, lam=report.best_lambda)

    failure = None
    try:
        f = estimator.fit(tr, pts, config, space=space)
    except DidNotConverge as exc:
        f = exc.fit
        failure = exc

    report_obj = {
        "schema_version": SCHEMA_VERSION,
        "lambda": f.lam,
        "iterations": f.iterations,
        "converged": f.converged,
        "final_objective": f.objective_trace[-1],
        "integral_of_density": float(np.exp(f.log_norm_const)),
        "mesh": _mesh_summary(tr),
        "spec": {"m": spec.degree, "r": spec.smoothness},
        "n_points": int(len(pts)),
        "n_dropped": n_dropped,
        "quadrature": {
            "nodes": int(len(space.rule.weights)),
            "exactness": int(space.rule.exactness),
            "family": "symmetric-three-orbit",
        },
    }
    if args.lambda_grid is not None:
        report_obj["cv"] = _cv_fields(report)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "fit_report.json"), report_obj)
    _write_atomic(os.path.join(args.out, "coefficients.csv"),
                  _coefficients_csv(tr, spec, f.gamma))
    if args.grid:
        _write_atomic(os.path.join(args.out, "density_grid.csv"),
                      _grid_csv(tr, args.grid, lambda pts: f.density(pts)[0]))
    if failure is not None:
        raise failure
    return EXIT_OK


def _coefficients_csv(tr, spec, gamma):
    from .bernstein import index_set

    lines = ["triangle,i,j,k,value"]
    dim = spec.per_triangle_dim
    triples = index_set(spec.degree)
    for t in range(tr.n_triangles):
        for pos, (i, j, k) in enumerate(triples):
            lines.append(f"{t},{i},{j},{k},{float(gamma[t * dim + pos])!r}")
    return "\n".join(lines) + "\n"


def _read_coefficients(path, tr, spec):
    from .bernstein import index_set

    order = index_set(spec.degree)
    triples = {ijk: pos for pos, ijk in enumerate(order)}
    dim = spec.per_triangle_dim
    gamma = np.empty(spec.dimension(tr))
    line_of = np.zeros(len(gamma), dtype=np.int64)  # 0 until the coefficient is read
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "triangle,i,j,k,value":
            raise ValidationError(f"{path}: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            try:
                t, i, j, k, v = line.strip().split(",")
                t = int(t)
                if not 0 <= t < tr.n_triangles:
                    raise ValueError(f"triangle index {t} out of range")
                pos = t * dim + triples[(int(i), int(j), int(k))]
                if line_of[pos]:
                    raise ValueError(f"repeats the coefficient of line {line_of[pos]}")
                gamma[pos] = float(v)
                if not np.isfinite(gamma[pos]):
                    raise ValueError(f"value {v!r} is not finite")
                line_of[pos] = lineno
            except (ValueError, KeyError, IndexError) as exc:
                raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
    missing = np.flatnonzero(line_of == 0)
    if missing.size:
        t, pos = divmod(int(missing[0]), dim)
        i, j, k = order[pos]
        raise ValidationError(
            f"{path}: incomplete coefficient table: {missing.size} missing, first "
            f"triangle {t}, (i, j, k) = ({i}, {j}, {k})"
        )
    return gamma


def cmd_density(args):
    from . import estimator
    from .bernstein import SplineSpec

    tr = _load_mesh(args)
    report_path = os.path.join(args.fit_dir, "fit_report.json")
    coeff_path = os.path.join(args.fit_dir, "coefficients.csv")
    for p in (report_path, coeff_path):
        if not os.path.exists(p):
            raise ValidationError(f"missing fit artifact {p}")
    with open(report_path) as fh:
        report = json.load(fh)
    if not isinstance(report, dict):
        raise ValidationError(f"{report_path} does not hold a JSON object")
    if report.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"{report_path} has schema_version {report.get('schema_version')!r}, not "
            f"{SCHEMA_VERSION}; refit to write a report this version can check"
        )
    mesh = _mesh_summary(tr)  # JSON floats round-trip, so the fit's mesh compares equal
    if mesh != report.get("mesh"):
        raise ValidationError(f"mesh {mesh} is not the fit's, {report.get('mesh')}")
    spec_entry = report.get("spec")
    if not isinstance(spec_entry, dict):
        spec_entry = {}
    for key in ("m", "r"):
        if type(spec_entry.get(key)) is not int:
            raise ValidationError(f"{report_path}: key spec.{key} is missing or not an integer")
    spec = SplineSpec(spec_entry["m"], spec_entry["r"])
    gamma = _read_coefficients(coeff_path, tr, spec)
    if args.grid < 1:
        raise ValidationError("--grid must be at least 1")
    fn = lambda pts: estimator.density_from_gamma(tr, spec, gamma, pts)[0]
    _write_atomic(args.out, _grid_csv(tr, args.grid, fn))
    return EXIT_OK


def cmd_cv(args):
    from . import model_selection
    from .bernstein import SplineSpec

    tr = _load_mesh(args)
    spec = SplineSpec(args.m, args.r)
    pts, n_dropped = _load_data(args, tr)
    report = model_selection.select_lambda(
        tr, pts, spec, _parse_lambda_grid(args.lambda_grid),
        folds=args.folds, seed=args.seed,
    )
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION,
        **_cv_fields(report),
        "fold_assignments": report.fold_assignments.tolist(),
        "failed_folds": report.failed_folds,
        "n_points": int(len(pts)),
        "n_dropped": n_dropped,
        "spec": {"m": spec.degree, "r": spec.smoothness},
    })
    return EXIT_OK


def cmd_simulate(args):
    from . import simbench
    from .bernstein import SplineSpec

    if args.scenario not in simbench.SCENARIOS:
        names = ", ".join(sorted(simbench.SCENARIOS))
        raise ValidationError(f"unknown scenario {args.scenario!r}; choose from {names}")
    methods = simbench.check_methods(tok for tok in args.methods.split(",") if tok)
    spec = SplineSpec(args.m, args.r)
    results = simbench.run_benchmark(
        args.scenario, args.n, args.reps, methods=methods, seed=args.seed,
        spec=spec, folds=args.folds, mise_resolution=args.grid,
    )
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION,
        "scenario": args.scenario,
        "n": args.n,
        "reps": args.reps,
        "seed": args.seed,
        "grid": args.grid,
        "spec": {"m": spec.degree, "r": spec.smoothness},
        "results": [
            {
                "method": r.method,
                "mean_mise": _finite_or_null(r.mean),
                "sd_mise": r.sd,
                "sd_defined": r.sd_defined,
                "n_failed": r.n_failed,
                "per_replication": r.per_replication,
                "failures": [{"replication": i, "message": msg} for i, msg in r.failures],
            }
            for r in results
        ],
    })

    stem = os.path.splitext(args.out)[0]
    lines = ["replication,method,mise,status"]
    for r in results:
        scores = iter(r.per_replication)  # one per estimate that is not an exception
        for rep, est in enumerate(r.estimates):
            cell = ",failed" if isinstance(est, Exception) else f"{next(scores)!r},ok"
            lines.append(f"{rep},{r.method},{cell}")
    _write_atomic(stem + "_replications.csv", "\n".join(lines) + "\n")

    if args.emit_grids:
        scenario = simbench.get_scenario(args.scenario)
        tr = scenario.domain
        _write_atomic(stem + "_true_density.csv", _grid_csv(tr, args.grid, scenario.density))
        for r in results:  # replication 0 of the run above
            est = r.estimates[0]
            if isinstance(est, Exception):
                continue
            fn = (lambda pts: est.density(pts)[0]) if hasattr(est, "density") else est
            _write_atomic(f"{stem}_{r.method}_density.csv", _grid_csv(tr, args.grid, fn))
    return EXIT_OK


def cmd_mesh_info(args):
    tr = _load_mesh(args)
    q = mesh_quality(tr)
    obj = {
        "schema_version": SCHEMA_VERSION,
        "N": tr.n_triangles,
        "n_vertices": tr.n_vertices,
        "area": tr.area,
        "mesh_size": q.mesh_size,
        "min_inradius": q.min_inradius,
        "beta_ratio": q.beta_ratio,
        "min_angle_deg": q.min_angle_deg,
    }
    text = _json_text(obj)
    sys.stdout.write(text)
    if args.out:
        _write_atomic(args.out, text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
