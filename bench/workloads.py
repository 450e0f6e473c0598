"""The benchmark's workloads: set-up, one operation, and its output checks.

Each workload is a closed loop over a fixed list of operations whose inputs
come from the seed. cv_horseshoe and fine_mesh_cli draw their points with
the benchmark's own sampler and point-in-mesh test, so a change to the
package's sampler or point location cannot change the inputs. sim3_kde runs
one replication of the package's comparison study, which samples from the
replication seed the benchmark derives.

An operation's fingerprint is a flat dict of numbers. On the reference seed
it is compared with the stored one (see compare); on every seed it must
also satisfy the invariants each workload states.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

# Relative tolerance per fingerprint key; absolute floor ATOL. lambda is the
# CV choice, a grid value, so it must agree to rounding. The other values
# are sums over many floating-point terms and may move in the last digits
# when BLAS kernels or summation order change.
RTOL = {"lambda": 1e-12}
DEFAULT_RTOL = 1e-6
ATOL = 1e-12

# |integral of the density - 1| allowed on the evaluation grid (a midpoint
# rule over the in-domain cells, so boundary cells bias it slightly).
INTEGRAL_TOL = 0.02


def compare(fp, ref):
    """First mismatch between a fingerprint and its reference, or None."""
    for key, want in ref.items():
        got = fp.get(key)
        if got is None:
            return f"{key}: missing"
        got_a = np.atleast_1d(np.asarray(got, dtype=float))
        want_a = np.atleast_1d(np.asarray(want, dtype=float))
        if got_a.shape != want_a.shape:
            return f"{key}: shape {got_a.shape} != reference {want_a.shape}"
        rtol = RTOL.get(key, DEFAULT_RTOL)
        bad = np.abs(got_a - want_a) > rtol * np.maximum(np.abs(got_a), np.abs(want_a)) + ATOL
        if bad.any():
            j = int(np.argmax(bad))
            return f"{key}[{j}]: {float(got_a[j])!r} != reference {float(want_a[j])!r} (rtol {rtol:g})"
    return None


def common_invariants(fp):
    problems = []
    if not fp["converged"]:
        problems.append("final fit did not converge")
    if not any(abs(fp["lambda"] - g) <= 1e-12 * g for g in fp["lambda_grid"]):
        problems.append(f"lambda {fp['lambda']!r} is not in the grid")
    if abs(fp["integral"] - 1.0) > INTEGRAL_TOL:
        problems.append(f"density integrates to {fp['integral']!r}")
    for key in ("mise_bpst", "mise_kde"):
        if not (np.isfinite(fp[key]) and fp[key] > 0):
            problems.append(f"{key} = {fp[key]!r}")
    return problems


# ---------------------------------------------------------------- inputs

def read_mesh(vertices_csv, triangles_csv):
    verts = np.loadtxt(vertices_csv, delimiter=",", skiprows=1, ndmin=2)
    tris = np.loadtxt(triangles_csv, delimiter=",", skiprows=1, ndmin=2, dtype=np.int64)
    return verts, tris


def bbox_of(verts):
    return (verts[:, 0].min(), verts[:, 0].max(), verts[:, 1].min(), verts[:, 1].max())


def inside_mesh(verts, tris, pts, tol=1e-10):
    """Points covered by some triangle, by barycentric coordinates."""
    hit = np.zeros(len(pts), dtype=bool)
    for (ax, ay), (bx, by), (cx, cy) in verts[tris]:
        det = (ax - cx) * (by - cy) - (bx - cx) * (ay - cy)
        rx, ry = pts[:, 0] - cx, pts[:, 1] - cy
        l1 = ((by - cy) * rx - (bx - cx) * ry) / det
        l2 = ((ax - cx) * ry - (ay - cy) * rx) / det
        hit |= (l1 >= -tol) & (l2 >= -tol) & (1.0 - l1 - l2 >= -tol)
    return hit


def cell_grid(bbox, res):
    """Cell centres of a res x res grid over bbox, x-major, and cell area."""
    xmin, xmax, ymin, ymax = bbox
    dx, dy = (xmax - xmin) / res, (ymax - ymin) / res
    gx, gy = np.meshgrid(xmin + dx * (np.arange(res) + 0.5),
                         ymin + dy * (np.arange(res) + 0.5), indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()]), dx * dy


class Bumps:
    """Unnormalised truth: 1 plus Gaussian bumps (amplitude, x, y, sd)."""

    def __init__(self, bumps):
        self.bumps = bumps
        self.envelope = 1.0 + sum(b[0] for b in bumps)

    def __call__(self, pts):
        out = np.ones(len(pts))
        for amp, x, y, sd in self.bumps:
            out += amp * np.exp(-((pts[:, 0] - x) ** 2 + (pts[:, 1] - y) ** 2) / (2 * sd * sd))
        return out


class Truth:
    """A Bumps density restricted to a mesh, normalised on a fine grid."""

    def __init__(self, bumps, verts, tris):
        self.raw = bumps
        self.verts, self.tris = verts, tris
        self.bbox = bbox_of(verts)
        centres, cell = cell_grid(self.bbox, 400)
        inside = inside_mesh(verts, tris, centres)
        self.norm = float(bumps(centres[inside]).sum() * cell)

    def __call__(self, pts):
        return self.raw(pts) / self.norm

    def sample(self, rng, n):
        xmin, xmax, ymin, ymax = self.bbox
        out, have = [], 0
        while have < n:
            pts = np.column_stack([rng.uniform(xmin, xmax, 4 * n), rng.uniform(ymin, ymax, 4 * n)])
            keep = inside_mesh(self.verts, self.tris, pts)
            keep &= rng.uniform(0.0, self.raw.envelope, 4 * n) < self.raw(pts)
            out.append(pts[keep])
            have += int(keep.sum())
        return np.concatenate(out)[:n]

    def ise(self, values, pts, cell):
        return float(np.sum((values - self(pts)) ** 2) * cell)


def checksum(values):
    """Plain and weighted sums: a fingerprint of a long numeric column."""
    v = np.asarray(values, dtype=float).ravel()
    w = np.random.default_rng(12345).random(len(v))
    return [float(v.sum()), float(v @ w)]


def kde_ise(points, truth, res):
    """ISE of the package's kernel baseline at the normal-reference
    bandwidth, on the in-domain cells of a res x res grid."""
    from tridensity import simbench

    centres, cell = cell_grid(truth.bbox, res)
    centres = centres[inside_mesh(truth.verts, truth.tris, centres)]
    kde = simbench.KernelDensity(points, simbench.normal_reference_bandwidth(points))
    values = np.concatenate([kde(centres[lo:lo + 2000]) for lo in range(0, len(centres), 2000)])
    return truth.ise(values, centres, cell)


def op_rng(seed, i, tag):
    return np.random.default_rng([seed % 2**64, i, tag])  # seed entropy must be >= 0


# ------------------------------------------------------------- workloads

class Workload:
    name = ""
    list_len = 1
    # setup_s is the median of this many set-ups; cheaper, noisier set-ups
    # get more.
    setup_repeats = 3
    tracer = None  # the traced run's Tracer while it traces, else None

    def __init__(self, seed, work_dir, smoke, in_process):
        self.seed = seed
        self.work_dir = os.path.join(work_dir, self.name)
        self.smoke = smoke
        self.in_process = in_process
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)

    def invariants(self, fp):
        return common_invariants(fp)


class CvHorseshoe(Workload):
    """select_lambda + refit + 200x200 density grid on horseshoe_112,
    reusing one ModelSpace."""

    name = "cv_horseshoe"
    list_len = 16
    setup_repeats = 5

    def __init__(self, *args):
        super().__init__(*args)
        from tridensity import assets

        self.paths = assets.mesh_paths("horseshoe_112")
        verts, tris = read_mesh(*self.paths)
        self.truth = Truth(Bumps([(2.5, 2.6, -0.5, 0.25), (2.0, 1.5, 0.5, 0.3),
                                  (1.5, -0.5, 0.0, 0.35)]), verts, tris)
        n = 150 if self.smoke else 600
        self.data = [self.truth.sample(op_rng(self.seed, i, 1), n) for i in range(self.list_len)]
        self.grid, self.cell = cell_grid(self.truth.bbox, 40 if self.smoke else 200)
        self.grid_inside = inside_mesh(verts, tris, self.grid)
        self.cv_kwargs = {"lambda_grid": (1e-4, 1e-3, 1e-2), "folds": 3} if self.smoke else {}

    def setup(self):
        from tridensity import bernstein, estimator, geometry

        self.tr = geometry.load_mesh(*self.paths)
        self.spec = bernstein.SplineSpec(3, 1)
        self.space = estimator.ModelSpace(self.tr, self.spec)

    def op(self, i):
        from tridensity import estimator, model_selection

        pts = self.data[i % self.list_len]
        report = model_selection.select_lambda(self.tr, pts, self.spec, space=self.space,
                                               **self.cv_kwargs)
        config = estimator.FitConfig(spec=self.spec, lam=report.best_lambda)
        fit = estimator.fit(self.tr, pts, config, space=self.space)
        values, _inside = fit.density(self.grid)
        return report, fit, values

    def fingerprint(self, i, out):
        report, fit, values = out
        pts = self.data[i % self.list_len]
        m = self.grid_inside
        return {
            "lambda": report.best_lambda,
            "cv_errors": list(report.cv_errors),
            "objective": fit.objective_trace[-1],
            "integral": float(values.sum() * self.cell),
            "density": checksum(values),
            "mise_bpst": self.truth.ise(values[m], self.grid[m], self.cell),
            "mise_kde": kde_ise(pts, self.truth, 40 if self.smoke else 100),
            "converged": fit.converged,
            "lambda_grid": list(report.lambda_grid),
        }


class Sim3Kde(Workload):
    """One replication of the sim3 comparison study, n=2000, bpst and kde,
    as run_benchmark runs it, then MISE of both."""

    name = "sim3_kde"
    list_len = 6

    def __init__(self, *args):
        super().__init__(*args)
        from tridensity import assets, model_selection

        self.n = 300 if self.smoke else 2000
        self.kwargs = {"lambda_grid": (1e-4, 1e-3, 1e-2), "folds": 3} if self.smoke else {}
        self.rep_seeds = [int(op_rng(self.seed, i, 2).integers(2**31)) for i in range(self.list_len)]
        verts, tris = read_mesh(*assets.mesh_paths("horseshoe_112"))
        self.grid, self.cell = cell_grid(bbox_of(verts), 100)
        self.grid = self.grid[inside_mesh(verts, tris, self.grid)]
        # replication_estimators does not return the CV report; keep the last
        # one. Each run is its own process, so the replacement is not undone.
        self.last_report = None
        select = model_selection.select_lambda

        def capture(*args, **kwargs):
            self.last_report = select(*args, **kwargs)
            return self.last_report

        model_selection.select_lambda = capture

    def setup(self):
        from tridensity import assets, bernstein, estimator, simbench

        # The scenario and mesh caches would turn every set-up after the first
        # into a lookup.
        for fn in (getattr(simbench, "scenario_sim2", None), getattr(simbench, "scenario_sim3", None),
                   getattr(assets, "load_bundled_mesh", None)):
            getattr(fn, "cache_clear", lambda: None)()
        self.scenario = simbench.get_scenario("sim3")
        self.space = estimator.ModelSpace(self.scenario.domain, bernstein.SplineSpec(3, 1))

    def op(self, i):
        from tridensity import simbench

        est = simbench.replication_estimators(self.scenario, self.n, self.rep_seeds[i % self.list_len],
                                              ("bpst", "kde"), space=self.space, **self.kwargs)
        for method, value in est.items():
            if isinstance(value, Exception):
                raise RuntimeError(f"{method} failed: {value!r}")
        return (est, self.last_report, simbench.mise(est["bpst"], self.scenario),
                simbench.mise(est["kde"], self.scenario))

    def fingerprint(self, i, out):
        est, report, mise_bpst, mise_kde = out
        fit = est["bpst"]
        values, _inside = fit.density(self.grid)
        return {
            "lambda": fit.lam,
            "cv_errors": list(report.cv_errors),
            "objective": fit.objective_trace[-1],
            "integral": float(values.sum() * self.cell),
            "bandwidth": est["kde"].bandwidth.ravel().tolist(),
            "mise_bpst": mise_bpst,
            "mise_kde": mise_kde,
            "converged": fit.converged,
            "lambda_grid": list(report.lambda_grid),
        }


class FineMeshCli(Workload):
    """`tridensity fit` then `tridensity density` on a structured square
    mesh of 200 triangles, one fresh process per call (in-process through
    cli.main when traced)."""

    name = "fine_mesh_cli"
    list_len = 8
    setup_repeats = 7
    LAMBDA = 1e-3

    def __init__(self, *args):
        super().__init__(*args)
        nx = 3 if self.smoke else 10
        self.res = 20 if self.smoke else 200
        xs = np.linspace(0.0, 1.0, nx + 1)
        verts = np.array([(x, y) for x in xs for y in xs])
        vid = lambda i, j: i * (nx + 1) + j
        tris = []
        for i in range(nx):
            for j in range(nx):
                a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
                tris += [(a, b, c), (a, c, d)]
        tris = np.array(tris)
        self.n_triangles = len(tris)
        self.vertices_csv = self._write("vertices.csv", "x,y", verts)
        self.triangles_csv = self._write("triangles.csv", "v1,v2,v3", tris)
        self.truth = Truth(Bumps([(3.0, 0.3, 0.3, 0.12), (2.0, 0.7, 0.65, 0.15)]), verts, tris)
        n = 200 if self.smoke else 2000
        self.data = [self.truth.sample(op_rng(self.seed, i, 3), n) for i in range(self.list_len)]
        self.data_csv = [self._write(f"data_{i}.csv", "x,y", d) for i, d in enumerate(self.data)]
        self.mesh_flags = ["--mesh-vertices", self.vertices_csv, "--mesh-triangles", self.triangles_csv]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"))

    def _write(self, name, header, rows):
        path = os.path.join(self.work_dir, name)
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(repr(v.item()) for v in row) + "\n")
        return path

    def cli(self, argv):
        if self.in_process:
            from tridensity import cli

            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            message = err.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "tridensity.cli", *argv], env=self.env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
            code, message = proc.returncode, proc.stderr
        if code != 0:
            raise RuntimeError(f"tridensity {argv[0]} exited {code}: {message.strip()[-300:]}")

    def setup(self):
        self.cli(["mesh-info", *self.mesh_flags])

    def import_seconds(self):
        """Median wall time of a fresh interpreter importing tridensity.cli."""
        times = []
        for _ in range(3):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import tridensity.cli"], env=self.env, check=True,
                           timeout=120)
            times.append(time.perf_counter() - t)
        return float(np.median(times))

    def op(self, i):
        out = os.path.join(self.work_dir, f"fit_{i % self.list_len}")
        shutil.rmtree(out, ignore_errors=True)
        self.cli(["fit", *self.mesh_flags, "--data", self.data_csv[i % self.list_len],
                  "--lambda", repr(self.LAMBDA), "--grid", str(self.res), "--out", out])
        self.cli(["density", *self.mesh_flags, "--fit-dir", out, "--grid", str(self.res),
                  "--out", os.path.join(out, "density.csv")])
        if self.tracer is not None:
            self.tracer.add({"cli.bytes_written": sum(
                os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))})
        return out

    def fingerprint(self, i, out):
        with open(os.path.join(out, "fit_report.json")) as fh:
            report = json.load(fh)
        coefficients = np.loadtxt(os.path.join(out, "coefficients.csv"), delimiter=",", skiprows=1,
                                  usecols=4)
        fit_grid = np.loadtxt(os.path.join(out, "density_grid.csv"), delimiter=",", skiprows=1)
        grid = np.loadtxt(os.path.join(out, "density.csv"), delimiter=",", skiprows=1)
        cell = 1.0 / self.res ** 2
        pts, values = grid[:, :2], grid[:, 2]
        return {
            "lambda": report["lambda"],
            "objective": report["final_objective"],
            "integral_exp": report["integral_of_density"],
            "coefficients": checksum(coefficients),
            "fit_grid": checksum(fit_grid[:, 2]),
            "density": checksum(values),
            "integral": float(values.sum() * cell),
            "mise_bpst": self.truth.ise(values, pts, cell),
            "mise_kde": kde_ise(self.data[i % self.list_len], self.truth, 40 if self.smoke else 100),
            "converged": report["converged"],
            "lambda_grid": [self.LAMBDA],
            "grids_differ": float(np.abs(fit_grid[:, 2] - values).max() / values.max()),
            "triangles": report["mesh"]["N"],
        }

    def invariants(self, fp):
        problems = common_invariants(fp)
        if fp["grids_differ"] > 1e-9:
            problems.append(f"fit and density grids differ by {fp['grids_differ']!r} (relative)")
        if fp["triangles"] != self.n_triangles:
            problems.append(f"fit_report mesh has {fp['triangles']} triangles")
        return problems


WORKLOADS = {w.name: w for w in (CvHorseshoe, Sim3Kde, FineMeshCli)}

# Fingerprint keys that are checked by invariants only, never against the
# stored reference.
NOT_COMPARED = ("converged", "lambda_grid", "grids_differ", "triangles")
