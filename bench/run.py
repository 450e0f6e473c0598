"""tridensity benchmark: one workload, a closed loop for --seconds seconds.

    python3 bench/run.py --workload cv_horseshoe --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it imports the package from ./src).
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced runs of each operation and reports the
per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the workloads and metrics.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported, here
# and in every child process (they inherit the environment).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from layers import install, layer_metrics, phase_totals  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import NOT_COMPARED, WORKLOADS, compare  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_max": "s",
    "ops_per_min": "1/min",
    "peak_rss_mb": "MB",
    "mise_bpst": "1",
    "mise_kde": "1",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one set-up; for the benchmark's self-test")
    p.add_argument("--write-reference", action="store_true",
                   help="run every operation of the list once and store its fingerprint")
    return p.parse_args(argv)


def import_package():
    """Import tridensity from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "tridensity", "__init__.py")):
        raise SystemExit(f"bench: no package source at {SRC}; run from a tridensity checkout")
    sys.path.insert(0, SRC)
    import tridensity

    if os.path.dirname(os.path.dirname(os.path.abspath(tridensity.__file__))) != SRC:
        raise SystemExit(f"bench: imported tridensity from {tridensity.__file__}, not {SRC}")


def environment():
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except Exception:  # noqa: BLE001 - version lookup is informational
            return None

    return {
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "machine": platform.machine(),
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class Checker:
    """Counts operations and failures; keeps the first mismatch."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.first_problem = None
        self.fingerprints = []

    def run(self, i, timed_op):
        """Run one operation, check it, and return its duration or None."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = timed_op(i)
            seconds = time.perf_counter() - t0
            fp = self.workload.fingerprint(i, out)
        except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
            return self._fail(i, f"raised {exc!r}")
        problems = self.workload.invariants(fp)
        if self.reference is not None:
            ref = self.reference[i % len(self.reference)]
            mismatch = compare(fp, {k: v for k, v in ref.items() if k not in NOT_COMPARED})
            if mismatch:
                problems.append(f"fingerprint mismatch: {mismatch}")
        if problems:
            return self._fail(i, "; ".join(problems))
        self.fingerprints.append(fp)
        return seconds

    def _fail(self, i, message):
        self.failed += 1
        if self.first_problem is None:
            self.first_problem = f"operation {i}: {message}"
            print(f"bench: {self.workload.name} {self.first_problem}", file=sys.stderr)
        return None


def load_reference(args):
    if args.smoke or args.seed != REFERENCE_SEED:
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)[args.workload]


def run_untraced(wl, args, checker):
    setups = []
    for _ in range(1 if args.smoke else wl.setup_repeats):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(setups)

    durations = []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < args.seconds:
        d = checker.run(i, wl.op)
        if d is not None:
            durations.append(d)
        i += 1
    if not durations:
        return None
    fps = checker.fingerprints
    values = {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(durations),
        "op_s_max": max(durations),
        "ops_per_min": 60.0 * len(durations) / (setup_s + sum(durations)),
        "peak_rss_mb": peak_rss_mb(),
        "mise_bpst": statistics.fmean(fp["mise_bpst"] for fp in fps),
        "mise_kde": statistics.fmean(fp["mise_kde"] for fp in fps),
    }
    print(f"# setups_s {[round(s, 4) for s in setups]}")
    print(f"# ops_s {[round(d, 4) for d in durations]}")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def run_traced(wl, args, checker):
    """Trace one set-up, then run each operation both untraced and traced,
    so the overhead compares like with like."""
    setup_tracer = Tracer()
    skipped = install(setup_tracer)
    if skipped:
        print(f"# not traced (absent): {', '.join(skipped)}")
    if hasattr(wl, "import_seconds"):
        setup_tracer.add({"cli.import_s": wl.import_seconds()})
    wl.tracer = setup_tracer
    with setup_tracer.span("setup"):
        wl.setup()
    setup_tracer.uninstall()

    op_tracer = Tracer()
    plain, traced = [], []

    def traced_op(i):
        install(op_tracer)
        wl.tracer = op_tracer
        try:
            with op_tracer.span("op"):
                return wl.op(i)
        finally:
            wl.tracer = None
            op_tracer.uninstall()

    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < args.seconds:
        # Alternate which of the pair runs first, so that warm-up after a
        # new input does not bias the overhead.
        if i % 2:
            d_traced, d_plain = checker.run(i, traced_op), checker.run(i, wl.op)
        else:
            d_plain, d_traced = checker.run(i, wl.op), checker.run(i, traced_op)
        if d_plain is not None and d_traced is not None:
            plain.append(d_plain)
            traced.append(d_traced)
        i += 1
    if not traced:
        return None
    trace_path = os.path.join(WORK_DIR, f"trace_{wl.name}_{args.seed}.json")
    with open(trace_path, "w") as fh:
        json.dump({"setup": setup_tracer.spans, "ops": op_tracer.spans}, fh)
    print(f"# spans written to {os.path.relpath(trace_path, ROOT)}")
    return layer_metrics(phase_totals(setup_tracer), phase_totals(op_tracer), len(traced),
                         statistics.median(traced), statistics.median(plain))


def write_reference(wl):
    wl.setup()
    fps = []
    for i in range(wl.list_len):
        fp = wl.fingerprint(i, wl.op(i))
        problems = wl.invariants(fp)
        if problems:
            raise SystemExit(f"bench: operation {i} fails its invariants: {problems}")
        fps.append({k: v for k, v in fp.items() if k not in NOT_COMPARED})
    try:
        with open(REFERENCE) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data[wl.name] = fps
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"bench: stored {len(fps)} fingerprints for {wl.name}, seed {REFERENCE_SEED}")


def main(argv=None):
    args = parse_args(argv)
    import_package()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(WORK_DIR, exist_ok=True)
    print("# env " + json.dumps(environment(), sort_keys=True))
    wl = WORKLOADS[args.workload](args.seed, WORK_DIR, args.smoke, bool(args.trace))
    if args.write_reference:
        if args.smoke or args.seed != REFERENCE_SEED:
            raise SystemExit(f"bench: the reference is for seed {REFERENCE_SEED}, full size")
        write_reference(wl)
        return 0

    checker = Checker(wl, load_reference(args))
    metrics = (run_traced if args.trace else run_untraced)(wl, args, checker)
    if metrics is None:
        print(f"bench: every operation failed; first: {checker.first_problem}", file=sys.stderr)
        return 1
    print(f"# ops_failed_frac {checker.failed / checker.attempted!r}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
