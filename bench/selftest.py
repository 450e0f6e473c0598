"""Self-test of the benchmark, on tiny inputs.

    python3 bench/selftest.py

Checks that every workload's smoke run emits exactly the metric names that
BENCHMARK.json lists, with and without tracing; that a perturbed fingerprint
is reported as a failed operation; and that self time is computed correctly
on a synthetic nested-span trace.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def test_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
            check(proc.returncode == 0, f"{workload} trace={trace} exits 0 ({proc.stderr[-300:]})")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace={trace} result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace} operations pass their checks")
            check(set(result["metrics"]) == wanted[trace],
                  f"{workload} trace={trace} emits every listed metric and no other "
                  f"(missing {sorted(wanted[trace] - set(result['metrics']))}, "
                  f"extra {sorted(set(result['metrics']) - wanted[trace])})")


def test_perturbed_fingerprint():
    sys.path.insert(0, HERE)
    import run

    run.import_package()
    from workloads import NOT_COMPARED, CvHorseshoe, compare

    wl = CvHorseshoe(5, run.WORK_DIR, True, False)
    wl.setup()
    fp = wl.fingerprint(0, wl.op(0))
    ref = {k: v for k, v in fp.items() if k not in NOT_COMPARED}
    check(compare(fp, ref) is None, "an unchanged fingerprint matches")
    for key, value in ref.items():
        bumped = dict(ref)
        if isinstance(value, list):
            bumped[key] = [value[0] * (1 + 1e-4) + 1e-9] + value[1:]
        else:
            bumped[key] = value * (1 + 1e-4) + 1e-9
        check(compare(fp, bumped) is not None and compare(fp, bumped).startswith(key),
              f"perturbing {key} by 1e-4 is a mismatch")
    bumped = dict(ref, objective=ref["objective"] * (1 + 1e-4))
    checker = run.Checker(wl, [bumped])
    check(checker.run(0, wl.op) is None and checker.failed == 1 and "objective" in checker.first_problem,
          "an operation whose output leaves the reference counts as failed")


def test_self_time():
    from spans import Tracer, self_times

    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [4, 6]; overlapping
    # children c1 [7, 8.5] and c2 [8, 9] of root are covered once.
    spans = [(3, "a1", 2.0, 3.0, 2), (2, "a", 1.0, 4.0, 1), (4, "b", 4.0, 6.0, 1),
             (5, "c1", 7.0, 8.5, 1), (6, "c2", 8.0, 9.0, 1), (1, "root", 0.0, 10.0, None)]
    got = self_times(spans)
    want = {1: 10.0 - 3.0 - 2.0 - 2.0, 2: 2.0, 3: 1.0, 4: 2.0, 5: 1.5, 6: 1.0}
    check(all(abs(got[k] - v) < 1e-12 for k, v in want.items()), f"self times {got}")

    t = Tracer()
    with t.span("root"):
        with t.span("child"):
            with t.span("grandchild"):
                pass
    names = {sid: name for sid, name, *_ in t.spans}
    parents = {names[sid]: names.get(parent) for sid, _n, _s, _e, parent in t.spans}
    check(parents == {"root": None, "child": "root", "grandchild": "child"}, "span parents")
    selfs = self_times(t.spans)
    total = sum(selfs.values())
    root = next(s for s in t.spans if s[1] == "root")
    check(abs(total - (root[3] - root[2])) < 1e-9, "self times of a tree add up to the root's wall")


if __name__ == "__main__":
    test_self_time()
    test_perturbed_fingerprint()
    test_metric_names()
    print("selftest passed")
