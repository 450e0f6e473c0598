"""Operation 0 of every benchmark workload, and operations 4 and 10 of
cv_horseshoe and 5 of sim3_kde, against the stored reference.

The benchmark checks each operation's fingerprint (chosen lambda, CV
errors, objective, MISE, density checksums) against bench/reference.json
on seed 0. Running the first operation of each workload here makes a
change that moves those answers fail the test suite too, not only the
benchmark. The workloads run in-process; nothing under bench/ is written.
"""

import importlib.util
import json
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
REFERENCE_SEED = 0


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(BENCH, "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)  # no __pycache__ under bench/
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


workloads = _workloads()


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(BENCH, "reference.json")) as fh:
        return json.load(fh)


def _assert_operation_matches(name, i, reference, work_dir, monkeypatch):
    from tridensity import model_selection

    # sim3_kde replaces select_lambda to keep the last CV report
    monkeypatch.setattr(model_selection, "select_lambda", model_selection.select_lambda)
    wl = workloads.WORKLOADS[name](REFERENCE_SEED, str(work_dir), False, True)
    wl.setup()
    fp = wl.fingerprint(i, wl.op(i))
    assert wl.invariants(fp) == []
    want = {k: v for k, v in reference[name][i].items() if k not in workloads.NOT_COMPARED}
    assert workloads.compare(fp, want) is None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_operation_0_matches_reference(name, reference, tmp_path, monkeypatch):
    _assert_operation_matches(name, 0, reference, tmp_path, monkeypatch)


def test_cv_horseshoe_operation_4_matches_reference(reference, tmp_path, monkeypatch):
    """Of the 16 cv_horseshoe operations, operation 4 has the most fits
    that Newton ends on its objective-decrease floor rather than on the
    gradient test, so a change to the stop rule shows here first."""
    _assert_operation_matches("cv_horseshoe", 4, reference, tmp_path, monkeypatch)


@pytest.mark.parametrize("name, i", [("cv_horseshoe", 10), ("sim3_kde", 5)])
def test_seed_sensitive_operation_matches_reference(name, i, reference, tmp_path, monkeypatch):
    """The operations that leave the reference first when Newton's starting
    point changes. A start at theta = 0 and a seed ridge scaled by the
    domain area each move both of them; neither moves sim3_kde's
    operation 0."""
    _assert_operation_matches(name, i, reference, tmp_path, monkeypatch)
