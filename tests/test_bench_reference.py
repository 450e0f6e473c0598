"""Operation 0 of every benchmark workload against its stored reference.

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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_operation_0_matches_reference(name, reference, tmp_path, monkeypatch):
    from tridensity import model_selection

    # sim3_kde replaces select_lambda to keep the last CV report
    monkeypatch.setattr(model_selection, "select_lambda", model_selection.select_lambda)
    wl = workloads.WORKLOADS[name](REFERENCE_SEED, str(tmp_path), False, True)
    wl.setup()
    fp = wl.fingerprint(0, wl.op(0))
    assert wl.invariants(fp) == []
    want = {k: v for k, v in reference[name][0].items() if k not in workloads.NOT_COMPARED}
    assert workloads.compare(fp, want) is None
