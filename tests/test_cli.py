import json

import numpy as np
import pytest

from tridensity import cli

from conftest import starve_newton


def write_points(path, pts):
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for x, y in pts:
            fh.write(f"{float(x)!r},{float(y)!r}\n")


@pytest.fixture
def data_csv(tmp_path, rng):
    path = tmp_path / "data.csv"
    write_points(path, rng.random((300, 2)))
    return str(path)


def test_mesh_info_bundled(capsys):
    assert cli.main(["mesh-info", "--bundled-mesh", "horseshoe_112"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["N"] == 112
    assert np.isfinite(out["beta_ratio"])
    assert out["schema_version"] == 1


def test_mesh_info_from_files(tmp_path, capsys):
    vp, tp = tmp_path / "v.csv", tmp_path / "t.csv"
    vp.write_text("x,y\n0,0\n1,0\n1,1\n0,1\n")
    tp.write_text("v1,v2,v3\n0,1,2\n0,2,3\n")
    assert cli.main([
        "mesh-info", "--mesh-vertices", str(vp), "--mesh-triangles", str(tp),
        "--out", str(tmp_path / "info.json"),
    ]) == 0
    saved = json.loads((tmp_path / "info.json").read_text())
    assert saved == json.loads(capsys.readouterr().out)
    assert saved["N"] == 2


def test_mesh_flags_validation(tmp_path, capsys):
    assert cli.main(["mesh-info", "--mesh-vertices", "only_one.csv"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2


def test_fit_report_and_artifacts(tmp_path, data_csv):
    out = tmp_path / "fitdir"
    code = cli.main([
        "fit", "--bundled-mesh", "square_unit_32", "--data", data_csv,
        "--lambda", "1e-3", "--grid", "50", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "fit_report.json").read_text())
    for key in ("lambda", "iterations", "converged", "final_objective",
                "integral_of_density", "mesh", "spec", "schema_version"):
        assert key in report
    assert report["converged"] is True
    assert 0.999 <= report["integral_of_density"] <= 1.001
    assert report["mesh"]["N"] == 32
    assert report["spec"] == {"m": 3, "r": 1}
    coeffs = (out / "coefficients.csv").read_text().splitlines()
    assert coeffs[0] == "triangle,i,j,k,value"
    assert len(coeffs) == 1 + 32 * 10
    grid = (out / "density_grid.csv").read_text().splitlines()
    assert grid[0] == "x,y,density,in_domain"
    assert len(grid) == 1 + 50 * 50


def test_fit_outside_point_exit2(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("x,y\n0.5,0.5\n1000000000.0,1000000000.0\n")
    code = cli.main([
        "fit", "--bundled-mesh", "square_unit_32", "--data", str(data),
        "--lambda", "1e-3", "--out", str(tmp_path / "f"),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "rows [1]" in err["message"]
    assert not (tmp_path / "f" / "fit_report.json").exists()


def test_fit_drop_outside(tmp_path, rng):
    data = tmp_path / "mixed.csv"
    pts = np.vstack([rng.random((40, 2)), [[5.0, 5.0]]])
    write_points(data, pts)
    out = tmp_path / "fit"
    code = cli.main([
        "fit", "--bundled-mesh", "square_unit_32", "--data", str(data),
        "--lambda", "1e-2", "--drop-outside", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["n_dropped"] == 1
    assert report["n_points"] == 40


def test_fit_requires_some_lambda(tmp_path, data_csv, capsys):
    code = cli.main([
        "fit", "--bundled-mesh", "square_unit_32", "--data", data_csv,
        "--out", str(tmp_path / "f"),
    ])
    assert code == 2


def test_fit_lambda_flags_mutually_exclusive(tmp_path, data_csv):
    with pytest.raises(SystemExit) as err:
        cli.main([
            "fit", "--bundled-mesh", "square_unit_32", "--data", data_csv,
            "--lambda", "1e-3", "--lambda-grid", "default",
            "--out", str(tmp_path / "f"),
        ])
    assert err.value.code == 2


def test_fit_with_cv_grid(tmp_path, data_csv):
    out = tmp_path / "fitcv"
    code = cli.main([
        "fit", "--bundled-mesh", "square_unit_32", "--data", data_csv,
        "--lambda-grid", "1e-4,1e-2", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert report["lambda"] == report["cv"]["best_lambda"]
    assert report["cv"]["lambda_grid"] == [1e-4, 1e-2]


def test_fit_nonconvergence_exit3(tmp_path, data_csv, capsys, monkeypatch):
    starve_newton(monkeypatch, 1, 1e-15, 1e-18)
    out = tmp_path / "fit3"
    code = cli.main([
        "fit", "--bundled-mesh", "square_unit_32", "--data", data_csv,
        "--lambda", "1e-3", "--out", str(out),
    ])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["message"].startswith(
        "optimizer did not converge: iteration limit (max_iters=1) reached after 1 iterations"
    )
    # artifacts are still written for the partial fit
    report = json.loads((out / "fit_report.json").read_text())
    assert report["converged"] is False
    assert (out / "coefficients.csv").exists()


def _rejected(tmp_path, capsys, argv, kind):
    """argv exits 2 with an error of this kind and writes nothing."""
    out = tmp_path / "rejected"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["exit_code"]) == (kind, 2)
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--m", "2", "--r", "3"], ["--m", "-1"]])
def test_fit_bad_spec_exit2(tmp_path, data_csv, capsys, flags):
    _rejected(tmp_path, capsys, [
        "fit", "--bundled-mesh", "square_unit_32", "--data", data_csv,
        *flags, "--lambda", "1e-3",
    ], "UnsupportedSmoothness")


@pytest.mark.parametrize("flag", ["--lambda", "--lambda-grid"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_fit_bad_lambda_exit2(tmp_path, data_csv, capsys, flag, value):
    _rejected(tmp_path, capsys, [
        "fit", "--bundled-mesh", "square_unit_32", "--data", data_csv,
        f"{flag}={value if flag == '--lambda' else '1e-3,' + value}",
    ], "ValueError")


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_cv_bad_lambda_grid_exit2(tmp_path, data_csv, capsys, value):
    _rejected(tmp_path, capsys, [
        "cv", "--bundled-mesh", "square_unit_32", "--data", data_csv,
        f"--lambda-grid={value}",
    ], "ValueError")


def test_fit_negative_grid_exit2(tmp_path, data_csv, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit ran")

    monkeypatch.setattr(cli.estimator, "ModelSpace", no_fit)
    _rejected(tmp_path, capsys, [
        "fit", "--bundled-mesh", "square_unit_32", "--data", data_csv,
        "--lambda", "1e-3", "--grid", "-5",
    ], "ValidationError")


def _no_model_space(monkeypatch):
    def no_space(self, *args, **kwargs):
        raise AssertionError("ModelSpace built")

    monkeypatch.setattr(cli.estimator.ModelSpace, "__init__", no_space)


@pytest.mark.parametrize("flags", [["--lambda", "nan"], ["--lambda-grid", "1e-3,nan"],
                                   ["--lambda-grid", "default", "--folds", "1"],
                                   ["--lambda-grid", "default", "--folds", "301"]])
def test_fit_rejects_bad_weight_or_folds_before_space(tmp_path, data_csv, capsys,
                                                     monkeypatch, flags):
    _no_model_space(monkeypatch)
    _rejected(tmp_path, capsys, [
        "fit", "--bundled-mesh", "square_unit_32", "--data", data_csv, *flags,
    ], "ValueError")


@pytest.mark.parametrize("flags", [["--n", "0"], ["--folds", "1"], ["--folds", "61"],
                                   ["--grid", "10"]])
def test_simulate_rejects_bad_input_before_space(tmp_path, capsys, monkeypatch, flags):
    def no_sample(*args, **kwargs):
        raise AssertionError("sampled")

    _no_model_space(monkeypatch)
    monkeypatch.setattr(cli.simbench, "sample", no_sample)
    argv = {"--n": "60", "--folds": "5", "--grid": "60"}
    argv.update(zip(flags[::2], flags[1::2]))
    _rejected(tmp_path, capsys, [
        "simulate", "--scenario", "sim2", "--reps", "1",
        *[tok for kv in argv.items() for tok in kv],
    ], "ValueError")


def test_density_roundtrip(tmp_path, data_csv):
    fitdir = tmp_path / "fit"
    assert cli.main([
        "fit", "--bundled-mesh", "square_unit_32", "--data", data_csv,
        "--lambda", "1e-3", "--out", str(fitdir),
    ]) == 0
    dens = tmp_path / "dens.csv"
    assert cli.main([
        "density", "--bundled-mesh", "square_unit_32", "--fit-dir", str(fitdir),
        "--grid", "100", "--out", str(dens),
    ]) == 0
    rows = dens.read_text().splitlines()[1:]
    mass = 0.0
    for row in rows:
        x, y, v, flag = row.split(",")
        assert flag == "1"  # square grid cells are all inside
        mass += float(v)
    mass *= (1.0 / 100) ** 2
    assert abs(mass - 1.0) <= 2e-2


def test_density_flags_outside_cells(tmp_path):
    from tridensity.simbench import sample, scenario_sim2

    data = tmp_path / "hdata.csv"
    write_points(data, sample(scenario_sim2(), 200, seed=3))
    fitdir = tmp_path / "hfit"
    assert cli.main([
        "fit", "--bundled-mesh", "horseshoe_112", "--data", str(data),
        "--lambda", "1e-2", "--out", str(fitdir),
    ]) == 0
    dens = tmp_path / "hdens.csv"
    assert cli.main([
        "density", "--bundled-mesh", "horseshoe_112", "--fit-dir", str(fitdir),
        "--grid", "60", "--out", str(dens),
    ]) == 0
    flags = [row.rsplit(",", 1)[1] for row in dens.read_text().splitlines()[1:]]
    assert "0" in flags and "1" in flags
    for row in dens.read_text().splitlines()[1:]:
        _, _, v, flag = row.split(",")
        if flag == "0":
            assert float(v) == 0.0


@pytest.mark.parametrize("change", ["scaled", "moved"])
def test_density_rejects_another_mesh(tmp_path, data_csv, capsys, change):
    """density evaluates a fit only on the mesh it was fitted on: a mesh with
    the same triangles but other vertices gives exit 2 and no file. (A
    relabelled copy of the fit's mesh is not detected.)"""
    from tridensity.assets import mesh_paths
    from tridensity.geometry import load_mesh, mesh_quality

    verts_path, tris_path = mesh_paths("square_unit_32")
    fitdir = tmp_path / "fit"
    assert cli.main([
        "fit", "--bundled-mesh", "square_unit_32", "--data", data_csv,
        "--lambda", "1e-3", "--out", str(fitdir),
    ]) == 0
    tr = load_mesh(verts_path, tris_path)
    verts = tr.vertices * 2.0 if change == "scaled" else tr.vertices.copy()
    if change == "moved":  # an interior vertex, off the longest edges
        inner = np.flatnonzero(np.all((verts > 0.05) & (verts < 0.95), axis=1))[0]
        verts[inner] += 1e-3
    other = tmp_path / "other.csv"
    write_points(other, verts)
    q, q_other = mesh_quality(tr), mesh_quality(load_mesh(other, tris_path))
    assert (q.mesh_size, q.beta_ratio) != (q_other.mesh_size, q_other.beta_ratio)
    capsys.readouterr()
    dens = tmp_path / "dens.csv"
    assert cli.main([
        "density", "--mesh-vertices", str(other), "--mesh-triangles", str(tris_path),
        "--fit-dir", str(fitdir), "--grid", "20", "--out", str(dens),
    ]) == 2
    assert not dens.exists()
    assert "ValidationError" in capsys.readouterr().err
    assert cli.main([
        "density", "--mesh-vertices", str(verts_path), "--mesh-triangles", str(tris_path),
        "--fit-dir", str(fitdir), "--grid", "20", "--out", str(dens),
    ]) == 0


def test_density_missing_artifacts(tmp_path, capsys):
    code = cli.main([
        "density", "--bundled-mesh", "square_unit_32",
        "--fit-dir", str(tmp_path / "nope"), "--grid", "50",
        "--out", str(tmp_path / "d.csv"),
    ])
    assert code == 2


def test_cv_subcommand(tmp_path, data_csv):
    out = tmp_path / "cv.json"
    code = cli.main([
        "cv", "--bundled-mesh", "square_unit_32", "--data", data_csv,
        "--lambda-grid", "1e-5,1e-3,1e-1", "--folds", "5", "--seed", "2",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["best_lambda"] in report["lambda_grid"]
    assert len(report["cv_errors"]) == 3
    assert len(report["fold_assignments"]) == 300
    assert report["schema_version"] == 1


def test_simulate_subcommand(tmp_path):
    out = tmp_path / "sim.json"
    code = cli.main([
        "simulate", "--scenario", "sim1", "--n", "60", "--reps", "2",
        "--seed", "9", "--grid", "60", "--folds", "5", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["reps"] == 2
    methods = {r["method"] for r in report["results"]}
    assert methods == {"bpst", "kde"}
    for r in report["results"]:
        assert len(r["per_replication"]) == 2
        assert r["sd_defined"] is True
    rows = (tmp_path / "sim_replications.csv").read_text().splitlines()
    assert rows[0] == "replication,method,mise,status"
    assert len(rows) == 1 + 2 * 2


def test_simulate_emit_grids(tmp_path):
    out = tmp_path / "sim.json"
    assert cli.main([
        "simulate", "--scenario", "sim1", "--n", "60", "--reps", "1",
        "--seed", "4", "--grid", "50", "--folds", "5", "--emit-grids",
        "--out", str(out),
    ]) == 0
    for name in ("sim_true_density.csv", "sim_bpst_density.csv", "sim_kde_density.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "x,y,density,in_domain"
        assert len(lines) == 1 + 50 * 50


def test_simulate_bad_method(tmp_path, capsys):
    assert cli.main([
        "simulate", "--scenario", "sim1", "--n", "10", "--reps", "1",
        "--methods", "magic", "--out", str(tmp_path / "x.json"),
    ]) == 2


def test_inputs_never_mutated(tmp_path, data_csv):
    from tridensity.assets import mesh_paths

    before = open(data_csv, "rb").read()
    vp, tp = mesh_paths("square_unit_32")
    mesh_before = (open(vp, "rb").read(), open(tp, "rb").read())
    assert cli.main([
        "fit", "--mesh-vertices", vp, "--mesh-triangles", tp,
        "--data", data_csv, "--lambda", "1e-2", "--out", str(tmp_path / "f"),
    ]) == 0
    assert open(data_csv, "rb").read() == before
    assert (open(vp, "rb").read(), open(tp, "rb").read()) == mesh_before


def test_outputs_byte_identical(tmp_path, data_csv):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"cv_{run}.json"
        assert cli.main([
            "cv", "--bundled-mesh", "square_unit_32", "--data", data_csv,
            "--lambda-grid", "1e-4,1e-2", "--folds", "4", "--seed", "2",
            "--out", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
