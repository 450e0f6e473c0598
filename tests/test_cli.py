import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tridensity import cli, estimator, model_selection, simbench
from tridensity.bernstein import SplineSpec
from tridensity.errors import SingularBandwidth

from conftest import (LONG_ROWS, OVERLAPS_NO_VERTEX_ENTERS, SHORT_ROWS, cli_command, starve_newton,
                      write_square_csvs)


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
    assert out["schema_version"] == cli.SCHEMA_VERSION


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


def test_outside_points_message(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    write_points(data, [[0.5, 0.5]] + [[2.0 + i, 0.5] for i in range(12)] + [[0.25, 0.25]])
    err = _rejected(tmp_path, capsys, [
        "cv", "--bundled-mesh", "square_unit_32", "--data", str(data),
    ], "ValidationError")
    assert err["message"] == (
        f"{data}: 12 points outside the domain at rows [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"
        " (+2 more); use --drop-outside to ignore them")


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


def _horseshoe_overflow_fit(tmp_path, grid):
    """fit of 300 sim2 points on horseshoe_112 at lambda 1e-3. Triangles
    108-111 meet the rest of the mesh only at vertices and hold one point,
    so the likelihood is unbounded there; Newton stops on a step that
    lowers the objective by exactly 0 and reports converged, with a density
    that overflows to inf in 4 cells of the 60 x 60 grid."""
    data = tmp_path / "overflow_data.csv"
    write_points(data, simbench.sample(simbench.get_scenario("sim2"), 300, 4))
    fitdir = tmp_path / "overflow_fit"
    code = cli.main([
        "fit", "--bundled-mesh", "horseshoe_112", "--data", str(data),
        "--lambda", "1e-3", "--grid", str(grid), "--out", str(fitdir),
    ])
    return code, fitdir


def _assert_nonfinite_grid_error(capsys):
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["exit_code"]) == ("NonFiniteDensity", 3)
    assert err["message"].startswith("4 of ") and "not finite" in err["message"]


def test_fit_nonfinite_grid_exit3(tmp_path, capsys):
    """A grid cell inside the domain that is not finite exits 3; the report
    and coefficients are written, the grid is not."""
    code, fitdir = _horseshoe_overflow_fit(tmp_path, 60)
    assert code == 3
    _assert_nonfinite_grid_error(capsys)
    assert json.loads((fitdir / "fit_report.json").read_text())["converged"] is True
    assert (fitdir / "coefficients.csv").exists()
    assert not (fitdir / "density_grid.csv").exists()


def test_density_nonfinite_grid_exit3(tmp_path, capsys):
    code, fitdir = _horseshoe_overflow_fit(tmp_path, 0)
    assert code == 0
    capsys.readouterr()
    dens = tmp_path / "dens.csv"
    assert cli.main([
        "density", "--bundled-mesh", "horseshoe_112", "--fit-dir", str(fitdir),
        "--grid", "60", "--out", str(dens),
    ]) == 3
    _assert_nonfinite_grid_error(capsys)
    assert not dens.exists()


def test_density_overflow_writes_only_the_error_line(tmp_path):
    """The cap fit of _horseshoe_overflow_fit overflows exp on its grid; in
    a fresh interpreter, stderr is the NonFiniteDensity line and no numpy
    warning."""
    code, fitdir = _horseshoe_overflow_fit(tmp_path, 0)
    assert code == 0
    dens = tmp_path / "dens.csv"
    proc = subprocess.run([
        *cli_command(False), "density", "--bundled-mesh", "horseshoe_112",
        "--fit-dir", str(fitdir), "--grid", "60", "--out", str(dens),
    ], cwd=tmp_path, env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 3
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "NonFiniteDensity"
    assert not dens.exists()


@pytest.mark.parametrize("value", ["800.0", "2000.0"])
def test_density_of_large_coefficients_integrates_to_one(tmp_path, data_csv, value):
    """A large constant on triangles 0 and 1, the square [0, 1/4]^2, leaves
    a finite density that the normalizing constant (shifted by its largest
    node value) scales to integrate to one: 16 on that square's cells."""
    fitdir = tmp_path / "fit"
    assert cli.main([
        "fit", "--bundled-mesh", "square_unit_32", "--data", data_csv,
        "--lambda", "1e-3", "--out", str(fitdir),
    ]) == 0
    coef = fitdir / "coefficients.csv"
    header, *rows = coef.read_text().splitlines()
    rows = [row.rsplit(",", 1)[0] + "," + value if row.startswith(("0,", "1,")) else row
            for row in rows]
    coef.write_text("\n".join([header, *rows]) + "\n")
    dens = tmp_path / "dens.csv"
    assert cli.main([
        "density", "--bundled-mesh", "square_unit_32", "--fit-dir", str(fitdir),
        "--grid", "60", "--out", str(dens),
    ]) == 0
    grid = np.loadtxt(dens, delimiter=",", skiprows=1)
    assert np.all(np.isfinite(grid[:, 2]))
    assert abs(grid[:, 2].sum() / 60 ** 2 - 1.0) < 1e-2  # unit square, 60 x 60 cells


def _rejected(tmp_path, capsys, argv, kind):
    """argv exits 2 with an error of this kind and writes nothing; returns
    the error line."""
    out = tmp_path / "rejected"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["exit_code"]) == (kind, 2)
    assert not out.exists()
    return err


def test_bundled_mesh_conflicts_with_mesh_files(tmp_path, capsys):
    err = _rejected(tmp_path, capsys, [
        "mesh-info", "--bundled-mesh", "square_unit_32", "--mesh-vertices", "v.csv",
    ], "ValidationError")
    assert err["message"] == "--bundled-mesh conflicts with mesh file flags"


@pytest.mark.parametrize("which, text, where", SHORT_ROWS + LONG_ROWS)
def test_short_csv_row_exit2(tmp_path, capsys, which, text, where):
    paths = write_square_csvs(tmp_path, **{which: text})
    err = _rejected(tmp_path, capsys, [
        "fit", "--mesh-vertices", str(paths["vertices"]),
        "--mesh-triangles", str(paths["triangles"]), "--data", str(paths["points"]),
        "--lambda", "1e-3",
    ], "MeshError")
    assert err["message"] == f"{paths[which]}: {where}"


def test_overlap_through_a_vertex_exit2(tmp_path, capsys):
    """Two triangles that overlap without sharing an edge: mesh-info and
    fit exit 2 and write nothing."""
    paths = write_square_csvs(tmp_path, vertices="x,y\n0,0\n2,0\n0,2\n0.5,0.5\n3,0.5\n0.5,3\n",
                              triangles="v1,v2,v3\n0,1,2\n3,4,5\n")
    mesh = ["--mesh-vertices", str(paths["vertices"]), "--mesh-triangles", str(paths["triangles"])]
    for argv in (["mesh-info", *mesh],
                 ["fit", *mesh, "--data", str(paths["points"]), "--lambda", "1e-3"]):
        err = _rejected(tmp_path, capsys, argv, "NonConforming")
        assert err["message"] == "vertex 3 lies inside triangle 0"


@pytest.mark.parametrize("vertices, triangles, message", OVERLAPS_NO_VERTEX_ENTERS)
def test_overlap_that_no_vertex_enters_exit2(tmp_path, capsys, vertices, triangles, message):
    """Two triangles whose edges cross with no vertex of either inside the
    other: mesh-info and fit exit 2 and write nothing."""
    paths = write_square_csvs(
        tmp_path, vertices="".join(f"{x},{y}\n" for x, y in [["x", "y"], *vertices]),
        triangles="".join(f"{a},{b},{c}\n" for a, b, c in [["v1", "v2", "v3"], *triangles]))
    mesh = ["--mesh-vertices", str(paths["vertices"]), "--mesh-triangles", str(paths["triangles"])]
    for argv in (["mesh-info", *mesh],
                 ["fit", *mesh, "--data", str(paths["points"]), "--lambda", "1e-3"]):
        err = _rejected(tmp_path, capsys, argv, "NonConforming")
        assert err["message"] == message


def test_fit_header_only_data_exit2(tmp_path, capsys):
    data = tmp_path / "header_only.csv"
    data.write_text("x,y\n")
    err = _rejected(tmp_path, capsys, [
        "fit", "--bundled-mesh", "square_unit_32", "--data", str(data), "--lambda", "1e-3",
    ], "ValidationError")
    assert err["message"] == f"{data}: no data points"


@pytest.mark.parametrize("grid, message", [
    ("1e-3,abc", "bad --lambda-grid value: could not convert string to float: 'abc'"),
    (",", "--lambda-grid is empty"),
], ids=["non_numeric", "no_value"])
def test_cv_malformed_lambda_grid_exit2(tmp_path, data_csv, capsys, grid, message):
    err = _rejected(tmp_path, capsys, [
        "cv", "--bundled-mesh", "square_unit_32", "--data", data_csv, f"--lambda-grid={grid}",
    ], "ValidationError")
    assert err["message"] == message


@pytest.mark.parametrize("command", ["cv", "fit"])
def test_all_folds_failed_exit3(tmp_path, data_csv, capsys, monkeypatch, command):
    """A CV where every fold fails at every weight exits 3, as a fit that
    did not converge does, and writes nothing."""
    starve_newton(monkeypatch, 1, 1e-15, 1e-18)
    out = tmp_path / "out"
    assert cli.main([
        command, "--bundled-mesh", "square_unit_32", "--data", data_csv,
        "--lambda-grid", "1e-3,1", "--folds", "5", "--out", str(out),
    ]) == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["exit_code"]) == ("AllFoldsFailed", 3)
    assert err["message"].startswith("every fold failed for every lambda in the grid; first: ")
    assert list(tmp_path.iterdir()) == [tmp_path / "data.csv"]


def test_unexpected_exception_exit4(capsys, monkeypatch):
    def broken(tr):
        raise RuntimeError("quality check broke")

    monkeypatch.setattr(cli, "mesh_quality", broken)
    assert cli.main(["mesh-info", "--bundled-mesh", "square_unit_32"]) == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "RuntimeError", "message": "quality check broke",
                                "exit_code": 4}


def test_write_atomic_leaves_no_temp_file_when_the_write_fails(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        cli._write_atomic(str(tmp_path / "out.csv"), "x\ud800\n")  # a lone surrogate
    assert list(tmp_path.iterdir()) == []


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

    monkeypatch.setattr(estimator, "ModelSpace", no_fit)
    _rejected(tmp_path, capsys, [
        "fit", "--bundled-mesh", "square_unit_32", "--data", data_csv,
        "--lambda", "1e-3", "--grid", "-5",
    ], "ValidationError")


def _no_model_space(monkeypatch):
    def no_space(self, *args, **kwargs):
        raise AssertionError("ModelSpace built")

    monkeypatch.setattr(estimator.ModelSpace, "__init__", no_space)


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
                                   ["--grid", "10"], ["--methods", ""],
                                   ["--methods", "kde,kde"], ["--methods", "magic"]])
def test_simulate_rejects_bad_input_before_space(tmp_path, capsys, monkeypatch, flags):
    def no_sample(*args, **kwargs):
        raise AssertionError("sampled")

    _no_model_space(monkeypatch)
    monkeypatch.setattr(simbench, "sample", no_sample)
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


def _write_mesh(tmp_path, verts, tris):
    vp, tp = tmp_path / "other_v.csv", tmp_path / "other_t.csv"
    write_points(vp, verts)
    tp.write_text("v1,v2,v3\n" + "".join(f"{a},{b},{c}\n" for a, b, c in tris.tolist()))
    return str(vp), str(tp)


def _fit_unit32(tmp_path, data_csv):
    fitdir = tmp_path / "fit"
    assert cli.main([
        "fit", "--bundled-mesh", "square_unit_32", "--data", data_csv,
        "--lambda", "1e-3", "--out", str(fitdir),
    ]) == 0
    return fitdir


@pytest.mark.parametrize("change", ["scaled", "moved", "shifted", "relabelled", "reordered"])
def test_density_rejects_another_mesh(tmp_path, data_csv, capsys, change):
    """density evaluates a fit only on the mesh it was fitted on: a mesh with
    the same triangles but other vertices, or the fit's mesh with its
    vertices or triangles in another order, gives exit 2 and no file. Only
    the sha256 in the mesh summary tells the last three from the fit's."""
    from tridensity.assets import mesh_paths
    from tridensity.geometry import load_mesh, mesh_quality

    verts_path, tris_path = mesh_paths("square_unit_32")
    fitdir = _fit_unit32(tmp_path, data_csv)
    tr = load_mesh(verts_path, tris_path)
    verts, tris = tr.vertices.copy(), tr.triangles.copy()
    if change == "scaled":
        verts *= 2.0
    elif change == "moved":  # an interior vertex, off the longest edges
        inner = np.flatnonzero(np.all((verts > 0.05) & (verts < 0.95), axis=1))[0]
        verts[inner] += 1e-3
    elif change == "shifted":  # exact on this grid, so every quality number stays
        verts += [0.5, 0.0]
    elif change == "relabelled":  # vertex i of the copy is vertex perm[i]
        perm = np.random.default_rng(1).permutation(len(verts))
        verts, tris = verts[perm], np.argsort(perm)[tris]
    else:
        tris = tris[np.random.default_rng(1).permutation(len(tris))]
    other_paths = _write_mesh(tmp_path, verts, tris)
    other = load_mesh(*other_paths)
    q, q_other = mesh_quality(tr), mesh_quality(other)
    same_geometry = (q.mesh_size, q.beta_ratio) == (q_other.mesh_size, q_other.beta_ratio)
    assert same_geometry == (change not in ("scaled", "moved"))
    if change in ("relabelled", "reordered"):  # the same triangles, labelled otherwise
        corners = lambda m: {frozenset(map(tuple, c)) for c in m.vertices[m.triangles].tolist()}
        assert corners(other) == corners(tr)
        assert not (np.array_equal(other.vertices, tr.vertices)
                    and np.array_equal(other.triangles, tr.triangles))
    capsys.readouterr()
    dens = tmp_path / "dens.csv"
    assert cli.main([
        "density", "--mesh-vertices", other_paths[0], "--mesh-triangles", other_paths[1],
        "--fit-dir", str(fitdir), "--grid", "20", "--out", str(dens),
    ]) == 2
    assert not dens.exists()
    assert "ValidationError" in capsys.readouterr().err
    assert cli.main([
        "density", "--mesh-vertices", str(verts_path), "--mesh-triangles", str(tris_path),
        "--fit-dir", str(fitdir), "--grid", "20", "--out", str(dens),
    ]) == 0


def test_density_rejects_another_schema_version(tmp_path, data_csv, capsys):
    fitdir = _fit_unit32(tmp_path, data_csv)
    report_path = fitdir / "fit_report.json"
    report = json.loads(report_path.read_text())
    assert report["schema_version"] == cli.SCHEMA_VERSION
    report["schema_version"] = cli.SCHEMA_VERSION - 1
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    dens = tmp_path / "dens.csv"
    assert cli.main([
        "density", "--bundled-mesh", "square_unit_32", "--fit-dir", str(fitdir),
        "--grid", "20", "--out", str(dens),
    ]) == 2
    assert not dens.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "refit" in err["message"]


@pytest.mark.parametrize("fault", ["repeated_row", "inf_value", "nan_value", "missing_rows",
                                   "no_spec", "no_spec_r", "float_spec_m",
                                   "report_not_object", "bad_header", "triangle_out_of_range"])
def test_density_rejects_bad_fit_artifact(tmp_path, data_csv, capsys, fault):
    """A coefficient file with another header, that repeats a coefficient,
    names a triangle the mesh lacks, holds a non-finite value or lacks one,
    or a report that is no JSON object or has no integer spec.m and spec.r,
    gives exit 2, names the line, coefficient or key, and writes
    nothing."""
    fitdir = _fit_unit32(tmp_path, data_csv)
    coeff_path, report_path = fitdir / "coefficients.csv", fitdir / "fit_report.json"
    lines = coeff_path.read_text().splitlines()
    report = json.loads(report_path.read_text())
    if fault == "repeated_row":  # a later row overwrote the first one
        t, i, j, k, v = lines[1].split(",")
        lines.append(f"{t},{i},{j},{k},{float(v) + 1.0!r}")
        expected = f"line {len(lines)}: repeats the coefficient of line 2"
    elif fault in ("inf_value", "nan_value"):
        value = fault[:3]
        lines[2] = ",".join(lines[2].split(",")[:4] + [value])
        expected = f"line 3: value '{value}' is not finite"
    elif fault == "missing_rows":  # triangle 5's (2, 1, 0) is the first gap
        dropped = [line for line in lines if line.startswith(("5,2,1,0,", "7,"))]
        lines = [line for line in lines if line not in dropped]
        assert len(dropped) == 11
        expected = "11 missing, first triangle 5, (i, j, k) = (2, 1, 0)"
    elif fault == "bad_header":
        lines[0] = "triangle,i,j,k,coefficient"
        expected = "unexpected header 'triangle,i,j,k,coefficient'"
    elif fault == "triangle_out_of_range":  # square_unit_32 has triangles 0-31
        lines[2] = ",".join(["32"] + lines[2].split(",")[1:])
        expected = "line 3: triangle index 32 out of range"
    elif fault == "no_spec":
        del report["spec"]
        expected = "key spec.m"
    elif fault == "no_spec_r":
        del report["spec"]["r"]
        expected = "key spec.r"
    elif fault == "float_spec_m":
        report["spec"]["m"] = 3.0
        expected = "key spec.m"
    else:
        report = [report]
        expected = "does not hold a JSON object"
    coeff_path.write_text("\n".join(lines) + "\n")
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    dens = tmp_path / "dens.csv"
    assert cli.main([
        "density", "--bundled-mesh", "square_unit_32", "--fit-dir", str(fitdir),
        "--grid", "20", "--out", str(dens),
    ]) == 2
    assert not dens.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and expected in err["message"], err


def test_density_grid_zero_exit2(tmp_path, data_csv, capsys):
    fitdir = _fit_unit32(tmp_path, data_csv)
    capsys.readouterr()
    err = _rejected(tmp_path, capsys, [
        "density", "--bundled-mesh", "square_unit_32", "--fit-dir", str(fitdir), "--grid", "0",
    ], "ValidationError")
    assert err["message"] == "--grid must be at least 1"


@pytest.mark.parametrize("seed", [0, 1])
def test_fit_grid_equals_density_grid(tmp_path, seed):
    """fit --grid and density --grid write the same bytes: both normalize
    with the one log_integral_exp of the fitted coefficients."""
    data = tmp_path / "data.csv"
    write_points(data, np.random.default_rng(seed).random((200, 2)))
    fitdir = tmp_path / "fit"
    assert cli.main([
        "fit", "--bundled-mesh", "square_unit_32", "--data", str(data),
        "--lambda", "1e-2", "--grid", "60", "--out", str(fitdir),
    ]) == 0
    dens = tmp_path / "dens.csv"
    assert cli.main([
        "density", "--bundled-mesh", "square_unit_32", "--fit-dir", str(fitdir),
        "--grid", "60", "--out", str(dens),
    ]) == 0
    assert dens.read_bytes() == (fitdir / "density_grid.csv").read_bytes()


def test_density_missing_artifacts(tmp_path, capsys):
    code = cli.main([
        "density", "--bundled-mesh", "square_unit_32",
        "--fit-dir", str(tmp_path / "nope"), "--grid", "50",
        "--out", str(tmp_path / "d.csv"),
    ])
    assert code == 2


def _strict_json(path):
    """The JSON at path; a NaN, Infinity or -Infinity in it raises."""
    def reject(constant):
        raise ValueError(f"{path} holds {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_cv_writes_null_for_a_grid_cell_where_every_fold_failed(tmp_path, data_csv,
                                                                monkeypatch):
    # three iterations fail every fold at 1e-6 and leave the other weights finite
    starve_newton(monkeypatch, 3, estimator.GRAD_TOL, estimator.OBJ_TOL)
    flags = ["--bundled-mesh", "square_unit_32", "--data", data_csv,
             "--lambda-grid", "1e-6,1e-3,1", "--folds", "5", "--seed", "0"]
    assert cli.main(["cv", *flags, "--out", str(tmp_path / "cv.json")]) == 0
    cv_errors = _strict_json(tmp_path / "cv.json")["cv_errors"]
    assert cv_errors[0] is None
    assert all(isinstance(e, float) for e in cv_errors[1:])
    assert cli.main(["fit", *flags, "--out", str(tmp_path / "fit")]) == 0
    assert _strict_json(tmp_path / "fit" / "fit_report.json")["cv"]["cv_errors"] == cv_errors


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
    assert report["schema_version"] == cli.SCHEMA_VERSION


def test_cv_no_point_inside_exit2(tmp_path, capsys):
    data = tmp_path / "outside.csv"
    write_points(data, [[5.0, 5.0], [-3.0, 0.5]])
    code = cli.main([
        "cv", "--bundled-mesh", "square_unit_32", "--data", str(data),
        "--drop-outside", "--out", str(tmp_path / "cv.json"),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["message"]) == (
        "ValidationError", "no data points remain inside the domain")
    assert not (tmp_path / "cv.json").exists()


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


def test_simulate_grids_are_zero_outside_the_domain(tmp_path):
    out = tmp_path / "sim.json"
    assert cli.main([
        "simulate", "--scenario", "sim2", "--n", "600", "--reps", "1", "--seed", "1",
        "--grid", "50", "--folds", "5", "--emit-grids", "--out", str(out),
    ]) == 0
    for name in ("sim_true_density.csv", "sim_bpst_density.csv", "sim_kde_density.csv"):
        rows = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        outside = rows[:, 3] == 0
        assert outside.sum() > 0 and np.all(rows[outside, 2] == 0), name
        assert np.any(rows[~outside, 2] > 0), name


def test_simulate_emit_grids_fits_replication_0_once(tmp_path, monkeypatch):
    calls = {"space": 0, "select_lambda": 0, "select_kde_bandwidth": 0}

    def counted(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(estimator.ModelSpace, "__init__", "space")
    counted(model_selection, "select_lambda", "select_lambda")
    counted(simbench, "select_kde_bandwidth", "select_kde_bandwidth")
    assert cli.main([
        "simulate", "--scenario", "sim1", "--n", "60", "--reps", "2", "--seed", "4",
        "--grid", "50", "--folds", "5", "--emit-grids", "--out", str(tmp_path / "sim.json"),
    ]) == 0
    assert calls == {"space": 1, "select_lambda": 2, "select_kde_bandwidth": 2}
    monkeypatch.undo()
    # the grids equal those of replication 0 fitted on its own, as a fresh
    # replication_estimators call fits it
    scen = simbench.get_scenario("sim1")
    tr = scen.domain
    fresh = simbench.replication_estimators(scen, 60, 4, ("bpst", "kde"),
                                            spec=SplineSpec(3, 1), folds=5)
    expected = {
        "bpst": cli._grid_csv(tr, 50, lambda pts: fresh["bpst"].density(pts)[0]),
        "kde": cli._grid_csv(tr, 50, fresh["kde"]),
    }
    for method, text in expected.items():
        assert (tmp_path / f"sim_{method}_density.csv").read_text() == text


@pytest.mark.parametrize("failing", [0, 1])
def test_simulate_marks_a_failed_replication(tmp_path, monkeypatch, failing):
    real = simbench.select_kde_bandwidth

    def select(points, domain, folds=10, seed=0):
        if seed == 4 ^ failing:
            raise SingularBandwidth("forced")
        return real(points, domain, folds=folds, seed=seed)

    monkeypatch.setattr(simbench, "select_kde_bandwidth", select)
    assert cli.main([
        "simulate", "--scenario", "sim2", "--n", "60", "--reps", "2", "--seed", "4",
        "--methods", "kde", "--grid", "50", "--folds", "5", "--emit-grids",
        "--out", str(tmp_path / "sim.json"),
    ]) == 0
    rows = (tmp_path / "sim_replications.csv").read_text().splitlines()[1:]
    assert rows[failing] == f"{failing},kde,,failed"
    assert rows[1 - failing].endswith(",ok")
    report = json.loads((tmp_path / "sim.json").read_text())
    assert report["results"][0]["failures"] == [{"replication": failing, "message": "forced"}]
    # the kde grid is that of replication 0, so it is missing when that failed
    assert (tmp_path / "sim_kde_density.csv").exists() == (failing == 1)


def test_simulate_writes_null_mean_when_every_mise_is_not_finite(tmp_path, monkeypatch):
    monkeypatch.setattr(simbench, "mise", lambda est, scenario, resolution: float("inf"))
    assert cli.main([
        "simulate", "--scenario", "sim2", "--n", "60", "--reps", "2", "--seed", "4",
        "--methods", "kde", "--grid", "50", "--folds", "5", "--out", str(tmp_path / "sim.json"),
    ]) == 0
    (result,) = _strict_json(tmp_path / "sim.json")["results"]
    assert result["mean_mise"] is None
    assert result["per_replication"] == []
    assert result["failures"] == [{"replication": r, "message": "MISE is inf, not finite"}
                                  for r in (0, 1)]
    rows = (tmp_path / "sim_replications.csv").read_text().splitlines()[1:]
    assert rows == ["0,kde,,failed", "1,kde,,failed"]


def test_simulate_bad_method(tmp_path, capsys):
    assert cli.main([
        "simulate", "--scenario", "sim1", "--n", "10", "--reps", "1",
        "--methods", "magic", "--out", str(tmp_path / "x.json"),
    ]) == 2


def test_simulate_unknown_scenario_exit2(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert cli.main([
        "simulate", "--scenario", "bogus", "--n", "10", "--reps", "1", "--out", str(out),
    ]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"
    for name in ("'bogus'", "sim1", "sim2", "sim3"):
        assert name in err["message"]
    assert list(tmp_path.iterdir()) == []


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


def _child_env():
    """Environment of a fresh CLI interpreter: this checkout's src first on
    the path, one BLAS thread."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_fit_outputs_byte_identical_across_processes(tmp_path, data_csv):
    """Two fresh interpreters with one BLAS thread write the same bytes."""
    env = _child_env()
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"fit_{run}"
        proc = subprocess.run([
            sys.executable, "-m", "tridensity.cli", "fit", "--bundled-mesh", "square_unit_32",
            "--data", data_csv, "--lambda-grid", "1e-4,1e-2", "--folds", "3", "--grid", "30",
            "--out", str(out),
        ], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outs[0]) == ["coefficients.csv", "density_grid.csv", "fit_report.json"]
    assert outs[0] == outs[1]


def test_cv_forked_folds_write_the_serial_bytes(tmp_path, data_csv):
    """With one BLAS thread the folds run in forked workers on every usable
    CPU (given two) and in one process on one CPU; both write the same
    cv.json."""
    env = _child_env()
    outs = []
    for one_cpu in (False, True):
        out = tmp_path / f"cv{int(one_cpu)}.json"
        proc = subprocess.run([
            *cli_command(one_cpu), "cv", "--bundled-mesh", "square_unit_32",
            "--data", data_csv, "--lambda-grid", "1e-5,1e-3,1e-1", "--folds", "5",
            "--seed", "3", "--out", str(out),
        ], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
