import os
import re
import subprocess
import sys

import numpy as np
import pytest

import stokestab
from stokestab.cli import main
from stokestab.mesh import (load_msh, gen_zigzag, save_msh, gen_structured_tri,
                            gen_quad_macro, gen_extruded_tet)


def test_gen_and_reload(tmp_path):
    out = tmp_path / "m.msh"
    rc = main(["gen", "--kind", "zigzag", "--nx", "5", "--ny", "5",
               "--out", str(out)])
    assert rc == 0
    mesh = load_msh(out)
    assert mesh.num_cells == 50


def test_analyze_csv_deterministic(tmp_path):
    mesh_path = tmp_path / "m.msh"
    save_msh(gen_zigzag(5, 5), mesh_path)
    out1 = tmp_path / "a1.csv"
    out2 = tmp_path / "a2.csv"
    assert main(["analyze", str(mesh_path), "--out", str(out1)]) == 0
    assert main(["analyze", str(mesh_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "verdict_p1b-p1:p1" in text
    assert "regular" in text


def test_analyze_oracle_agreement(tmp_path):
    mesh_path = tmp_path / "m.msh"
    save_msh(gen_structured_tri(4, 4), mesh_path)
    out = tmp_path / "a.csv"
    rc = main(["analyze", str(mesh_path), "--oracle", "--out", str(out)])
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert "dim_p1b-p1:p1" in header
    assert "agree_p1b-p1:p1" in header


def test_unstructure_cli(tmp_path):
    mesh_path = tmp_path / "m.msh"
    save_msh(gen_structured_tri(8, 8), mesh_path)
    out = tmp_path / "u.msh"
    # verification of the structured mesh fails
    assert main(["unstructure", str(mesh_path), "--axis", "x",
                 "--verify-only"]) == 1
    assert main(["unstructure", str(mesh_path), str(out), "--axis", "x",
                 "--r", "0.15"]) == 0
    repaired = load_msh(out)
    assert repaired.num_vertices == 81


def test_solve_cavity_cli(tmp_path, capsys):
    mesh_path = tmp_path / "m.msh"
    save_msh(gen_zigzag(8, 8), mesh_path)
    rc = main(["solve-cavity", str(mesh_path), "--combo", "p1b-p1:p1",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "cavity.vtk").exists()
    # the p1b bubbles of the first component, one per cell
    assert re.search(r"saddle LU: \d+ unknowns, 128 bubbles condensed, "
                     r"L\+U fill \d+, \d+ refinements\n",
                     capsys.readouterr().out)


@pytest.mark.parametrize("eps", ["nan", "inf", "0"])
def test_solve_cavity_cli_rejects_a_bad_penalty(tmp_path, capsys, eps):
    mesh_path = tmp_path / "m.msh"
    save_msh(gen_zigzag(4, 4), mesh_path)
    assert main(["solve-cavity", str(mesh_path), "--eps", eps, "--out-dir",
                 str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("error: penalization parameter must "
                                       "be positive and finite, got "
                                       f"{float(eps)}\n")


@pytest.mark.parametrize("amplitude", ["nan", "inf", "1e308"])
def test_gen_rejects_an_amplitude_it_cannot_draw(tmp_path, capsys, amplitude):
    out = tmp_path / "p.msh"
    assert main(["gen", "--kind", "perturbed-zigzag", "--amplitude",
                 amplitude, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: amplitude must be finite and >= 0")
    assert err.endswith(f"got {float(amplitude)}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, bad", [
    (["gen", "--kind", "perturbed-zigzag", "--seed", "-3", "--out", "z.msh"],
     -3),
    # a kind that draws nothing checks the seed too
    (["gen", "--kind", "structured", "--seed", "-3", "--out", "z.msh"], -3),
    # test3's levels draw with the seed plus the level, and the error names
    # the seed typed
    (["run", "test3", "--seed", "-50", "--out-dir", "."], -50),
    (["run", "test3", "--seed", "-1", "--levels", "2", "--out-dir", "."], -1),
    # test5 draws nothing
    (["run", "test5", "--seed", "-7", "--out-dir", "."], -7),
], ids=["gen", "gen-structured", "run-test3", "run-test3-minus-1",
        "run-test5"])
def test_negative_seed_is_clean_error(tmp_path, capsys, monkeypatch, argv,
                                      bad):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"error: seed must be a non-negative integer, got {bad}\n"
    assert not (tmp_path / "z.msh").exists()


def test_infsup_cli(tmp_path, capsys):
    mesh_path = tmp_path / "m.msh"
    save_msh(gen_zigzag(6, 6), mesh_path)
    out = tmp_path / "b.csv"
    rc = main(["infsup", str(mesh_path), "--combo", "p1b-p1:p1", "-k", "3",
               "--out", str(out)])
    assert rc == 0
    assert "beta" in out.read_text()
    # one bubble condensed per cell of the 6x6 grid
    assert re.search(r"saddle LU: \d+ unknowns, 72 bubbles condensed, "
                     r"L\+U fill \d+\n", capsys.readouterr().out)


@pytest.mark.parametrize("k", ["0", "-3"])
def test_infsup_cli_rejects_k_below_one(tmp_path, capsys, k):
    mesh_path = tmp_path / "m.msh"
    save_msh(gen_zigzag(4, 4), mesh_path)
    assert main(["infsup", str(mesh_path), "-k", k]) == 2
    assert capsys.readouterr().err == "error: k, the number of eigenvalues, " \
        f"must be an integer >= 1, got {k}\n"


def test_infsup_cli_rejects_fewer_than_three_pressures(tmp_path, capsys):
    # two P0 pressures: one left modulo constants, no eigenvalue to ask for
    mesh_path = tmp_path / "s1.msh"
    save_msh(gen_structured_tri(1, 1), mesh_path)
    assert main(["infsup", str(mesh_path), "--combo", "p1b-p1:p0"]) == 2
    assert capsys.readouterr().err == "error: the inf-sup constant needs " \
        "at least 3 pressure dofs, got n_p = 2\n"


def test_gen_cube_rejects_empty_sizes(tmp_path, capsys):
    out = tmp_path / "c.msh"
    assert main(["gen", "--kind", "cube", "--nx", "0", "--out",
                 str(out)]) == 2
    assert capsys.readouterr().err == "error: nx, ny, nz must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["convergence", "--levels", "0"], "at least one mesh"),
    (["run", "test3", "--levels", "1"], "test3 measures orders between "
     "levels and needs at least 2, got 1"),
    (["run", "test8", "--levels", "1"], "test8 measures orders between "
     "levels and needs at least 2, got 1"),
    (["run", "test3", "--levels", "0"], "needs at least 2, got 0"),
], ids=["convergence-0", "test3-1", "test8-1", "test3-0"])
def test_too_few_levels_is_clean_error(tmp_path, capsys, argv, message):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_convergence_cli_one_level(tmp_path, capsys):
    assert main(["convergence", "--levels", "1", "--out-dir",
                 str(tmp_path)]) == 0
    assert "levels=[3]" in capsys.readouterr().out
    rows = (tmp_path / "convergence.csv").read_text().splitlines()
    assert len(rows) == 2


def test_run_scenario_unknown():
    with pytest.raises(SystemExit):
        main(["run", "nope"])


def test_run_q2q1q1_check_and_determinism(tmp_path):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    assert main(["run", "q2q1q1", "--out-dir", str(d1), "--check"]) == 0
    assert main(["run", "q2q1q1", "--out-dir", str(d2), "--check"]) == 0
    f1 = (d1 / "q2q1q1_spectrum.csv").read_bytes()
    f2 = (d2 / "q2q1q1_spectrum.csv").read_bytes()
    assert f1 == f2


def test_bad_mesh_path_is_clean_error(capsys):
    rc = main(["analyze", "/nonexistent/mesh.msh"])
    assert rc == 2 or rc == 1


def test_analyze_empty_interior_mesh(tmp_path):
    from stokestab.mesh import Mesh
    triangle = Mesh(2, "triangle", [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    tet = Mesh(3, "tetrahedron", np.vstack([np.zeros(3), np.eye(3)]),
               [(0, 1, 2, 3)])
    for mesh, combo in ((triangle, []), (tet, ["--combo", "p1b-p1-p1:p1"])):
        mesh_path = tmp_path / "t.msh"
        save_msh(mesh, mesh_path)
        for oracle in ([], ["--oracle"]):
            out = tmp_path / "a.csv"
            with pytest.warns(UserWarning, match="interior"):
                rc = main(["analyze", str(mesh_path), "--out", str(out)]
                          + combo + oracle)
            assert rc == 0
            lines = out.read_text().splitlines()
            assert len(lines) == 1  # header only
            assert ("dim_" in lines[0]) == bool(oracle)


def test_analyze_tet_mesh(tmp_path, capsys):
    mesh_path = tmp_path / "ext.msh"
    save_msh(gen_extruded_tet(gen_zigzag(4, 4), 2), mesh_path)
    out = tmp_path / "a.csv"
    # the default combinations are 2D
    assert main(["analyze", str(mesh_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: unsupported combo p1b-p1:p1 for 3D prediction\n"
    assert main(["analyze", str(mesh_path), "--combo",
                 "p1b-p1-p1:p1,p1b-p1b-p1:p1", "--oracle",
                 "--out", str(out)]) == 0
    assert "oracle agreement on 9/9 macro-elements" in capsys.readouterr().out
    header, *rows = out.read_text().splitlines()
    assert header.split(",") == [
        "vertex", "n_v", "x_structured", "y_structured", "z_structured",
        "semi_planes", "verdict_p1b-p1-p1:p1", "verdict_p1b-p1b-p1:p1",
        "dim_p1b-p1-p1:p1", "agree_p1b-p1-p1:p1", "dim_p1b-p1b-p1:p1",
        "agree_p1b-p1b-p1:p1"]
    assert len(rows) == 9


@pytest.mark.parametrize("argv", [
    ["infsup", "{mesh}", "--combo", "p1b-p1:p1"],
    ["unstructure", "{mesh}", "{out}", "--r", "0.2"],
    ["analyze", "{mesh}"],
    ["analyze", "{mesh}", "--oracle"],
], ids=["infsup", "unstructure", "analyze", "analyze-oracle"])
def test_quad_mesh_is_clean_error(tmp_path, capsys, argv):
    mesh_path = tmp_path / "quad.msh"
    save_msh(gen_quad_macro(), mesh_path)
    argv = [a.format(mesh=mesh_path, out=tmp_path / "out.msh") for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "triangular" in err


def test_analyze_oracle_and_test5_read_the_star_passes(tmp_path,
                                                       monkeypatch):
    # no MacroElement list is built, and each (mesh, combination) runs the
    # oracle pass once
    import stokestab.infsup as infsup
    import stokestab.macroelement as me
    builds, oracles = [], []
    build, oracle = me._build_macroelements, infsup._star_oracles

    def counting_build(mesh):
        builds.append(mesh)
        return build(mesh)

    def counting_oracle(mesh, combo):
        oracles.append((mesh, combo))  # kept alive: ids stay unique
        return oracle(mesh, combo)

    monkeypatch.setattr(me, "_build_macroelements", counting_build)
    monkeypatch.setattr(infsup, "_star_oracles", counting_oracle)
    mesh_path = tmp_path / "m.msh"
    save_msh(gen_zigzag(4, 4), mesh_path)
    out = tmp_path / "a.csv"
    assert main(["analyze", str(mesh_path), "--oracle", "--out",
                 str(out)]) == 0
    assert len({(id(m), c) for m, c in oracles}) == len(oracles) == 3
    assert main(["run", "test5", "--out-dir", str(tmp_path)]) == 0
    assert len({(id(m), c) for m, c in oracles}) == len(oracles) == 3 + 6
    assert builds == []


@pytest.mark.parametrize("scenario", ["test2", "test9"])
def test_run_oscillation_ratio_is_gated(tmp_path, capsys, scenario):
    assert main(["run", scenario, "--out-dir", str(tmp_path), "--check"]) == 0
    out = capsys.readouterr().out
    assert "oscillation ratio structured/unstructured" in out
    assert "[PASS] min_oscillation_ratio(" in out


def test_run_test1_reports_solver_diagnostics(tmp_path, capsys):
    assert main(["run", "test1", "--out-dir", str(tmp_path), "--check"]) == 0
    # 15x15 herringbone: 256 vertices, 450 cells; 450 bubbles condensed,
    # and the first solve is already at rounding level
    out = capsys.readouterr().out
    assert re.search(r"saddle system: 1098 unknowns, 450 bubbles condensed, "
                     r"L\+U fill \d+, 0 refinements\n", out)


@pytest.mark.parametrize("name, overrides", [
    ("test1", {}), ("test5", {}), ("q2q1q1", {}),
    ("test3", {"levels": [2, 3]}),
], ids=["test1", "test5", "q2q1q1", "test3"])
def test_convergence_checks_cover_every_threshold(tmp_path, name, overrides):
    from stokestab.scenarios import load_thresholds, run_scenario
    res = run_scenario(name, out_dir=str(tmp_path), check=True, **overrides)
    keys = list(load_thresholds()[name])
    assert [c.name.split("(")[0] for c in res.checks] == keys


def test_run_rejects_unused_override(tmp_path, capsys):
    assert main(["run", "test1", "--out-dir", str(tmp_path / "o"),
                 "--r", "0.3"]) == 2
    assert "scenario test1 takes no --r" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_failing_bound_exits_1(tmp_path, capsys, monkeypatch):
    import stokestab.scenarios as scen
    original = scen.load_thresholds

    def strict():
        cfg = original()
        cfg["q2q1q1"]["max_residual"] = "0"
        return cfg

    monkeypatch.setattr(scen, "load_thresholds", strict)
    assert main(["run", "q2q1q1", "--out-dir", str(tmp_path), "--check"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] max_residual(0):" in out
    assert "[PASS] min_nullspace_dim(1):" in out


def _drop_facet_records(path):
    """Rewrite the MSH file at path without its line (facet) records."""
    lines = path.read_text().splitlines()
    start, end = lines.index("$Elements") + 2, lines.index("$EndElements")
    cells = [ln for ln in lines[start:end] if ln.split()[1] != "1"]
    lines[start - 1:end] = [str(len(cells)), *cells]
    path.write_text("\n".join(lines) + "\n")


def test_solve_cavity_cli_without_facet_records(tmp_path, capsys):
    mesh_path = tmp_path / "m.msh"
    save_msh(gen_zigzag(8, 8), mesh_path)
    _drop_facet_records(mesh_path)
    assert not load_msh(mesh_path).boundary_tags.any()
    argv = ["solve-cavity", str(mesh_path), "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert (tmp_path / "cavity.vtk").exists()
    capsys.readouterr()
    assert main(argv + ["--variant", "neumann_lid"]) == 2
    assert capsys.readouterr().err == \
        "error: mesh has no boundary facets tagged as top\n"


def test_analyze_orphan_node_is_clean_error(tmp_path, capsys):
    # node 5 belongs to no triangle
    mesh_path = tmp_path / "orphan.msh"
    mesh_path.write_text(
        "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n5\n1 0 0 0\n2 1 0 0\n"
        "3 1 1 0\n4 0 1 0\n5 0.5 2 0\n$EndNodes\n$Elements\n2\n"
        "1 2 2 0 0 1 2 3\n2 2 2 0 0 1 3 4\n$EndElements\n")
    assert main(["analyze", str(mesh_path), "--out",
                 str(tmp_path / "a.csv")]) == 2
    assert capsys.readouterr().err == "error: vertex 4 belongs to no cell\n"


def test_python_m_stokestab_runs_the_cli():
    # a checkout runs the command line with only src on the path
    src = os.path.dirname(os.path.dirname(stokestab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "stokestab", "run", "--help"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: ")
