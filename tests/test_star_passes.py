"""The per-mesh passes behind the predicates and the witness pressures,
against the per-macro code they replaced (tests/per_macro.py)."""

import dataclasses
import itertools

import numpy as np
import pytest

import per_macro
import stokestab.infsup as infsup
import stokestab.macroelement as macroelement
from stokestab.fespace import FECombo, FESpaceError
from stokestab.infsup import (analytic_singular_pressure, global_counterexample,
                              local_nullspace, nullspace_residual,
                              oracle_report)
from stokestab.macroelement import (build_macroelements, classify_2d,
                                    classify_3d, predict_regularity,
                                    predict_regularity_3d, structure_report)
from stokestab.mesh import (MeshError, gen_extruded_tet, gen_perturbed,
                            gen_quad_macro, gen_structured_cube,
                            gen_structured_tri, gen_zigzag)
from stokestab.scenarios import decay_family_mesh, unstructured_family_mesh
from stokestab.unstructure import UnstructureConfig, apply_algorithm1

from stars import (meridian_star_3d, random_s_zero_star, random_star_2d,
                   random_star_3d, symmetric_hexagon)

SPLIT_2D = ["p1b-p1:p1", "p1-p1b:p1", "p2-p1:p1", "p1-p2:p1"]
SPLIT_3D = ["p1-p1b-p1b:p1", "p1b-p1-p1b:p1", "p1b-p1b-p1:p1",
            "p1b-p1-p1:p1", "p1-p1b-p1:p1", "p1-p1-p1b:p1"]


def _repaired(seed, axis="y"):
    jitter = gen_perturbed(gen_structured_tri(8, 8), 0.3 / 8, seed)
    return apply_algorithm1(jitter, UnstructureConfig(0.15, axis))


def _meshes_2d():
    rng = np.random.default_rng(7)
    meshes = [gen_structured_tri(8, 8), gen_structured_tri(5, 3),
              gen_zigzag(8, 8), gen_zigzag(5, 6), symmetric_hexagon().mesh,
              gen_perturbed(gen_structured_tri(6, 6), 0.04, 3)]
    meshes += [_repaired(seed) for seed in range(6)]
    meshes += [_repaired(seed, "x") for seed in (1, 2)]
    meshes += [random_star_2d(rng, aligned=a, axis=ax).mesh
               for a in (0, 1, 2) for ax in "xy" for _ in range(3)]
    meshes += [random_s_zero_star(rng, n_v=n, axis=ax).mesh
               for n in (4, 6, 8) for ax in "xy"]
    return meshes


def _meshes_3d():
    rng = np.random.default_rng(8)
    meshes = [gen_extruded_tet(unstructured_family_mesh(3, 1), 2),
              gen_extruded_tet(gen_zigzag(4, 4), 2),
              gen_structured_cube(3, 3, 3), random_star_3d(rng).mesh]
    meshes += [meridian_star_3d(rng, az, axis=axis).mesh for axis in range(3)
               for az in ([0.7, 0.7 + np.pi], [0.4, 2.1], [0.0, 2.0, 4.0])]
    return meshes


def _same(a, b):
    return a is b is None or (a is not None and b is not None
                              and a.dtype == b.dtype and a.shape == b.shape
                              and a.tobytes() == b.tobytes())


def test_passes_match_the_per_macro_reference():
    # every star of every mesh, with every combination that has a split
    # rule: the reasons and flags are equal and the witnesses bitwise equal
    reasons, witnesses, four_rings = set(), set(), 0
    for mesh in _meshes_2d() + _meshes_3d():
        macros = build_macroelements(mesh)
        combos = SPLIT_2D if mesh.dim == 2 else SPLIT_3D
        assert structure_report(mesh, combos) == \
            per_macro.structure_report(mesh, combos)
        for macro, combo in itertools.product(macros, combos):
            if mesh.dim == 2:
                assert classify_2d(macro) == per_macro.classify_2d(macro)
                got = predict_regularity(macro, combo)
                assert got == per_macro.predict_regularity(macro, combo)
            else:
                assert classify_3d(macro) == per_macro.classify_3d(macro)
                got = predict_regularity_3d(macro, combo)
                assert got == per_macro.predict_regularity_3d(macro, combo)
            reasons.add(got.reason)
            p = analytic_singular_pressure(macro, combo)
            try:
                ref = per_macro.analytic_singular_pressure(macro, combo)
            except AssertionError:
                # the per-vertex continuity check of the reference fails
                # where the witness vanishes at a ring vertex
                assert macro.n_v == 4
                ns = local_nullspace(macro, combo)
                assert nullspace_residual(ns, p) <= 1e-11
                four_rings += 1
            else:
                assert _same(p, ref)
            if p is not None:
                witnesses.add((mesh.dim, macroelement._SPLITS[FECombo.parse(combo)][0],
                               got.reason))
    assert reasons == {"two-aligned", "one-aligned", "no-aligned", "odd-nV",
                       "even-nV-S-zero", "even-nV-S-nonzero", "3d-axis-split",
                       "3d-axis-unsplit", "3d-semiplane-case-1",
                       "3d-semiplane-case-2", "3d-semiplane-case-3"}
    assert witnesses == {
        (2, "bubble", "two-aligned"), (2, "quadratic", "two-aligned"),
        (2, "quadratic", "even-nV-S-zero"), (3, "plane", "3d-axis-split"),
        (3, "semi-planes", "3d-semiplane-case-2")}
    assert four_rings == 2
    for mesh in (gen_quad_macro(), gen_quad_macro((0.7, 1.3), (1.0, 1.0))):
        macro, = build_macroelements(mesh)
        assert _same(analytic_singular_pressure(macro, "q2-q1:q1"),
                     per_macro.analytic_singular_pressure(macro, "q2-q1:q1"))


@pytest.mark.parametrize("make, combos", [
    (lambda: gen_structured_cube(3, 3, 3), SPLIT_3D),
    (lambda: gen_extruded_tet(unstructured_family_mesh(3, 1), 2), SPLIT_3D),
    (lambda: _repaired(0), SPLIT_2D)], ids=["kuhn", "extruded", "repaired"])
def test_oracle_report_matches_the_per_macro_views(make, combos):
    # the join reads the same verdicts and oracle dims as the per-macro
    # views, star by star, after the structure report's columns
    mesh = make()
    header, rows = oracle_report(mesh, combos)
    base, base_rows = structure_report(mesh, combos)
    assert header == base + [f"{h}_{c}" for c in combos
                             for h in ("dim", "agree")]
    assert [row[:len(base)] for row in rows] == base_rows
    predict = predict_regularity if mesh.dim == 2 else predict_regularity_3d
    ref = []
    for macro in build_macroelements(mesh):
        row = {}
        if mesh.dim == 3:
            f = classify_3d(macro)
            row = {"vertex": macro.center, "n_v": macro.n_v,
                   "x_structured": int(f.x_structured),
                   "y_structured": int(f.y_structured),
                   "z_structured": int(f.z_structured),
                   "semi_planes": f.semi_plane_count}
        for c in combos:
            v, dim = predict(macro, c), local_nullspace(macro, c).dim
            row |= {f"verdict_{c}": v.predicted, f"dim_{c}": dim,
                    f"agree_{c}": int(v.regular == (dim == 0))}
        ref.append(row)
    assert [{h: r[header.index(h)] for h in want}
            for r, want in zip(rows, ref)] == ref
    assert len(rows) == len(ref)


@pytest.mark.parametrize("make", [
    lambda: gen_structured_tri(6, 6), lambda: gen_zigzag(6, 6),
    lambda: decay_family_mesh(2, 0), lambda: unstructured_family_mesh(3, 4),
    lambda: symmetric_hexagon().mesh])
def test_mini_is_regular_and_p1_p1_singular_on_every_star(make):
    mesh = make()
    for macro in build_macroelements(mesh):
        mini = predict_regularity(macro, "p1b-p1b:p1")
        assert (mini.predicted, mini.reason) == ("regular", "cell-bubbles")
        assert local_nullspace(macro, "p1b-p1b:p1").dim == 0
        p1 = predict_regularity(macro, "p1-p1:p1")
        assert (p1.predicted, p1.reason) == ("singular", "center-dofs-only")
        assert local_nullspace(macro, "p1-p1:p1").dim == macro.n_v - 2
        for combo in ("p1b-p1b:p1", "p1-p1:p1"):
            assert analytic_singular_pressure(macro, combo) is None
    for combo in ("p1b-p1b:p1", "p1-p1:p1"):
        with pytest.raises(FESpaceError, match="no layered counterexample"):
            global_counterexample(mesh, combo)


def test_each_pass_runs_once_per_mesh_and_combo(monkeypatch):
    calls = []

    def counting(module, name):
        run = getattr(module, name)
        monkeypatch.setattr(module, name, lambda mesh, key: calls.append(
            (name, str(key))) or run(mesh, key))

    counting(macroelement, "_find_axis_2d")
    counting(macroelement, "_find_star_splits")
    counting(macroelement, "_find_verdicts")
    counting(infsup, "_star_witnesses")
    mesh, twin = gen_structured_tri(5, 5), gen_structured_tri(5, 5)
    combos = ("p1b-p1:p1", "p2-p1:p1", "p1-p2:p1")
    for _ in range(2):
        structure_report(mesh, combos)
        for macro in build_macroelements(mesh):
            classify_2d(macro)
            for combo in combos:
                predict_regularity(macro, combo)
                assert analytic_singular_pressure(macro, combo) is not None
    assert sorted(calls) == sorted(
        [("_find_axis_2d", "0"), ("_find_axis_2d", "1")]
        + [(name, c) for c in combos
           for name in ("_find_verdicts", "_star_witnesses")])
    analytic_singular_pressure(build_macroelements(twin)[0], "p2-p1:p1")
    # a new mesh is a new pass: axis, verdicts, witnesses
    assert sorted(calls[len(calls) - 3:]) == [
        ("_find_axis_2d", "1"), ("_find_verdicts", "p2-p1:p1"),
        ("_star_witnesses", "p2-p1:p1")]
    # in 3D, one split pass per axis, whichever combinations and flags ask
    del calls[:]
    cube = gen_structured_cube(3, 3, 3)
    with pytest.warns(UserWarning, match="no interior vertex"):
        build_macroelements(cube)
    combos = ("p1-p1b-p1b:p1", "p1b-p1-p1:p1", "p1-p1-p1b:p1")
    for _ in range(2):
        for macro in build_macroelements(cube):
            classify_3d(macro)
            for combo in combos:
                predict_regularity_3d(macro, combo)
                analytic_singular_pressure(macro, combo)
    assert sorted(calls) == sorted(
        [("_find_star_splits", str(axis)) for axis in range(3)]
        + [(name, c) for c in combos
           for name in ("_find_verdicts", "_star_witnesses")])


def test_every_view_rejects_a_vertex_that_centers_no_star():
    # a hand-made macro whose center is a boundary vertex has no row in the
    # star table: no view may answer with another star's row
    with pytest.warns(UserWarning, match="no interior vertex"):
        tri = build_macroelements(gen_zigzag(4, 4))[0]
        tet = build_macroelements(gen_structured_cube(3, 3, 3))[0]
    tri, tet = (dataclasses.replace(m, center=0) for m in (tri, tet))
    for ask in (tri.diameter, lambda: classify_2d(tri),
                lambda: predict_regularity(tri, "p2-p1:p1"),
                lambda: analytic_singular_pressure(tri, "p1b-p1:p1"),
                lambda: local_nullspace(tri, "p2-p1:p1"),
                lambda: classify_3d(tet),
                lambda: predict_regularity_3d(tet, "p1-p1-p1b:p1"),
                lambda: analytic_singular_pressure(tet, "p1-p1-p1b:p1")):
        with pytest.raises(MeshError, match="^vertex 0 is not the center of "
                           "an interior star of its mesh$"):
            ask()


def test_witnesses_are_shared_and_read_only():
    macro = build_macroelements(gen_structured_tri(4, 4))[0]
    p = analytic_singular_pressure(macro, "p2-p1:p1")
    assert analytic_singular_pressure(macro, "p2-p1:p1") is p
    with pytest.raises(ValueError, match="read-only"):
        p[...] = 0
    with pytest.raises(ValueError):
        p.setflags(write=True)
