import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokestab.fespace import FESpaceError
from stokestab.mesh import (gen_structured_tri, gen_zigzag, Mesh, MeshError,
                            TRIANGLE)
from stokestab.macroelement import (
    build_macroelements, classify_2d, classify_3d, s_condition,
    predict_regularity, predict_regularity_3d,
)

import per_macro
from stars import (
    ccw_ring, star_macro_2d, symmetric_hexagon, random_star_2d,
    random_s_zero_star, random_star_3d, meridian_star_3d,
)

# ring geometries lifted from hand-drawn singular/regular configurations
RING_Y_STRUCTURED = [(2, 0), (0.2, 1.8), (-2, 0), (-0.5, -1.8), (1.5, -1.8)]
RING_UNSTRUCTURED = [(2, 0.9), (-0.5, 1.8), (-2.5, -0.45), (-0.5, -1.8),
                     (1.5, -1.8)]
RING_TWO_ALIGNED_6 = [(2.5, 0), (2.5, 1.5), (0, 1.5), (-2.5, 0),
                      (-2.5, -1.5), (0, -1.5)]
RING_ODD_5 = [(2.7, -0.54), (1.35, 1.8), (-1.35, 1.8), (-2.7, -0.9),
              (1.35, -1.8)]
RING_QUADRANTS = [(2.25, 0.625), (-1.5, 1.25), (-3, -1.25), (1.5, -1.25)]


def test_build_structured_tri_macros():
    mesh = gen_structured_tri(4, 3)
    macros = build_macroelements(mesh)
    assert len(macros) == 6
    for m in macros:
        assert m.n_v == 6
        assert len(m.cells) == 6
        # ring angles strictly increasing
        assert np.all(np.diff(m.angles) > 0)
        # cell areas cover the star
        star_area = mesh.cell_measures()[m.cells].sum()
        assert np.isclose(m.areas.sum(), star_area, rtol=1e-12)


def test_build_zigzag_2x2():
    macros = build_macroelements(gen_zigzag(2, 2))
    assert len(macros) == 1
    assert 4 <= macros[0].n_v <= 8


def test_single_triangle_warns_and_empty():
    mesh = Mesh(2, TRIANGLE, [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    with pytest.warns(UserWarning, match="interior"):
        macros = build_macroelements(mesh)
    assert macros == []


def test_classify_y_structured_fixture():
    macro = star_macro_2d(RING_Y_STRUCTURED)
    flags = classify_2d(macro)
    assert flags.y_structured
    assert not flags.x_structured
    assert flags.aligned_count_y == 2


def test_classify_unstructured_fixture():
    flags = classify_2d(star_macro_2d(RING_UNSTRUCTURED))
    assert not flags.x_structured
    assert not flags.y_structured


def test_classify_structured_tri_macros():
    for m in build_macroelements(gen_structured_tri(4, 4)):
        f = classify_2d(m)
        assert f.x_structured and f.y_structured


def test_classify_zigzag_macros():
    for m in build_macroelements(gen_zigzag(6, 6)):
        f = classify_2d(m)
        assert f.x_structured
        assert not f.y_structured
        # uniform unstructuredness constant of the generator family
        assert f.min_sin >= 1 / np.sqrt(5) - 1e-12


def test_s_condition_hexagon_zero():
    macro = symmetric_hexagon(1.1, 0.4)
    assert abs(s_condition(macro)) <= 1e-13 * np.sum(1.0 / macro.areas)
    macro2 = symmetric_hexagon(2.2, 0.9)
    assert abs(s_condition(macro2)) <= 1e-13 * np.sum(1.0 / macro2.areas)


def test_s_condition_quadrants_negative_definite_sign():
    macro = star_macro_2d(RING_QUADRANTS)
    s = s_condition(macro)
    assert abs(s) > 1e-6 * np.sum(1.0 / macro.areas)
    # every term has the same sign, so the sum is bounded away from zero
    # (sign itself depends on the ring starting spoke)


def test_s_condition_matches_independent_evaluation():
    rng = np.random.default_rng(0)
    macro = random_star_2d(rng, n_v=6)
    # independent re-evaluation straight from coordinates
    q0 = macro.q0
    ring = macro.ring_coords()
    n = len(ring)
    s_ref = 0.0
    for k in range(n):
        d = ring[k] - q0
        cot = d[0] / d[1]
        a_prev = macro.areas[(k - 1) % n]
        a_next = macro.areas[k]
        s_ref += (-1) ** (k + 1) * cot * (1 / a_prev + 1 / a_next)
    assert np.isclose(s_condition(macro), s_ref, rtol=1e-12)


def test_s_condition_perturbation_changes_value():
    macro = symmetric_hexagon()
    ring = macro.ring_coords().copy()
    th = 1e-3
    c, s = np.cos(th), np.sin(th)
    ring[0] = (c * ring[0][0] - s * ring[0][1], s * ring[0][0] + c * ring[0][1])
    macro2 = star_macro_2d(ring)
    assert abs(s_condition(macro2)) > 1e-5
    assert abs(s_condition(macro)) < 1e-13 * np.sum(1.0 / macro.areas)


def test_s_condition_rejects_aligned():
    macro = star_macro_2d(RING_Y_STRUCTURED)
    with pytest.raises(ValueError, match="aligned"):
        s_condition(macro, "y")


def test_predict_bubble_combos():
    ys = star_macro_2d(RING_Y_STRUCTURED)
    assert predict_regularity(ys, "p1b-p1:p1").predicted == "singular"
    assert predict_regularity(ys, "p1-p1b:p1").predicted == "regular"
    uns = star_macro_2d(RING_UNSTRUCTURED)
    assert predict_regularity(uns, "p1b-p1:p1").predicted == "regular"
    assert predict_regularity(uns, "p1-p1b:p1").predicted == "regular"


def test_predict_p2_cases():
    two = star_macro_2d(RING_TWO_ALIGNED_6)
    v = predict_regularity(two, "p2-p1:p1")
    assert v.predicted == "singular" and v.reason == "two-aligned"

    odd = star_macro_2d(RING_ODD_5)
    v = predict_regularity(odd, "p2-p1:p1")
    assert v.predicted == "regular" and v.reason == "odd-nV"

    hexa = symmetric_hexagon()
    v = predict_regularity(hexa, "p2-p1:p1")
    assert v.predicted == "singular" and v.reason == "even-nV-S-zero"

    quad = star_macro_2d(RING_QUADRANTS)
    v = predict_regularity(quad, "p2-p1:p1")
    assert v.predicted == "regular" and v.reason == "even-nV-S-nonzero"


def test_predict_one_aligned_regular():
    rng = np.random.default_rng(4)
    macro = random_star_2d(rng, n_v=6, aligned=1)
    v = predict_regularity(macro, "p1b-p1:p1")
    assert v.predicted == "regular" and v.reason == "one-aligned"
    v2 = predict_regularity(macro, "p2-p1:p1")
    assert v2.predicted == "regular" and v2.reason == "one-aligned"


def test_predict_unsupported_combo():
    macro = symmetric_hexagon()
    with pytest.raises(ValueError, match="unsupported"):
        predict_regularity(macro, "p2-p2:p1")


@pytest.mark.parametrize("combo", ["p1b-p1:p1", "p2-p1:p1", "p1-p1b:p1",
                                   "p1-p2:p1", "p1b-p1b:p1", "p1-p1:p1"])
def test_predict_rejects_simplex_combos_on_a_rectangle_macro(combo):
    # as the local oracle does: no simplex space lives on rectangles
    from stokestab.infsup import local_nullspace
    from stokestab.mesh import gen_quad_macro
    macro, = build_macroelements(gen_quad_macro())
    with pytest.raises(FESpaceError, match="incompatible with quadrilateral"):
        local_nullspace(macro, combo)
    with pytest.raises(FESpaceError, match=f"^combo {re.escape(combo)} "
                       "incompatible with quadrilateral mesh$"):
        predict_regularity(macro, combo)
    with pytest.raises(MeshError, match="triangular"):
        classify_2d(macro)


# every 2- and 3-component combination of p1, p1b and p2 with a p1 pressure,
# and the ones that have a star-splitting rule; MINI (regular on every star)
# and P1-P1 (singular on every star) have one that reads no geometry
ALL_COMBOS = ["-".join(v) + ":p1" for n in (2, 3)
              for v in itertools.product(("p1", "p1b", "p2"), repeat=n)]
RULES_2D = {"p1b-p1:p1", "p1-p1b:p1", "p2-p1:p1", "p1-p2:p1", "p1b-p1b:p1",
            "p1-p1:p1"}
RULES_3D = {"p1-p1b-p1b:p1", "p1b-p1-p1b:p1", "p1b-p1b-p1:p1",
            "p1b-p1-p1:p1", "p1-p1b-p1:p1", "p1-p1-p1b:p1"}


@pytest.fixture(scope="module")
def center_stars():
    """A 2D star aligned along both axes and a generic tet star."""
    return (star_macro_2d(RING_TWO_ALIGNED_6),
            random_star_3d(np.random.default_rng(0)))


@pytest.mark.parametrize("combo", ALL_COMBOS)
def test_predicates_accept_exactly_the_combos_with_a_split_rule(
        combo, center_stars):
    m2, m3 = center_stars
    for predict, macro, rules, dim in [(predict_regularity, m2, RULES_2D, 2),
                                       (predict_regularity_3d, m3, RULES_3D,
                                        3)]:
        if combo in rules:
            assert predict(macro, combo).predicted in ("regular", "singular")
        else:
            text = f"unsupported combo {combo} for {dim}D prediction"
            with pytest.raises(FESpaceError, match=f"^{re.escape(text)}$"):
                predict(macro, combo)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.4, 3.0), st.floats(0.2, 2.0),
       st.floats(-5, 5), st.floats(-5, 5))
def test_classification_translation_invariant(a, b, tx, ty):
    pts = np.array([(a, b), (0.0, 2 * b), (-a, b), (-a, -b), (0.0, -2 * b),
                    (a, -b)])
    m0 = star_macro_2d(pts)
    m1 = star_macro_2d(pts + np.array([tx, ty]), q0=(tx, ty))
    f0, f1 = classify_2d(m0), classify_2d(m1)
    assert f0.x_structured == f1.x_structured
    assert f0.y_structured == f1.y_structured
    assert np.isclose(f0.min_sin, f1.min_sin, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_swap_xy_swaps_roles(seed):
    rng = np.random.default_rng(seed)
    macro = random_star_2d(rng)
    pts = macro.ring_coords()
    swapped = star_macro_2d(pts[::-1, ::-1])  # swap coords, rewind ccw
    f, g = classify_2d(macro), classify_2d(swapped)
    assert f.x_structured == g.y_structured
    assert f.y_structured == g.x_structured
    assert np.isclose(f.min_sin, g.min_cos, atol=1e-12)
    assert np.isclose(f.min_cos, g.min_sin, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 8.0))
def test_s_scaling_law(seed, lam):
    rng = np.random.default_rng(seed)
    macro = random_star_2d(rng, n_v=6)
    s0 = s_condition(macro)
    scaled = star_macro_2d(lam * macro.ring_coords())
    s1 = s_condition(scaled)
    assert np.isclose(s1 * lam ** 2, s0, rtol=1e-9)
    # the zero test is scale invariant
    assert np.isclose(s1 / np.sum(1.0 / scaled.areas),
                      s0 / np.sum(1.0 / macro.areas), rtol=1e-9)


def test_s_sign_flips_under_ring_rotation():
    rng = np.random.default_rng(9)
    macro = random_star_2d(rng, n_v=6)
    ring = macro.ring_coords()
    rolled = star_macro_2d(np.roll(ring, -1, axis=0))
    assert np.isclose(abs(s_condition(macro)), abs(s_condition(rolled)),
                      rtol=1e-12)


def test_random_s_zero_fixture():
    rng = np.random.default_rng(12)
    macro = random_s_zero_star(rng)
    assert macro is not None
    assert abs(s_condition(macro)) <= 1e-12 * np.sum(1.0 / macro.areas)
    v = predict_regularity(macro, "p2-p1:p1")
    assert v.predicted == "singular"


# ----------------------------------------------------------------------
# 3D
# ----------------------------------------------------------------------

def test_random_tet_star_unsplit():
    rng = np.random.default_rng(3)
    macro = random_star_3d(rng)
    flags = classify_3d(macro)
    assert not flags.x_structured
    assert not flags.y_structured
    assert not flags.z_structured
    assert flags.semi_plane_count == 0
    v = predict_regularity_3d(macro, "p1-p1-p1b:p1")
    assert v.predicted == "regular" and v.reason == "3d-semiplane-case-1"
    v2 = predict_regularity_3d(macro, "p1-p1b-p1b:p1")
    assert v2.predicted == "regular"


def test_meridian_two_aligned_is_plane_split():
    rng = np.random.default_rng(5)
    macro = meridian_star_3d(rng, [0.7, 0.7 + np.pi])
    flags = classify_3d(macro)
    assert flags.semi_plane_count == 2
    assert flags.semi_planes_aligned
    v = predict_regularity_3d(macro, "p1-p1-p1b:p1")
    assert v.predicted == "singular"


def test_meridian_two_unaligned_regular():
    rng = np.random.default_rng(6)
    macro = meridian_star_3d(rng, [0.4, 2.1])
    flags = classify_3d(macro)
    assert flags.semi_plane_count == 2
    assert not flags.semi_planes_aligned
    v = predict_regularity_3d(macro, "p1-p1-p1b:p1")
    assert v.predicted == "regular" and v.reason == "3d-semiplane-case-2"


def test_meridian_three_semiplanes_singular():
    rng = np.random.default_rng(7)
    macro = meridian_star_3d(rng, [0.3, 1.9, 4.0])
    flags = classify_3d(macro)
    assert flags.semi_plane_count == 3
    v = predict_regularity_3d(macro, "p1-p1-p1b:p1")
    assert v.predicted == "singular" and v.reason == "3d-semiplane-case-3"


def test_single_semiplane_is_a_regular_reason_without_warning(monkeypatch):
    # only a tolerance problem gives one splitting semi-plane, and no mesh
    # here does: the verdict pass reads a hand-made split record instead
    import stokestab.macroelement as macroelement
    from stokestab.infsup import analytic_singular_pressure
    macro = meridian_star_3d(np.random.default_rng(7), [0.3, 1.9, 4.0])
    record = macroelement._Splits3D(np.array([False]), np.array([1]),
                                    np.array([False]), np.array([0, 1]),
                                    np.array([0.3]))
    splits = macroelement._star_splits
    build = splits.build
    monkeypatch.setattr(splits, "build", lambda mesh, axis:
                        record if axis == 2 else build(mesh, axis))
    assert splits(macro.mesh, 2) is record
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = predict_regularity_3d(macro, "p1-p1-p1b:p1")
        assert analytic_singular_pressure(macro, "p1-p1-p1b:p1") is None
        assert classify_3d(macro).semi_plane_count == 1
    assert (v.predicted, v.reason) == ("regular", "3d-semiplane-single")


def test_axis_plane_split_two_bubble():
    rng = np.random.default_rng(8)
    # two aligned semi-planes around x means the star is split by a plane
    # orthogonal to no axis; build an exact x = 0 split instead
    macro = meridian_star_3d(rng, [0.9, 0.9 + np.pi], axis=0)
    # the full plane through the x axis at azimuth 0.9 is not axis-orthogonal;
    # use the z-axis construction rotated so the plane is x = 0
    macro = meridian_star_3d(rng, [np.pi / 2, 3 * np.pi / 2])
    flags = classify_3d(macro)
    assert flags.x_structured     # split by the plane x = 0
    v = predict_regularity_3d(macro, "p1-p1b-p1b:p1")
    assert v.predicted == "singular" and v.reason == "3d-axis-split"
    v2 = predict_regularity_3d(macro, "p1b-p1-p1b:p1")
    assert v2.predicted == "regular"


def test_extruded_macro_is_z_structured():
    from stokestab.mesh import gen_extruded_tet, gen_perturbed
    base = gen_perturbed(gen_structured_tri(4, 4), 0.08, seed=3)
    mesh = gen_extruded_tet(base, 3, 1.0)
    macros = build_macroelements(mesh)
    assert macros
    for m in macros:
        assert classify_3d(m).z_structured


def test_3d_star_analysis_is_shared(monkeypatch):
    # the verdicts, the flags and the witness of a star share one split
    # pass per (mesh, axis): asking again does no graph work
    import scipy.sparse.csgraph as csgraph
    import stokestab.macroelement as macroelement
    from stokestab.infsup import analytic_singular_pressure
    calls = []
    components = csgraph.connected_components
    monkeypatch.setattr(csgraph, "connected_components",
                        lambda *a, **k: calls.append(1) or components(*a, **k))
    macro = meridian_star_3d(np.random.default_rng(4), [0.8, 0.8 + np.pi])
    combos = ["p1-p1-p1b:p1", "p1b-p1-p1:p1", "p1-p1b-p1b:p1"]

    def ask():
        return ([predict_regularity_3d(macro, c) for c in combos],
                classify_3d(macro),
                analytic_singular_pressure(macro, combos[0]))

    verdicts, flags, witness = ask()
    assert not verdicts[0].regular and witness is not None
    # two labellings (plane cut, axis-line cut) for each of the three axes
    assert len(calls) == 6
    again = ask()
    assert len(calls) == 6
    assert again[:2] == (verdicts, flags)
    assert again[2].tobytes() == witness.tobytes()
    for axis in range(3):
        cached = macroelement._star_splits(macro.mesh, axis)
        fresh = macroelement._star_splits.build(macro.mesh, axis)
        for a, b in zip(cached, fresh):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not a.flags.writeable


def _jittered_cube(n, amplitude, seed):
    from stokestab.mesh import gen_structured_cube
    mesh = gen_structured_cube(n, n, n)
    rng = np.random.default_rng(seed)
    verts = mesh.vertices.copy()
    inner = mesh.interior_vertices()
    verts[inner] += rng.uniform(-amplitude, amplitude, (len(inner), 3)) / n
    return mesh.replace_vertices(verts)


def _across_azimuth_zero(macro):
    """The star with its vertices on the semi-plane at azimuth 0 about z
    moved off it by +-1e-12, alternately, so that one semi-plane's trace
    directions straddle the 2pi wrap."""
    verts = macro.mesh.vertices.copy()
    on = np.flatnonzero((verts[:, 1] == 0) & (verts[:, 0] > 0))
    verts[on, 1] = np.where(np.arange(len(on)) % 2, 1e-12, -1e-12)
    return macro.mesh.replace_vertices(verts)


def test_star_splits_match_per_star_reference():
    import stokestab.macroelement as macroelement
    from stokestab.mesh import (gen_extruded_tet, gen_perturbed,
                                gen_structured_cube)
    rng = np.random.default_rng(11)
    meshes = [gen_structured_cube(3, 3, 3), gen_structured_cube(4, 3, 2),
              gen_extruded_tet(gen_zigzag(4, 4), 3),
              gen_extruded_tet(gen_perturbed(gen_zigzag(5, 4), 0.08, 2), 2),
              _jittered_cube(4, 0.2, 3)]
    meshes += [random_star_3d(rng).mesh for _ in range(4)]
    azimuth_sets = [[], [0.0], [0.0, np.pi], [0.7, 0.7 + np.pi], [0.4, 2.1],
                    [0.0, 2.0, 4.0], [0.3, 1.9, 4.0], [0.0, 1.5, 3.0, 4.5]]
    meshes += [meridian_star_3d(rng, az, axis=axis).mesh
               for axis in range(3) for az in azimuth_sets]
    wrapped = [_across_azimuth_zero(meridian_star_3d(rng, az))
               for az in ([0.0, np.pi], [0.0, 2.0, 4.0])]
    meshes += wrapped
    seen = set()
    # the box meshes have corner cells that no star covers
    with pytest.warns(UserWarning, match="no interior vertex"):
        for mesh in meshes:
            build_macroelements(mesh)
    for mesh in meshes:
        for axis in range(3):
            s = macroelement._star_splits(mesh, axis)
            macros = build_macroelements(mesh)
            assert len(s.count) == len(s.plane_split) == len(s.aligned) \
                == len(s.dir_offsets) - 1 == len(macros)
            assert s.dir_offsets[-1] == len(s.dirs)
            for i, m in enumerate(macros):
                dirs = s.dirs[s.dir_offsets[i]:s.dir_offsets[i + 1]]
                got = (bool(s.plane_split[i]), int(s.count[i]),
                       bool(s.aligned[i]), tuple(dirs.tolist()))
                assert got == per_macro.star_splits(m, axis)
                seen.add(got[:3])
    # every kind of answer occurs: split and unsplit, 0-4 semi-planes,
    # aligned and unaligned pairs
    assert {s for s, _, _ in seen} == {False, True}
    assert {n for _, n, _ in seen} >= {0, 2, 3, 4}
    assert (False, 2, True) in seen and (False, 2, False) in seen
    # the straddling directions form one semi-plane
    for mesh, count in zip(wrapped, (2, 3)):
        s = macroelement._star_splits(mesh, 2)
        assert s.count.tolist() == [count] and len(s.dirs) == count
        assert s.dirs[-1] > 2 * np.pi - 1e-9 or s.dirs[0] < 1e-9


def test_diameter_is_the_all_pairs_maximum_computed_once(monkeypatch):
    rng = np.random.default_rng(5)
    with pytest.warns(UserWarning, match="no interior vertex"):
        macros = build_macroelements(gen_zigzag(4, 3))
    macros = (macros + [random_star_2d(rng) for _ in range(5)]
              + [random_star_3d(rng) for _ in range(3)])
    for macro in macros:
        pts = macro.mesh.vertices[macro.vertex_ids()]
        ref = max(float(np.linalg.norm(a - b)) for a in pts for b in pts)
        diam = macro.diameter()
        assert diam == pytest.approx(ref, rel=1e-15)
        # a second call reads no coordinates
        monkeypatch.setattr(macro, "ring_coords", None)
        assert macro.diameter() == diam


def _reference_macros(mesh):
    """The per-vertex construction the star table replaced: ccw_ring,
    frozenset cell matching and the all-pairs diameter, one interior vertex
    at a time."""
    measures = mesh.cell_measures()
    out = []
    offsets, cells = mesh.vertex_cells
    for q0 in map(int, mesh.interior_vertices()):
        cids = cells[offsets[q0]:offsets[q0 + 1]]
        angles = None
        if mesh.cell_kind == TRIANGLE:
            ring, angles = ccw_ring(mesh, q0)
            bycell = {frozenset(int(v) for v in mesh.cells[ci]): ci
                      for ci in cids}
            cids = np.array([bycell[frozenset((q0, int(a), int(b)))]
                             for a, b in zip(ring, np.roll(ring, -1))],
                            dtype=np.int64)
        else:
            ring = np.setdiff1d(mesh.cells[cids], [q0])
        pts = np.vstack([mesh.vertices[q0][None, :], mesh.vertices[ring]])
        d = pts[:, None, :] - pts[None, :, :]
        out.append((q0, ring, cids, angles, measures[cids],
                    float(np.sqrt((d ** 2).sum(-1)).max())))
    return out


def _same(a, b):
    return a is b is None or (a.dtype == b.dtype and a.shape == b.shape
                              and a.tobytes() == b.tobytes())


def test_star_table_matches_per_vertex_reference():
    from stokestab.mesh import (gen_extruded_tet, gen_perturbed,
                                gen_quad_macro, gen_structured_cube)
    from stokestab.scenarios import unstructured_family_mesh
    rng = np.random.default_rng(13)
    with pytest.warns(UserWarning, match="no interior vertex"):
        meshes = [gen_structured_tri(6, 5), gen_zigzag(6, 6),
                  gen_perturbed(gen_structured_tri(7, 7), 0.04, 1),
                  unstructured_family_mesh(4),
                  gen_extruded_tet(gen_perturbed(gen_zigzag(4, 4), 0.06, 5),
                                   3),
                  gen_structured_cube(3, 3, 2), gen_quad_macro((1.0, 2.5),
                                                               (0.5, 1.5))]
        for mesh in meshes:
            build_macroelements(mesh)
    meshes += [random_star_2d(rng, aligned=k % 3).mesh for k in range(6)]
    meshes += [random_star_3d(rng).mesh for _ in range(4)]
    for mesh in meshes:
        macros = build_macroelements(mesh)
        ref = _reference_macros(mesh)
        assert len(macros) == len(ref) > 0
        for m, (q0, ring, cells, angles, areas, diam) in zip(macros, ref):
            assert m.center == q0 and type(m.center) is int
            assert _same(m.ring_vertices, ring) and _same(m.cells, cells)
            assert _same(m.angles, angles) and _same(m.areas, areas)
            assert m.diameter() == diam


def test_star_winding_twice_is_rejected():
    from stokestab.mesh import MeshError
    # ring vertices 1-6 on the unit circle, 7-12 on the circle of radius 2
    # turned by 0.1: the fan around vertex 0 winds twice
    k = np.arange(12)
    ang = k * np.pi / 3 + np.where(k < 6, 0.0, 0.1)
    r = np.where(k < 6, 1.0, 2.0)
    verts = np.vstack([[0.0, 0.0],
                       np.column_stack([r * np.cos(ang), r * np.sin(ang)])])
    fan = Mesh(2, TRIANGLE, verts, [(0, 1 + j, 1 + (j + 1) % 12) for j in k])
    with pytest.raises(MeshError, match="^vertex 0: ring vertices 1 and 7 "
                       "bound no common cell of the star$"):
        build_macroelements(fan)


def test_partial_boundary_list_keeps_vertex_1_on_the_boundary():
    # listing the boundary facets without those at vertex 1 only tags the
    # others: vertex 1 stays a boundary vertex and no star center
    base = gen_structured_tri(3, 3)
    keep = ~(base.boundary_facets == 1).any(axis=1)
    mesh = Mesh(2, TRIANGLE, base.vertices, base.cells,
                base.boundary_facets[keep], base.boundary_tags[keep])
    assert np.array_equal(mesh.boundary_facets, base.boundary_facets)
    assert np.array_equal(mesh.boundary_tags,
                          np.where(keep, base.boundary_tags, 0))
    with pytest.warns(UserWarning, match="no interior vertex"):
        centers = [m.center for m in build_macroelements(mesh)]
    assert centers == [5, 6, 9, 10]
