import re
import warnings

import numpy as np
import pytest

from stokestab.mesh import (MeshError, _signed_measures, gen_structured_tri,
                            gen_zigzag, gen_perturbed, gen_quad_macro)
from stokestab.scenarios import decay_family_mesh, unstructured_family_mesh
from stokestab.unstructure import (
    UnstructureConfig, apply_algorithm1, verify_uniform,
)
from stokestab.macroelement import build_macroelements, classify_2d
from stokestab.infsup import infsup_constant

from stars import ccw_ring


def test_config_validation():
    with pytest.raises(ValueError):
        UnstructureConfig(r=1.5)
    with pytest.raises(ValueError):
        UnstructureConfig(r=0.1, axis="z")


def test_structured_fails_verification():
    mesh = gen_structured_tri(6, 6)
    rep = verify_uniform(mesh, UnstructureConfig(r=0.15, axis="x"))
    assert not rep.passed
    assert len(rep.offending) == len(mesh.interior_vertices())
    assert rep.margin == 0.0


def test_zigzag_passes_y_verification():
    mesh = gen_zigzag(8, 8)
    rep = verify_uniform(mesh, UnstructureConfig(r=0.15, axis="y"))
    assert rep.passed
    # uniform margin of the generator family (half-shift over mesh size)
    assert rep.margin > 0.15
    # and fails across x, where the column alignments live
    repx = verify_uniform(mesh, UnstructureConfig(r=0.15, axis="x"))
    assert not repx.passed


def test_repair_structured_16():
    mesh = gen_structured_tri(16, 16)
    cfg = UnstructureConfig(r=0.15, axis="x")
    out = apply_algorithm1(mesh, cfg)
    rep = verify_uniform(out, cfg)
    assert rep.passed
    assert rep.margin >= 0.15 - 1e-12
    # boundary untouched, other coordinate untouched
    bnd = mesh.boundary_vertex_mask()
    assert np.array_equal(out.vertices[bnd], mesh.vertices[bnd])
    assert np.array_equal(out.vertices[:, 1], mesh.vertices[:, 1])
    # displacement bound
    h, h_r = cfg.resolve(mesh)
    dx = np.abs(out.vertices[:, 0] - mesh.vertices[:, 0])
    assert dx.max() <= 2 * h_r + 1e-15
    assert out.cell_measures().min() > 0


def test_repair_axis_y_unstructures_macros():
    mesh = gen_structured_tri(10, 10)
    cfg = UnstructureConfig(r=0.15, axis="y")
    out = apply_algorithm1(mesh, cfg)
    for m in build_macroelements(out):
        assert not classify_2d(m).y_structured


def test_repair_is_fixpoint():
    mesh = gen_structured_tri(8, 8)
    cfg = UnstructureConfig(r=0.15, axis="x")
    once = apply_algorithm1(mesh, cfg)
    twice = apply_algorithm1(once, cfg)
    assert np.array_equal(once.vertices, twice.vertices)


def test_already_unstructured_untouched():
    cfg = UnstructureConfig(r=0.15, axis="y")
    mesh = gen_zigzag(6, 6)
    out = apply_algorithm1(mesh, cfg)
    assert np.array_equal(out.vertices, mesh.vertices)


def test_shape_ratio_bound():
    mesh = gen_structured_tri(12, 12)
    cfg = UnstructureConfig(r=0.15, axis="x")
    out = apply_algorithm1(mesh, cfg)
    before = mesh.metrics().shape_ratio
    after = out.metrics().shape_ratio
    assert after <= before / (1 - 2 * cfg.r) ** 2


def test_repair_restores_infsup():
    mesh = gen_structured_tri(12, 12)
    assert infsup_constant(mesh, "p1b-p1:p1", k=1).beta <= 1e-7
    out = apply_algorithm1(mesh, UnstructureConfig(r=0.15, axis="y"))
    assert infsup_constant(out, "p1b-p1:p1", k=1).beta >= 0.01


@pytest.mark.parametrize("call", [
    lambda m: gen_perturbed(m, 0.1, seed=1),
    lambda m: apply_algorithm1(m, UnstructureConfig(r=0.2)),
    lambda m: verify_uniform(m, UnstructureConfig(r=0.2)),
], ids=["gen_perturbed", "apply_algorithm1", "verify_uniform"])
def test_quadrilateral_mesh_rejected(call):
    with pytest.raises(MeshError, match="expects a triangular mesh"):
        call(gen_quad_macro())


# -- parity with the per-vertex sweeps ---------------------------------------
#
# The reference below is the jitter, repair and check as they were written
# before the wave schedule: one vertex at a time in ascending order, the
# first close spoke read off `ccw_ring`, and a scalar `safe_move`.

def _reference_safe_move(mesh, coords, v, axis, step):
    offsets, cells = mesh.vertex_cells
    tris = mesh.cells[cells[offsets[v]:offsets[v + 1]]]
    ref = 0.1 * _signed_measures(coords, tris)
    x0 = coords[v, axis]
    scale = 1.0
    for _ in range(60):
        coords[v, axis] = x0 + scale * step
        if np.all(_signed_measures(coords, tris) >= ref):
            return scale
        scale *= 0.5
    coords[v, axis] = x0
    return 0.0


def _reference_perturbed(base, amplitude, seed):
    rng = np.random.default_rng(seed)
    interior = base.interior_vertices()
    disp = rng.uniform(-amplitude, amplitude, size=len(interior))
    verts = base.vertices.copy()
    for v, d in zip(interior, disp):
        _reference_safe_move(base, verts, v, 0, d)
    return verts


def _reference_verify(mesh, cfg):
    h, h_r = cfg.resolve(mesh)
    ax = 0 if cfg.axis == "x" else 1
    offending, margin = [], np.inf
    offsets, nbrs = mesh.vertex_neighbours
    for q0 in map(int, mesh.interior_vertices()):
        d = np.abs(mesh.vertices[nbrs[offsets[q0]:offsets[q0 + 1]], ax]
                   - mesh.vertices[q0, ax])
        d.sort()
        if len(d) >= 2:
            margin = min(margin, d[1] / h)
        if len(d) >= 2 and d[1] < h_r * (1.0 - 1e-9):
            offending.append(q0)
    return offending, float(margin)


def _reference_repair(mesh, cfg):
    """(vertices, scaled-back count) of the per-vertex sweep, or the
    MeshError message when five sweeps do not converge."""
    h, h_r = cfg.resolve(mesh)
    ax = 0 if cfg.axis == "x" else 1
    verts = mesh.vertices.copy()
    scaled_back = 0
    for _ in range(5):
        for q0 in map(int, mesh.interior_vertices()):
            ring, _ = ccw_ring(mesh, q0, verts)
            d = verts[ring, ax] - verts[q0, ax]
            close = np.flatnonzero(np.abs(d) < h_r * (1.0 - 1e-9))
            if len(close) < 2:
                continue
            di = d[close[0]]
            step = -(h_r - di) if di > 0 else (h_r + di)
            if 0.0 < _reference_safe_move(mesh, verts, q0, ax, step) < 1.0:
                scaled_back += 1
        offending, _ = _reference_verify(mesh.replace_vertices(verts), cfg)
        if not offending:
            return verts, scaled_back
    return (f"unstructuring did not converge within 5 sweeps; "
            f"{len(offending)} macro(s) still aligned")


def _repair(mesh, cfg):
    """apply_algorithm1 as (vertices, scaled-back count read off the
    warning), or the MeshError message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = apply_algorithm1(mesh, cfg)
        except MeshError as exc:
            return str(exc)
    counts = [int(m.group(1)) for w in caught
              if (m := SCALED_BACK.match(str(w.message)))]
    assert len(counts) <= 1 and len(caught) == len(counts)
    return out.vertices, sum(counts)


# perfbench reads `unstructure.scaled_back` off the warning with this regex
SCALED_BACK = re.compile(r"(\d+) displacement\(s\) were scaled back")

PARITY_MESHES = {
    "structured-16": lambda: gen_structured_tri(16, 16),
    "structured-32": lambda: gen_structured_tri(32, 32),
    "zigzag-8": lambda: gen_zigzag(8, 8),
    **{f"decay-{lv}": (lambda lv=lv: decay_family_mesh(lv))
       for lv in (1, 2, 3, 4)},
    **{f"family-{lv}-seed{s}":
       (lambda lv=lv, s=s: unstructured_family_mesh(lv, s))
       for lv, seeds in ((3, (0, 5, 42)), (4, (1, 42)), (5, (3, 42)))
       for s in seeds},
    # scales 4 displacements back on the x-axis repair
    "jittered-7": lambda: gen_perturbed(gen_structured_tri(7, 7), 0.4 / 7, 10),
}


@pytest.mark.parametrize("name", PARITY_MESHES)
def test_sweeps_match_per_vertex_reference(name):
    mesh = PARITY_MESHES[name]()
    # the larger jitter halves hundreds of steps on the bigger meshes
    for amplitude in np.array([0.3, 3.0]) / np.sqrt(mesh.num_vertices):
        assert gen_perturbed(mesh, amplitude, 7).vertices.tobytes() == \
            _reference_perturbed(mesh, amplitude, 7).tobytes()
    for axis in ("x", "y"):
        for r in (0.15, 0.25):
            rep = verify_uniform(mesh, UnstructureConfig(r=r, axis=axis))
            assert (rep.offending, rep.margin) == \
                _reference_verify(mesh, UnstructureConfig(r=r, axis=axis))
            got = _repair(mesh, UnstructureConfig(r=r, axis=axis))
            want = _reference_repair(mesh, UnstructureConfig(r=r, axis=axis))
            if isinstance(want, str):
                assert got == want
                continue
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1]


def test_scaled_back_warning_text_and_count():
    mesh = PARITY_MESHES["jittered-7"]()
    cfg = UnstructureConfig(r=0.25, axis="x")
    _, count = _reference_repair(mesh, cfg)
    assert count == 4
    with pytest.warns(UserWarning) as caught:
        apply_algorithm1(mesh, cfg)
    (w,) = caught
    m = SCALED_BACK.match(str(w.message))
    assert m and int(m.group(1)) == count


def test_test6_x_repair_failure_is_unchanged():
    # seed 19 is one of the seeds where test6's second repair fails
    mesh = unstructured_family_mesh(3, 19)
    cfg = UnstructureConfig(r=0.15, axis="x")
    want = _reference_repair(mesh, UnstructureConfig(r=0.15, axis="x"))
    assert isinstance(want, str)
    with pytest.raises(MeshError, match="did not converge within 5 sweeps") \
            as exc:
        apply_algorithm1(mesh, cfg)
    assert str(exc.value) == want


def test_waves_schedule_every_interior_vertex_after_its_lower_neighbours():
    for mesh in (gen_structured_tri(64, 64), gen_zigzag(9, 5),
                 unstructured_family_mesh(4, 3)):
        waves = mesh.interior_waves
        level = np.full(mesh.num_vertices, -1)
        for k, wave in enumerate(waves):
            level[wave] = k
        assert np.array_equal(np.sort(np.concatenate(waves)),
                              mesh.interior_vertices())
        e = mesh.edges()
        inner = e[(level[e] >= 0).all(axis=1)]
        # lower index, earlier wave: no two neighbours share a wave
        assert np.all(level[inner[:, 0]] < level[inner[:, 1]])
    assert len(gen_structured_tri(64, 64).interior_waves) == 125
