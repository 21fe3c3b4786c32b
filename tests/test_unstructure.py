import numpy as np
import pytest

from stokestab.mesh import (MeshError, gen_structured_tri, gen_zigzag,
                            gen_perturbed, gen_quad_macro)
from stokestab.unstructure import (
    UnstructureConfig, apply_algorithm1, verify_uniform,
)
from stokestab.macroelement import build_macroelements, classify_2d
from stokestab.infsup import infsup_constant


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
