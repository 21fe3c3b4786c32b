import numpy as np
import pytest
import scipy.sparse.linalg as spla

from stokestab.mesh import (Mesh, TRIANGLE, gen_structured_tri, gen_zigzag,
                            gen_extruded_tet, gen_quad_macro)
from stokestab.scenarios import unstructured_family_mesh
from stokestab.fespace import build_dofmap, eval_basis, quadrature
from stokestab.stokes import (
    SaddleFactorization, StokesError, assemble, cavity_problem,
    solve_penalized, operator_matrix, load_vector, trig_solution,
    convergence_study, cell_geometry, element_matrices, reference_tensor,
)


def two_tri_mesh():
    return Mesh(2, TRIANGLE, [(0, 0), (1, 0), (1, 1), (0, 1)],
                [(0, 1, 2), (0, 2, 3)])


def test_assemble_shapes_and_symmetry():
    mesh = gen_zigzag(4, 4)
    sys = assemble(mesh, "p1b-p1:p1")
    assert sys.B.shape[0] == sys.p_dofmap.n_dofs == mesh.num_vertices
    assert sys.B.shape[1] == sys.n_velocity
    asym = abs(sys.A - sys.A.T).max()
    assert asym <= 1e-14 * abs(sys.A).max()
    msym = abs(sys.Mp - sys.Mp.T).max()
    assert msym <= 1e-14 * abs(sys.Mp).max()


def test_constant_pressure_row_annihilates_interior_velocity():
    mesh = gen_zigzag(5, 5)
    for combo in ["p1-p1:p1", "p1b-p1:p1", "p2-p1:p1"]:
        sys = assemble(mesh, combo)
        Bf = sys.interior_B()
        ones = np.ones(sys.p_dofmap.n_dofs)
        # row for the constant pressure = integral of the divergence = 0
        row = ones @ Bf
        assert np.abs(row).max() < 1e-13


def test_stiffness_kills_constants():
    mesh = gen_zigzag(4, 3)
    sys = assemble(mesh, "p1-p1:p1")
    dm = sys.vel_dofmaps[0]
    const = np.ones(dm.n_dofs)
    A0 = sys.A[:dm.n_dofs, :dm.n_dofs]
    assert np.abs(A0 @ const).max() < 1e-12


def test_bubble_divergence_entries_match_integration_by_parts():
    mesh = two_tri_mesh()
    sys = assemble(mesh, "p1b-p1:p1")
    rng = np.random.default_rng(2)
    coef = rng.normal(size=3)

    def linear(p):
        return coef[0] + coef[1] * p[:, 0] + coef[2] * p[:, 1]

    p_dm = sys.p_dofmap
    pvec = linear(p_dm.coords)
    u_dm = sys.vel_dofmaps[0]
    # bubble dofs sit after the vertex dofs
    areas = mesh.cell_measures()
    for ci in range(mesh.num_cells):
        bdof = mesh.num_vertices + ci
        val = float(pvec @ sys.B[:, bdof].toarray().ravel())
        bubble_mass = 9 * areas[ci] / 20.0
        expect = -coef[1] * bubble_mass
        assert np.isclose(val, expect, rtol=1e-12), ci


def test_divergence_balance_and_galerkin_residual():
    mesh = gen_zigzag(6, 6)
    combo = "p1b-p1:p1"
    exact = trig_solution()
    sys = assemble(mesh, combo)
    from stokestab.stokes import load_vector
    for k, dm in enumerate(sys.vel_dofmaps):
        sys.rhs[sys.offsets[k]:sys.offsets[k + 1]] = load_vector(
            mesh, dm, lambda x, k=k: exact.f(x)[:, k])
    eps = 1e-10
    sol = solve_penalized(sys, eps)
    free = sys.free_mask()
    wfull = np.concatenate(sol.velocity)
    # divergence equation: B w + eps Mp p = 0
    r2 = sys.B @ wfull + eps * (sys.Mp @ sol.pressure)
    assert np.abs(r2).max() < 1e-10 * max(1.0, np.abs(sol.pressure).max())
    # momentum test on every free velocity dof
    r1 = (sys.A @ wfull - sys.B.T @ sol.pressure - sys.rhs)[free]
    scale = max(np.abs(sys.rhs).max(), 1.0)
    assert np.abs(r1).max() < 1e-10 * scale
    assert sol.diagnostics["residual"] < 1e-10


def test_zero_data_zero_solution():
    mesh = gen_zigzag(4, 4)
    sys = assemble(mesh, "p1b-p1:p1")
    sol = solve_penalized(sys, 1e-10)
    assert np.abs(np.concatenate(sol.velocity)).max() < 1e-12
    assert np.abs(sol.pressure).max() < 1e-12


def test_cavity_dirichlet_bc_values():
    mesh = gen_zigzag(8, 8)
    sys = cavity_problem(mesh, "p1b-p1:p1", "dirichlet_lid")
    u_dm = sys.vel_dofmaps[0]
    vals = sys.bc_values[0]
    coords = u_dm.coords
    ymax = mesh.vertices[:, 1].max()
    top_interior = [d for d in u_dm.boundary_dofs
                    if abs(coords[d, 1] - ymax) < 1e-12
                    and 1e-9 < coords[d, 0] < 1 - 1e-9]
    assert top_interior
    assert np.all(vals[top_interior] == 1.0)
    corners = [d for d in u_dm.boundary_dofs
               if abs(coords[d, 1] - ymax) < 1e-12
               and (coords[d, 0] < 1e-12 or coords[d, 0] > 1 - 1e-12)]
    assert np.all(vals[corners] == 0.0)
    # v fixed to zero on the whole boundary
    assert np.all(sys.bc_mask[1] == sys.vel_dofmaps[1].boundary_mask)
    assert np.abs(sys.bc_values[1]).max() == 0.0


def test_cavity_neumann_rhs():
    mesh = gen_structured_tri(4, 4)
    sys = cavity_problem(mesh, "p1b-p1:p1", "neumann_lid")
    # the flux integrates the P1 traces: total load equals the lid length
    assert np.isclose(sys.rhs.sum(), 1.0)
    u_mask = sys.bc_mask[0]
    coords = sys.vel_dofmaps[0].coords
    ymax = mesh.vertices[:, 1].max()
    freed = ~u_mask & sys.vel_dofmaps[0].boundary_mask
    assert np.all(np.abs(coords[freed][:, 1] - ymax) < 1e-12)


def test_cavity_missing_top_tag():
    # the traction lid needs the TOP facets; the Dirichlet lid does not
    mesh = two_tri_mesh()  # derived facets carry tag 0
    with pytest.raises(StokesError, match="tagged as top"):
        cavity_problem(mesh, "p1b-p1:p1", "neumann_lid")


@pytest.mark.parametrize("combo", ["p1b-p1:p1", "p2-p1:p1"])
def test_dirichlet_lid_needs_no_top_tags(combo):
    tagged = gen_zigzag(6, 5)
    untagged = Mesh(2, TRIANGLE, tagged.vertices, tagged.cells)
    assert not untagged.boundary_tags.any()
    want = solve_penalized(cavity_problem(tagged, combo), 1e-10)
    got = solve_penalized(cavity_problem(untagged, combo), 1e-10)
    for a, b in zip(got.velocity + [got.pressure],
                    want.velocity + [want.pressure]):
        assert a.tobytes() == b.tobytes()


def test_penalized_cavity_mean_pressure_small():
    mesh = gen_zigzag(8, 8)
    sys = cavity_problem(mesh, "p1b-p1:p1", "dirichlet_lid")
    sol = solve_penalized(sys, 1e-10)
    assert abs(sol.diagnostics["int_p"]) < 1e-6


def test_manufactured_interpolation_error_orders():
    # interpolation-only oracle: interpolating the exact solution must show
    # the space's own approximation order, independent of any solver
    exact = trig_solution()
    errs = []
    hs = []
    for n in [8, 16, 32]:
        mesh = gen_structured_tri(n, n)
        dm = build_dofmap(mesh, "p1")
        dofs = dm.interpolate(exact.u)
        from stokestab.stokes import _field_errors
        l2, h1 = _field_errors(mesh, dm, dofs, exact.u, exact.grad_u)
        errs.append((l2, h1))
        hs.append(mesh.metrics().h)
    r_l2 = np.log(errs[2][0] / errs[1][0]) / np.log(hs[2] / hs[1])
    r_h1 = np.log(errs[2][1] / errs[1][1]) / np.log(hs[2] / hs[1])
    assert 1.8 < r_l2 < 2.2
    assert 0.9 < r_h1 < 1.1


def test_convergence_study_evaluates_the_forcing_once_per_mesh():
    import dataclasses
    from stokestab.stokes import _data_points, _project
    exact = trig_solution()
    calls = []
    counted = dataclasses.replace(
        exact, f=lambda x: calls.append(len(x)) or exact.f(x))
    meshes = [gen_zigzag(4, 4), gen_zigzag(6, 6)]
    convergence_study("p2-p1:p1", meshes, exact=counted)
    assert len(calls) == len(meshes)
    # each column, projected, is bitwise the component's own load vector
    for mesh in meshes:
        f = exact.f(_data_points(mesh))
        for k, tag in enumerate(["p1b", "p2"]):
            dm = build_dofmap(mesh, tag)
            ref = load_vector(mesh, dm, lambda x: exact.f(x)[:, k])
            assert _project(mesh, dm, f[:, k]).tobytes() == ref.tobytes()


def test_solver_reproduces_interpolation_scale_errors():
    # one coarse solve; errors should be within a small factor of the
    # best-approximation scale
    mesh = gen_zigzag(8, 8)
    rep = convergence_study("p1b-p1:p1", [mesh])
    row = rep.rows[0]
    assert row["eL2_u"] < 0.2
    assert row["eH1_u"] < 3.0


def test_quad_operator_matrix_mass():
    from stokestab.mesh import gen_quad_macro
    mesh = gen_quad_macro()
    dm = build_dofmap(mesh, "q1")
    M = operator_matrix(mesh, dm, dm, "mass", 3)
    ones = np.ones(dm.n_dofs)
    assert np.isclose(ones @ (M @ ones), mesh.cell_measures().sum())


def test_pressure_error_stagnates_on_structured_family():
    # qualitative content of the cavity comparisons: under refinement the
    # pressure error keeps falling on the repaired family but stalls on the
    # layered structured family, where the spurious mode pollutes it
    import warnings
    from stokestab.mesh import gen_structured_tri
    from stokestab.scenarios import unstructured_family_mesh
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep_s = convergence_study(
            "p1b-p1:p1", [gen_structured_tri(2 ** l, 2 ** l) for l in (3, 4, 5)])
        rep_u = convergence_study(
            "p1b-p1:p1", [unstructured_family_mesh(l) for l in (3, 4, 5)])
    es = [r["eL2_p"] for r in rep_s.rows]
    eu = [r["eL2_p"] for r in rep_u.rows]
    assert all(eu[i + 1] <= 1.2 * eu[i] for i in range(2))
    assert eu[-1] <= 0.5 * eu[0]
    assert es[-1] >= 0.5 * es[0]


# ----------------------------------------------------------------------
# bubble condensation against the uncondensed saddle solve
# ----------------------------------------------------------------------

def uncondensed_reference(sys, eps=1e-10):
    """The saddle solve without bubble elimination: one LU of the full
    penalized matrix, with the same pressure-mean correction."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    from stokestab.stokes import boundary_flux

    free = sys.free_mask()
    gC = sys.constrained_values()[~free]
    A, B, Mp = sys.A.tocsr(), sys.B.tocsr(), sys.Mp.tocsr()
    Bf = B[:, free]
    K = sp.bmat([[A[free][:, free], -Bf.T], [-Bf, -eps * Mp]], format="csc")
    rhs = np.concatenate([sys.rhs[free] - A[free][:, ~free] @ gC,
                          B[:, ~free] @ gC])
    lu = spla.splu(K)
    x = lu.solve(rhs)
    full = np.empty(sys.n_velocity)
    full[free] = x[:free.sum()]
    full[~free] = gC
    off = sys.offsets
    velocity = [full[off[k]:off[k + 1]] for k in range(len(off) - 1)]
    p = x[free.sum():]
    ones = np.ones(len(p))
    target = -boundary_flux(sys, velocity) / eps
    p = p + (target - ones @ (Mp @ p)) / (ones @ (Mp @ ones)) * ones
    resid = np.linalg.norm(K @ x - rhs) / max(np.linalg.norm(rhs), 1e-300)
    return velocity, p, resid, lu.nnz


def _repaired_mesh():
    from stokestab.scenarios import unstructured_family_mesh
    return unstructured_family_mesh(3, 42)


_MESHES = {"structured": lambda: gen_structured_tri(8, 8),
           "zigzag": lambda: gen_zigzag(8, 8), "repaired": _repaired_mesh}
_BUBBLE_COMBOS = ["p1b-p1:p1", "p1-p1b:p1", "p1b-p1b:p1"]
# the pairs without a spurious pressure mode on the mesh; elsewhere the mode
# sits on an O(eps) eigenvalue and any two factorizations differ by rounding
# amplified by 1/eps (up to 1e-6 relative on these meshes)
_STABLE = {("structured", "p1b-p1b:p1"), ("zigzag", "p1b-p1:p1"),
           ("zigzag", "p1b-p1b:p1"), ("repaired", "p1b-p1:p1"),
           ("repaired", "p1-p1b:p1"), ("repaired", "p1b-p1b:p1")}


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("variant", ["dirichlet_lid", "neumann_lid"])
@pytest.mark.parametrize("combo", _BUBBLE_COMBOS)
@pytest.mark.parametrize("mesh_kind", sorted(_MESHES))
def test_condensed_solve_matches_uncondensed_reference(mesh_kind, combo,
                                                       variant):
    mesh = _MESHES[mesh_kind]()
    sys = cavity_problem(mesh, combo, variant)
    # a body force, so that the bubbles carry a load of their own
    exact = trig_solution()
    for k, dm in enumerate(sys.vel_dofmaps):
        sys.rhs[sys.offsets[k]:sys.offsets[k + 1]] += load_vector(
            mesh, dm, lambda x, k=k: exact.f(x)[:, k])
    sol = solve_penalized(sys)
    velocity, p, resid, _ = uncondensed_reference(sys)
    diag = sol.diagnostics
    assert diag["residual"] <= max(10 * resid, 1e-12)
    assert diag["unknowns"] == sys.free_mask().sum() + sys.p_dofmap.n_dofs
    if (mesh_kind, combo) in _STABLE:
        for w, ref in zip(sol.velocity, velocity):
            assert _rel(w, ref) <= 1e-10
        assert _rel(sol.pressure, p) <= 1e-9


@pytest.mark.parametrize("variant", ["dirichlet_lid", "neumann_lid"])
@pytest.mark.parametrize("mesh_kind", sorted(_MESHES))
def test_solve_without_bubbles_is_the_uncondensed_solve(mesh_kind, variant):
    sys = cavity_problem(_MESHES[mesh_kind](), "p2-p1:p1", variant)
    sol = solve_penalized(sys)
    velocity, p, _, fill = uncondensed_reference(sys)
    for w, ref in zip(sol.velocity, velocity):
        assert np.array_equal(w, ref)
    assert np.array_equal(sol.pressure, p)
    assert sol.diagnostics["condensed"] == 0
    assert sol.diagnostics["lu_fill"] == fill


@pytest.mark.parametrize("combo,per_cell", [("p1-p1:p1", 0), ("p2-p1:p1", 0),
                                            ("p1b-p1:p1", 1),
                                            ("p1-p1b:p1", 1),
                                            ("p1b-p1b:p1", 2)])
def test_condensed_counts_the_bubble_dofs(combo, per_cell):
    mesh = gen_zigzag(5, 4)
    sol = solve_penalized(assemble(mesh, combo))
    assert sol.diagnostics["condensed"] == per_cell * mesh.num_cells
    _, _, _, fill = uncondensed_reference(assemble(mesh, combo))
    if per_cell:
        assert sol.diagnostics["lu_fill"] < fill


# the structured grid's y-only pressure modes leave only delta*Mp in the
# pressure block of the condensed p1b-p1:p1 matrix, which is factorized
# without pivoting
@pytest.mark.parametrize("delta", [1e-10, 1e-8])
@pytest.mark.parametrize("mesh_kind,combo", [
    pytest.param("zigzag", c, id=c)
    for c in ["p1b-p1:p1", "p1b-p1b:p1", "p2-p1:p1", "p1-p1b:p1"]
] + [pytest.param("structured16", "p1b-p1:p1", id="structured16-p1b-p1:p1")])
def test_saddle_factorization_solves_the_full_system(mesh_kind, combo, delta):
    mesh = (gen_zigzag(5, 4) if mesh_kind == "zigzag"
            else gen_structured_tri(16, 16))
    sys = assemble(mesh, combo)
    fact = SaddleFactorization(sys, delta)
    free = sys.free_mask()
    assert fact.unknowns == fact.K.shape[0] == free.sum() + sys.Mp.shape[0]
    assert fact.n_velocity == free.sum()
    rhs = np.random.default_rng(1).standard_normal(fact.unknowns)
    x = fact.solve(rhs)
    # normwise backward error: the constant pressure makes x O(1/delta)
    scale = spla.norm(fact.K, np.inf) * np.abs(x).max() + np.abs(rhs).max()
    assert np.abs(fact.K @ x - rhs).max() <= 1e-14 * scale
    # a pressure-only right-hand side skips the bubbles, to the last bit
    rhs[:fact.n_velocity] = 0.0
    assert np.array_equal(fact.solve_pressure(rhs[fact.n_velocity:]),
                          fact.solve(rhs)[fact.n_velocity:])
    with pytest.raises(StokesError, match="positive"):
        SaddleFactorization(sys, 0.0)


def test_condensed_factorization_orders_for_less_fill():
    # minimum degree on K + K^T with diagonal pivots against SuperLU's
    # default column order and partial pivoting, on the same matrix
    from stokestab.mesh import gen_perturbed
    from stokestab.stokes import _bubble_mask, _condense

    mesh = gen_perturbed(gen_structured_tri(32, 32), 0.3 / 32, 5)
    sys = assemble(mesh, "p1b-p1:p1")
    fact = SaddleFactorization(sys, 1e-10)
    bub = np.zeros(fact.unknowns, dtype=bool)
    bub[:fact.n_velocity] = _bubble_mask(sys)[sys.free_mask()]
    Kc = _condense(fact.K, bub)[0]
    assert fact.condensed == bub.sum() > 0
    assert fact.lu_fill < spla.splu(Kc).nnz


def test_nonpositive_bubble_block_is_rejected():
    sys = assemble(gen_zigzag(3, 3), "p1b-p1:p1")
    sys.A = -sys.A
    with pytest.raises(StokesError, match="bubble"):
        solve_penalized(sys)


def test_stiffness_matches_the_pointwise_contraction():
    # the stiffness kernel contracts through BLAS; the plain quadrature sum
    # over points and gradient components is the reference
    mesh = gen_zigzag(4, 3)
    from stokestab.stokes import element_matrices
    rule = quadrature(mesh.cell_kind, 5)
    _, invJT, meas = cell_geometry(mesh)
    for space in ["p1", "p1b", "p2"]:
        _, grads = eval_basis(space, mesh.cell_kind, rule.points)
        got = element_matrices(mesh, space, space, "stiffness", 5)
        for c in range(mesh.num_cells):
            g = grads @ invJT[c].T            # (points, dofs, dim)
            ref = sum(w * g[q] @ g[q].T for q, w in enumerate(rule.weights))
            assert np.allclose(got[c], meas[c] * ref, rtol=1e-14, atol=1e-14)


ELEMENT_MESHES = {
    "zigzag": (lambda: gen_zigzag(4, 3), ["p1", "p1b", "p2"]),
    "family": (lambda: unstructured_family_mesh(2), ["p1", "p1b", "p2"]),
    "extruded-tet": (lambda: gen_extruded_tet(gen_zigzag(2, 2), 2),
                     ["p1", "p1b"]),
    "quad-macro": (lambda: gen_quad_macro((0.5, 1.5), (2.0, 0.25)),
                   ["q1", "q2"]),
}


@pytest.mark.parametrize("qdeg", [5, 6])
@pytest.mark.parametrize("name", sorted(ELEMENT_MESHES))
def test_element_matrices_match_the_pointwise_quadrature(name, qdeg):
    # each block is a reference tensor times the cell's geometry factor; the
    # reference is the plain sum over quadrature points of the physical
    # shape functions and gradients
    make, spaces = ELEMENT_MESHES[name]
    mesh = make()
    rule = quadrature(mesh.cell_kind, qdeg)
    _, invJT, meas = cell_geometry(mesh)

    basis = {}  # values (points, dofs), gradients (cells, points, dofs, dim)
    for space in spaces:
        vals, grads = eval_basis(space, mesh.cell_kind, rule.points)
        basis[space] = vals, grads @ invJT.transpose(0, 2, 1)[:, None]

    def pointwise(row, col, product):
        return meas[:, None, None] * sum(
            w * product(q, basis[row], basis[col])
            for q, w in enumerate(rule.weights))

    def close(got, ref):
        scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-14 * scale)

    for row in spaces:
        for col in spaces:
            close(element_matrices(mesh, row, col, "mass", qdeg), pointwise(
                row, col, lambda q, r, c: np.outer(r[0][q], c[0][q])))
            for axis in range(mesh.dim):
                close(element_matrices(mesh, row, col, "deriv", qdeg, axis),
                      pointwise(row, col, lambda q, r, c: r[0][q][:, None]
                                * c[1][:, q, None, :, axis]))
        close(element_matrices(mesh, row, row, "stiffness", qdeg), pointwise(
            row, row, lambda q, r, c: r[1][:, q] @ c[1][:, q].transpose(
                0, 2, 1)))


def test_reference_tensors_are_shared_and_read_only():
    for kind in ("mass", "deriv", "stiffness"):
        ref = reference_tensor("p1", "p2", TRIANGLE, kind, 5)
        assert reference_tensor("p1", "p2", TRIANGLE, kind, 5) is ref
        with pytest.raises(ValueError, match="read-only"):
            ref[...] = 0


def test_cell_geometry_is_kept_per_mesh_and_read_only():
    mesh = gen_zigzag(4, 3)
    geometry = cell_geometry(mesh)
    assert all(a is b for a, b in zip(cell_geometry(mesh), geometry))
    for a in geometry:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    moved = cell_geometry(mesh.replace_vertices(mesh.vertices * 2.0))
    assert np.allclose(moved[2], 4.0 * geometry[2], rtol=1e-14, atol=0)
