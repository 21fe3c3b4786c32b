import math

import numpy as np
import pytest

from stokestab.mesh import Mesh, TRIANGLE, TETRAHEDRON, QUADRILATERAL
from stokestab.fespace import (
    FECombo, FESpaceError, eval_basis, quadrature, build_dofmap,
)


def local_dof_coords(tag, cell_kind):
    """Reference coordinates of the local dofs, in eval_basis order."""
    v = {"triangle": [[0.0, 0], [1, 0], [0, 1]],
         "tetrahedron": [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
         "quadrilateral": [[0.0, 0], [1, 0], [1, 1], [0, 1]]}[cell_kind]
    v = np.array(v)
    if tag in ("p1", "q1"):
        return v
    if tag == "p1b":
        return np.vstack([v, v.mean(axis=0)])
    if tag == "p2":
        return np.vstack([v, (v + np.roll(v, -1, axis=0)) / 2])
    if tag == "q2":
        mids = np.array([[0.5, 0], [1, 0.5], [0.5, 1], [0, 0.5]])
        return np.vstack([v, mids, [[0.5, 0.5]]])
    raise ValueError(tag)


def interpolate(dm, fn):
    """Nodal interpolation of a callable fn(points) -> values.  For P1b the
    bubble coefficient is the residual at the barycenter after the vertex
    part, so linear functions are reproduced exactly."""
    vals = np.asarray(fn(dm.coords), dtype=float)
    if dm.space == "p1b":
        nv = dm.mesh.num_vertices
        vals[nv:] -= vals[dm.mesh.cells].mean(axis=1)
    return vals


def ref_simplex_integral(powers):
    """Closed-form monomial integral over the unit simplex."""
    a = list(powers)
    d = len(a)
    num = 1.0
    for ai in a:
        num *= math.factorial(ai)
    return num / math.factorial(sum(a) + d)


def ref_volume(kind):
    return {"triangle": 0.5, "tetrahedron": 1 / 6, "quadrilateral": 1.0}[kind]


def monomials_upto(dim, deg):
    if dim == 2:
        return [(a, b) for a in range(deg + 1) for b in range(deg + 1 - a)]
    return [(a, b, c) for a in range(deg + 1) for b in range(deg + 1 - a)
            for c in range(deg + 1 - a - b)]


@pytest.mark.parametrize("kind,deg", [
    ("triangle", 1), ("triangle", 2), ("triangle", 3), ("triangle", 5),
    ("triangle", 7), ("tetrahedron", 1), ("tetrahedron", 2),
    ("tetrahedron", 4), ("tetrahedron", 6),
])
def test_simplex_quadrature_exactness(kind, deg):
    rule = quadrature(kind, deg)
    assert np.isclose(rule.weights.sum(), 1.0, atol=1e-13)
    dim = 2 if kind == "triangle" else 3
    for p in monomials_upto(dim, deg):
        vals = np.prod(rule.points ** np.asarray(p), axis=1)
        approx = ref_volume(kind) * float(rule.weights @ vals)
        exact = ref_simplex_integral(p)
        assert abs(approx - exact) < 1e-13 * max(1.0, abs(exact)), (p, deg)


@pytest.mark.parametrize("deg", [1, 3, 5])
def test_quad_quadrature_exactness(deg):
    rule = quadrature("quadrilateral", deg)
    for a in range(deg + 1):
        for b in range(deg + 1):
            vals = rule.points[:, 0] ** a * rule.points[:, 1] ** b
            approx = float(rule.weights @ vals)
            exact = 1.0 / ((a + 1) * (b + 1))
            assert abs(approx - exact) < 1e-13


@pytest.mark.parametrize("n", range(1, 8))
def test_gauss_rules_match_scipy(n):
    # the 1D factors of every rule, against scipy.special's, which the
    # package no longer imports: Legendre from numpy, Jacobi by Golub-Welsch
    from scipy.special import roots_jacobi, roots_legendre
    from stokestab.fespace import _gauss01, _jacobi01

    def close(got, x, w, scale):
        assert np.allclose(got[0], 0.5 * (x + 1.0), rtol=1e-14, atol=0)
        assert np.allclose(got[1], w * scale, rtol=5e-14, atol=0)

    close(_gauss01(n), *roots_legendre(n), 0.5)
    for alpha in (1.0, 2.0):
        close(_jacobi01(n, alpha), *roots_jacobi(n, alpha, 0.0),
              2.0 ** -(alpha + 1))


def test_quadrature_rules_are_shared_and_read_only():
    rule = quadrature("tetrahedron", 6)
    assert quadrature("tetrahedron", 6) is rule
    with pytest.raises(ValueError, match="read-only"):
        rule.points[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        rule.weights[0] = 0.5


@pytest.mark.parametrize("tag,kind", [
    ("p1", "triangle"), ("p1b", "triangle"), ("p2", "triangle"),
    ("p1", "tetrahedron"), ("p1b", "tetrahedron"),
    ("q1", "quadrilateral"), ("q2", "quadrilateral"),
])
def test_lagrange_property_and_partition_of_unity(tag, kind):
    coords = local_dof_coords(tag, kind)
    vals, _ = eval_basis(tag, kind, coords)
    if tag == "p1b":
        # vertex functions are plain hats; the bubble is 1 at the barycenter
        n = len(coords) - 1
        assert np.allclose(vals[:n, :n], np.eye(n), atol=1e-14)
        assert np.isclose(vals[-1, -1], 1.0)
        assert np.allclose(vals[:n, -1], 0.0, atol=1e-14)
    else:
        assert np.allclose(vals, np.eye(len(coords)), atol=1e-13)

    rng = np.random.default_rng(3)
    pts = rng.dirichlet(np.ones(coords.shape[1] + 1), size=8)[:, :-1]
    if kind == "quadrilateral":
        pts = rng.uniform(0.05, 0.95, size=(8, 2))
    v, _ = eval_basis(tag, kind, pts)
    nvert = {"triangle": 3, "tetrahedron": 4}.get(kind, 4)
    if tag == "p1b":
        assert np.allclose(v[:, :nvert].sum(axis=1), 1.0, atol=1e-13)
    else:
        assert np.allclose(v.sum(axis=1), 1.0, atol=1e-13)


def test_bubble_vanishes_on_cell_boundary():
    # points on each edge of the reference triangle
    t = np.linspace(0, 1, 7)
    edges = [np.column_stack([t, np.zeros_like(t)]),
             np.column_stack([np.zeros_like(t), t]),
             np.column_stack([t, 1 - t])]
    for pts in edges:
        vals, _ = eval_basis("p1b", "triangle", pts)
        assert np.allclose(vals[:, 3], 0.0, atol=1e-14)


def test_p2_midpoint_lagrange():
    vals, _ = eval_basis("p2", "triangle", [[0.5, 0.0]])
    assert np.isclose(vals[0, 3], 1.0)
    assert np.allclose(vals[0, [0, 1, 2, 4, 5]], 0.0, atol=1e-14)


@pytest.mark.parametrize("tag,kind", [
    ("p1", "triangle"), ("p1b", "triangle"), ("p2", "triangle"),
    ("p1b", "tetrahedron"), ("q1", "quadrilateral"), ("q2", "quadrilateral"),
])
def test_gradient_consistency(tag, kind):
    rng = np.random.default_rng(11)
    dim = 3 if kind == "tetrahedron" else 2
    if kind == "quadrilateral":
        pts = rng.uniform(0.2, 0.8, size=(10, 2))
    else:
        pts = rng.dirichlet(np.ones(dim + 1), size=10)[:, :-1] * 0.8 + 0.05
    _, grads = eval_basis(tag, kind, pts)
    eps = 1e-6
    for k in range(dim):
        dp = np.zeros(dim)
        dp[k] = eps
        vp, _ = eval_basis(tag, kind, pts + dp)
        vm, _ = eval_basis(tag, kind, pts - dp)
        fd = (vp - vm) / (2 * eps)
        assert np.max(np.abs(fd - grads[:, :, k])) < 1e-6


def two_tri_mesh():
    return Mesh(2, TRIANGLE, [(0, 0), (1, 0), (1, 1), (0, 1)],
                [(0, 1, 2), (0, 2, 3)])


def test_dof_counts_two_triangle_square():
    mesh = two_tri_mesh()
    assert build_dofmap(mesh, "p2").n_dofs == 9
    assert build_dofmap(mesh, "p1b").n_dofs == 6
    assert build_dofmap(mesh, "p0").n_dofs == 2
    assert build_dofmap(mesh, "p1").n_dofs == 4


def test_dofmap_shared_edges_consistent():
    mesh = two_tri_mesh()
    dm = build_dofmap(mesh, "p2")
    # diagonal edge (0, 2) is shared; its dof must appear in both cells
    shared = set(dm.cell_dofs[0]) & set(dm.cell_dofs[1])
    assert len(shared) == 3  # two vertices + one midpoint


def test_dofmap_boundary_sets():
    mesh = two_tri_mesh()
    dm = build_dofmap(mesh, "p2")
    # all 4 vertices and the 4 outer edge midpoints are on the boundary
    assert dm.boundary_mask.sum() == 8
    dmb = build_dofmap(mesh, "p1b")
    assert dmb.boundary_mask.sum() == 4  # bubbles stay interior


@pytest.mark.parametrize("tag,kind", [
    ("p1", "tri"), ("p1b", "tri"), ("p2", "tri"), ("p0", "tri"),
    ("p1b", "tet"), ("q2", "quad"), ("q1", "quad")])
def test_dof_locations_are_the_places_of_the_dofs(tag, kind):
    # a vertex dof sits at its vertex, an edge dof at the edge midpoint and a
    # cell dof at the centroid, located as v, nv + e and nv + ne + c
    from stokestab.mesh import gen_quad_macro, gen_structured_cube
    mesh = {"tri": two_tri_mesh, "tet": lambda: gen_structured_cube(1, 1, 1),
            "quad": gen_quad_macro}[kind]()
    dm = build_dofmap(mesh, tag)
    v, edges = mesh.vertices, mesh.edges()
    places = np.vstack([v, v[edges].mean(axis=1),
                        v[mesh.cells].mean(axis=1)])
    assert np.allclose(places[dm.locations], dm.coords)
    assert len(np.unique(dm.locations)) == dm.n_dofs
    assert not dm.locations.flags.writeable


def test_incompatible_space_mesh():
    mesh = two_tri_mesh()
    with pytest.raises(FESpaceError):
        build_dofmap(mesh, "q1")


@pytest.mark.parametrize("tag,deg", [("p1", 1), ("p2", 2), ("p1b", 1)])
def test_interpolation_reproduces_polynomials(tag, deg):
    from stokestab.mesh import gen_structured_tri
    mesh = gen_structured_tri(3, 3)
    dm = build_dofmap(mesh, tag)
    rng = np.random.default_rng(5)
    coef = rng.normal(size=6)

    def poly(p):
        x, y = p[:, 0], p[:, 1]
        out = coef[0] + coef[1] * x + coef[2] * y
        if deg == 2:
            out = out + coef[3] * x * x + coef[4] * x * y + coef[5] * y * y
        return out

    dofs = interpolate(dm, poly)
    # evaluate on random interior points cell by cell
    pts_ref = rng.dirichlet(np.ones(3), size=4)[:, :-1]
    vals, _ = eval_basis(tag, "triangle", pts_ref)
    for ci, cell in enumerate(mesh.cells):
        v0 = mesh.vertices[cell[0]]
        J = np.stack([mesh.vertices[cell[1]] - v0,
                      mesh.vertices[cell[2]] - v0], axis=1)
        phys = pts_ref @ J.T + v0
        uh = vals @ dofs[dm.cell_dofs[ci]]
        assert np.allclose(uh, poly(phys), atol=1e-12)


def test_q2_interpolation_reproduces_biquadratic():
    from stokestab.mesh import gen_quad_macro
    mesh = gen_quad_macro()
    dm = build_dofmap(mesh, "q2")

    def poly(p):
        x, y = p[:, 0], p[:, 1]
        return (1 + 2 * x + 3 * x * x) * (2 - y + 0.5 * y * y)

    dofs = interpolate(dm, poly)
    rng = np.random.default_rng(1)
    pts_ref = rng.uniform(0, 1, size=(5, 2))
    vals, _ = eval_basis("q2", "quadrilateral", pts_ref)
    for ci, cell in enumerate(mesh.cells):
        v0 = mesh.vertices[cell[0]]
        v1 = mesh.vertices[cell[1]]
        v3 = mesh.vertices[cell[3]]
        phys = (v0[None, :] + pts_ref[:, :1] * (v1 - v0)[None, :]
                + pts_ref[:, 1:] * (v3 - v0)[None, :])
        uh = vals @ dofs[dm.cell_dofs[ci]]
        assert np.allclose(uh, poly(phys), atol=1e-12)


def test_fecombo_parse():
    c = FECombo.parse("p1b-p1:p1")
    assert c.velocity == ("p1b", "p1")
    assert c.pressure == "p1"
    assert str(c) == "p1b-p1:p1"
    c3 = FECombo.parse("p1-p1-p1b:p1")
    assert c3.dim == 3
    with pytest.raises(FESpaceError):
        FECombo.parse("p9:p1")
