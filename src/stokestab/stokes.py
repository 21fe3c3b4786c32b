"""Penalized Stokes systems with per-component velocity spaces.

The saddle problem uses one scalar space per velocity component (so the
stiffness block is block-diagonal over components) and a continuous pressure.
The divergence constraint carries a small pressure penalization eps*(p, pbar)
which fixes the pressure constant; the assembled system

    [ A   -B^T ] [w]   [f]
    [ -B  -eps*Mp ] [p] = [g]

is symmetric indefinite and solved by a direct sparse factorization, after
the cell bubbles of P1b components are eliminated cellwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import (FECombo, DofMap, build_dofmap, eval_basis, quadrature,
                      P1B, P2)
from .mesh import (Mesh, StokestabError, TRIANGLE, TETRAHEDRON, TOP,
                   _frozen, write_csv)


_QDEG = 5   # quadrature degree of the assembled blocks
_DATA_QDEG = 7   # of load vectors and error integrals of smooth data


class StokesError(StokestabError):
    pass


# ----------------------------------------------------------------------
# vectorized cell operators
# ----------------------------------------------------------------------

def cell_geometry(mesh):
    """Affine map data per cell: Jacobian, transposed inverse, measure.

    Computed once per mesh and kept on it (`Mesh.derived`), read-only."""
    return mesh.derived("cell_geometry",
                        lambda: _frozen(*_cell_geometry(mesh)))


def _cell_geometry(mesh):
    v = mesh.vertices
    c = mesh.cells
    if mesh.cell_kind in (TRIANGLE, TETRAHEDRON):
        d = mesh.dim
        J = np.stack([v[c[:, k + 1]] - v[c[:, 0]] for k in range(d)], axis=2)
        detJ = np.linalg.det(J)
        invJT = np.linalg.inv(J).transpose(0, 2, 1)
        ref_vol = 0.5 if d == 2 else 1.0 / 6.0
        return J, invJT, np.abs(detJ) * ref_vol
    # axis-aligned rectangles with reference square [0, 1]^2
    e1 = v[c[:, 1]] - v[c[:, 0]]
    e3 = v[c[:, 3]] - v[c[:, 0]]
    if np.abs(e1[:, 1]).max() > 1e-12 or np.abs(e3[:, 0]).max() > 1e-12:
        raise StokesError("only axis-aligned rectangular quads are supported")
    m = len(c)
    J = np.zeros((m, 2, 2))
    J[:, 0, 0] = e1[:, 0]
    J[:, 1, 1] = e3[:, 1]
    invJT = np.zeros_like(J)
    invJT[:, 0, 0] = 1.0 / e1[:, 0]
    invJT[:, 1, 1] = 1.0 / e3[:, 1]
    return J, invJT, e1[:, 0] * e3[:, 1]


def _scatter(rows_dofs, cols_dofs, elmats, shape):
    m, nr, nc = elmats.shape
    rows = np.repeat(rows_dofs, nc, axis=1).ravel()
    cols = np.tile(cols_dofs, (1, nr)).ravel()
    mat = sp.coo_matrix((elmats.ravel(), (rows, cols)), shape=shape)
    return mat.tocsr()


def operator_matrix(mesh, row_dm, col_dm, kind, qdeg, deriv_axis=None):
    """Assemble mass / stiffness / divergence-column blocks.

    kind 'mass': (phi_row, phi_col); 'stiffness': (grad phi_row, grad phi_col)
    on the same space; 'deriv': (phi_row, d_axis phi_col), the pressure-row /
    velocity-column divergence block.
    """
    elmats = element_matrices(mesh, row_dm.space, col_dm.space, kind, qdeg,
                              deriv_axis)
    return _scatter(row_dm.cell_dofs, col_dm.cell_dofs, elmats,
                    (row_dm.n_dofs, col_dm.n_dofs))


@lru_cache(maxsize=None)
def reference_tensor(row_space, col_space, cell_kind, kind, qdeg):
    """Quadrature sums of the reference shape functions, read-only and
    computed once per argument tuple: 'mass' [i, j] = sum_q w_q phi_i psi_j,
    'deriv' [d, i, j] = sum_q w_q phi_i d_d psi_j and 'stiffness'
    [d, e, i, j] = sum_q w_q d_d phi_i d_e psi_j, phi of the row space and
    psi of the column space, with the weights of quadrature(cell_kind, qdeg)
    (fractions of the cell measure)."""
    rule = quadrature(cell_kind, qdeg)
    rv, rg = eval_basis(row_space, cell_kind, rule.points)
    cv, cg = eval_basis(col_space, cell_kind, rule.points)
    w = rule.weights
    if kind == "mass":
        ref = np.einsum("q,qi,qj->ij", w, rv, cv)
    elif kind == "deriv":
        ref = np.einsum("q,qi,qjd->dij", w, rv, cg)
    elif kind == "stiffness":
        ref = np.einsum("q,qid,qje->deij", w, rg, cg)
    else:
        raise ValueError(kind)
    return _frozen(ref)


def element_matrices(mesh, row_space, col_space, kind, qdeg, deriv_axis=None):
    """(cells, row local dofs, col local dofs) blocks of operator_matrix.

    Every cell map the library supports is affine: triangles and tets, and
    axis-aligned rectangles (cell_geometry rejects any other quad).  So the
    physical gradient is invJT times the reference one at every point, and
    each block is the cell's geometry factor times a reference_tensor, one
    matmul per block:

        mass      meas * M
        deriv     (meas * invJT[axis, :]) @ D
        stiffness (meas * invJT^T invJT) @ K, summed over both reference
                  gradient components
    """
    _, invJT, meas = cell_geometry(mesh)
    ref = reference_tensor(row_space, col_space, mesh.cell_kind, kind, qdeg)
    if kind == "mass":
        return meas[:, None, None] * ref
    geo = (invJT[:, deriv_axis] if kind == "deriv"
           else (invJT.transpose(0, 2, 1) @ invJT).reshape(len(meas), -1))
    elmats = (meas[:, None] * geo) @ ref.reshape(geo.shape[1], -1)
    return elmats.reshape(len(meas), *ref.shape[-2:])


def _data_points(mesh):
    """The points of the quadrature rule of smooth data on every cell, as
    one (cells * points, dim) array."""
    rule = quadrature(mesh.cell_kind, _DATA_QDEG)
    xq = np.einsum("cdk,qk->cqd", cell_geometry(mesh)[0], rule.points,
                   optimize=True) + mesh.vertices[mesh.cells[:, 0]][:, None, :]
    return xq.reshape(-1, mesh.dim)


def load_vector(mesh, dm, fn):
    """Assemble (f, phi_i) for a scalar callable fn(points)."""
    return _project(mesh, dm, fn(_data_points(mesh)))


def _project(mesh, dm, fq):
    """(f, phi_i) from the values fq of f at `_data_points(mesh)`."""
    rule = quadrature(mesh.cell_kind, _DATA_QDEG)
    vals, _ = eval_basis(dm.space, mesh.cell_kind, rule.points)
    meas = cell_geometry(mesh)[2]
    out = np.zeros(dm.n_dofs)
    fq = fq.reshape(len(meas), len(rule.points))
    contrib = np.einsum("q,cq,qi->ci", rule.weights, fq, vals,
                        optimize=True) * meas[:, None]
    np.add.at(out, dm.cell_dofs, contrib)
    return out


# ----------------------------------------------------------------------
# the Stokes system
# ----------------------------------------------------------------------

@dataclass
class StokesSystem:
    mesh: Mesh
    combo: FECombo
    vel_dofmaps: list
    p_dofmap: DofMap
    A: sp.spmatrix            # block-diagonal component stiffness
    B: sp.spmatrix            # pressure rows x all velocity columns
    Mp: sp.spmatrix
    rhs: np.ndarray           # velocity load
    bc_mask: list             # per component bool arrays
    bc_values: list           # per component value arrays

    @property
    def offsets(self):
        sizes = [dm.n_dofs for dm in self.vel_dofmaps]
        return np.concatenate([[0], np.cumsum(sizes)])

    @property
    def n_velocity(self):
        return int(self.offsets[-1])

    def free_mask(self):
        return np.concatenate([~m for m in self.bc_mask])

    def constrained_values(self):
        return np.concatenate(self.bc_values)

    def interior_B(self):
        """Divergence block restricted to unconstrained velocity columns."""
        return self.B[:, self.free_mask()].tocsr()


def assemble(mesh, combo):
    """Stiffness, divergence and pressure-mass blocks for the combination.

    Velocity boundary conditions default to homogeneous Dirichlet on all of
    the boundary; use cavity_problem or edit bc_values for anything else.
    """
    combo = FECombo.parse(combo)
    if mesh.cell_kind != TRIANGLE:
        raise StokesError("global Stokes assembly is implemented for "
                          "triangular meshes")
    if combo.dim != mesh.dim:
        raise StokesError(f"combo {combo} has {combo.dim} velocity components "
                          f"for a {mesh.dim}D mesh")
    vel_dms = [build_dofmap(mesh, t) for t in combo.velocity]
    p_dm = build_dofmap(mesh, combo.pressure)

    A = sp.block_diag([operator_matrix(mesh, dm, dm, "stiffness", _QDEG)
                       for dm in vel_dms], format="csr")
    B = sp.hstack([operator_matrix(mesh, p_dm, dm, "deriv", _QDEG,
                                   deriv_axis=k)
                   for k, dm in enumerate(vel_dms)], format="csr")
    Mp = operator_matrix(mesh, p_dm, p_dm, "mass", _QDEG)
    rhs = np.zeros(sum(dm.n_dofs for dm in vel_dms))
    bc_mask = [dm.boundary_mask.copy() for dm in vel_dms]
    bc_values = [np.zeros(dm.n_dofs) for dm in vel_dms]
    return StokesSystem(mesh, combo, vel_dms, p_dm, A, B, Mp, rhs,
                        bc_mask, bc_values)


def cavity_problem(mesh, combo, variant="dirichlet_lid"):
    """Lid-driven cavity boundary conditions on a rectangle mesh.

    dirichlet_lid: first velocity component equals 1 on the top boundary
    (largest y, corners 0) and 0 elsewhere; second component 0 on the whole
    boundary.  neumann_lid: the first component is free on the facets tagged
    TOP with a unit conormal flux added to its load, fixed to 0 on the rest.
    """
    sys = assemble(mesh, combo)
    u_dm = sys.vel_dofmaps[0]
    ymax = mesh.vertices[:, 1].max()
    xmin = mesh.vertices[:, 0].min()
    xmax = mesh.vertices[:, 0].max()

    if variant == "dirichlet_lid":
        x, y = u_dm.coords.T
        on_top = (u_dm.boundary_mask & (np.abs(y - ymax) < 1e-12)
                  & (xmin + 1e-12 < x) & (x < xmax - 1e-12))
        sys.bc_values[0][on_top] = 1.0
    elif variant == "neumann_lid":
        tops = mesh.boundary_facets[mesh.boundary_tags == TOP]
        if not len(tops):
            raise StokesError("mesh has no boundary facets tagged as top")
        # release the top dofs of the first component and add the flux term
        mask = sys.bc_mask[0]
        edge_w = np.array({"p1": [0.5, 0.5], "p1b": [0.5, 0.5],
                           "p2": [1 / 6, 1 / 6, 2 / 3]}[u_dm.space])
        a, b = tops.T
        L = np.linalg.norm(mesh.vertices[a] - mesh.vertices[b], axis=1)
        ends = tops.ravel()
        np.add.at(sys.rhs, ends, (L[:, None] * edge_w[:2]).ravel())
        if u_dm.space == "p2":
            mid = mesh.num_vertices + mesh.edge_index(a, b)
            sys.rhs[mid] += edge_w[2] * L
            mask[mid] = False
        # corners stay fixed (they also belong to the side walls)
        x = mesh.vertices[ends, 0]
        mask[ends] = (np.abs(x - xmin) < 1e-12) | (np.abs(x - xmax) < 1e-12)
    else:
        raise StokesError(f"unknown cavity variant {variant!r}")
    return sys


@dataclass
class Solution:
    velocity: list            # full coefficient vectors, one per component
    pressure: np.ndarray
    diagnostics: dict


def boundary_flux(sys, velocity):
    """Outflow integral of the discrete velocity over the domain boundary.

    Facet traces are polynomial (bubbles vanish on cell boundaries), so the
    edgewise trapezoid/Simpson values are exact and the sum equals the
    integral of div(w) over the domain.
    """
    mesh = sys.mesh
    a, b = mesh.boundary_facets.T
    edge = mesh.edge_index(a, b)
    owners = mesh.facet_cells[edge, 0]   # in 2D the facets are the edges
    pa = mesh.vertices[a]
    t = mesh.vertices[b] - pa
    L = np.hypot(t[:, 0], t[:, 1])
    n = np.column_stack([t[:, 1], -t[:, 0]]) / L[:, None]
    cc = mesh.vertices[mesh.cells[owners]].mean(axis=1)
    n[((pa - cc) * n).sum(axis=1) < 0] *= -1.0
    mid = mesh.num_vertices + edge
    # one term per (facet, component), facet-major
    terms = np.empty((len(a), len(sys.vel_dofmaps)))
    for k, dm in enumerate(sys.vel_dofmaps):
        w = velocity[k]
        if dm.space == P2:
            tr = L * (w[a] + 4.0 * w[mid] + w[b]) / 6.0
        else:
            tr = L * (w[a] + w[b]) / 2.0
        terms[:, k] = n[:, k] * tr
    return math.fsum(terms.ravel())


def _bubble_mask(sys):
    """True at the cell dofs of the P1b velocity components."""
    mask = np.zeros(sys.n_velocity, dtype=bool)
    for off, dm in zip(sys.offsets, sys.vel_dofmaps):
        if dm.space == P1B:
            mask[off + dm.cell_dofs[:, -1]] = True
    return mask


def _condense(K, bub):
    """Eliminate the bubble unknowns of K: the Schur complement on the other
    unknowns (CSC), the bubble-row and bubble-column couplings and the
    bubble diagonal."""
    rest = ~bub
    Kb, Kr = K[bub], K[rest]
    Kbb, Kbr, Krb = Kb[:, bub], Kb[:, rest], Kr[:, bub]
    d = Kbb.diagonal()
    if np.any(d <= 0) or Kbb.count_nonzero() > np.count_nonzero(d):
        raise StokesError("the bubble block of the saddle matrix is not "
                          "a positive diagonal")
    # sum the Schur update as COO triplets: explicit zeros of K stay in the
    # pattern, so without bubbles the LU sees exactly K
    Krr = Kr[:, rest].tocoo()
    upd = (Krb @ sp.diags(-1.0 / d) @ Kbr).tocoo()
    Kc = sp.csc_matrix((np.concatenate([Krr.data, upd.data]),
                        (np.concatenate([Krr.row, upd.row]),
                         np.concatenate([Krr.col, upd.col]))),
                       shape=Krr.shape)
    return Kc, Kbr, Krb, d


class SaddleFactorization:
    """Sparse LU of the penalized saddle matrix on the free velocity dofs,

        K = [[Aff, -Bf^T], [-Bf, -delta*Mp]],

    built once from (system, delta) and shared by the saddle solve and the
    inf-sup eigensolve.  The cell bubbles of P1b components are eliminated
    before the LU (the MINI <-> stabilized P1-P1 equivalence of Arnold,
    Brezzi & Fortin): each bubble couples only to its own cell, so the
    bubble block of K is diagonal and its Schur complement stays inside the
    pattern of the other unknowns.  `solve` recovers the bubbles cellwise.

    The condensed matrix [[Aff, -Bf^T], [-Bf, -(delta*Mp + Bb D^-1 Bb^T)]]
    is symmetric quasi-definite: its velocity block is positive definite
    and its pressure block negative definite.  Such a matrix has an LDL^T
    factorization under every symmetric permutation (Vanderbei, SIAM J.
    Optim. 5, 1995), so it is factorized without row pivoting, in the
    minimum-degree order of K + K^T (2.44M entries for L and U instead of
    3.28M on the 64x64 level of the p1b-p1:p1 study).  Without bubbles the
    LU factorizes K itself with SuperLU's defaults: the pressure block is
    then only -delta*Mp, and pivot-free orders left relative residuals of
    7e-9 to 2e-7 on the p2-p1:p1 lid cavities.  A nonzero diagonal
    threshold is no middle way: at 1e-3 and 1e-2 it raised the fill of the
    64x64 p2-p1:p1 cavity from 9.2M to 10.6M and 43M.

    `unknowns` is the order of K, `condensed` the number of bubbles
    eliminated and `lu_fill` the entries SuperLU stores for L and U
    (exporting `lu.L` and `lu.U` to count them would copy the factors).
    """

    def __init__(self, sys, delta):
        if delta <= 0:
            raise StokesError("penalization parameter must be positive")
        free = sys.free_mask()
        A, B = sys.A.tocsr(), sys.B.tocsr()
        Bf = B[:, free]
        self.K = sp.bmat([[A[free][:, free], -Bf.T],
                          [-Bf, -delta * sys.Mp.tocsr()]], format="csr")
        self.n_velocity = nf = int(free.sum())
        bub = np.zeros(self.K.shape[0], dtype=bool)
        bub[:nf] = _bubble_mask(sys)[free]
        Kc, self._Kbr, self._Krb, d = _condense(self.K, bub)
        self.condensed = int(bub.sum())
        try:
            if self.condensed:
                self._lu = spla.splu(Kc, permc_spec="MMD_AT_PLUS_A",
                                     diag_pivot_thresh=0.0,
                                     options=dict(SymmetricMode=True))
            else:
                self._lu = spla.splu(Kc)
        except RuntimeError as exc:
            raise StokesError(
                "singular saddle factorization (the penalized system should "
                "be regular; check assembly and boundary conditions)") from exc
        self._bub, self._rest, self._d = bub, ~bub, d
        self.unknowns = self.K.shape[0]
        self.lu_fill = int(self._lu.nnz)

    def solve(self, rhs):
        """K^-1 rhs for one right-hand side on the free velocity dofs
        followed by the pressures."""
        bub, rest, d = self._bub, self._rest, self._d
        x = np.empty_like(rhs)
        x[rest] = self._lu.solve(rhs[rest] - self._Krb @ (rhs[bub] / d))
        x[bub] = (rhs[bub] - self._Kbr @ x[rest]) / d
        return x

    def solve_pressure(self, b):
        """Pressure part of K^-1 [0; b].  With no velocity load no bubble
        enters the condensed right-hand side, and none is recovered."""
        rhs = np.zeros(self._lu.shape[0])
        rhs[-len(b):] = b
        return self._lu.solve(rhs)[-len(b):]


def solve_penalized(sys, eps=1e-10):
    """Direct solve of the penalized saddle system through one
    `SaddleFactorization`, which condenses the P1b cell bubbles.

    Reports the mean pressure (expected O(eps)), the relative residual of
    the full assembled equations and the factorization's `unknowns`,
    `condensed` and `lu_fill` in the diagnostics.
    """
    fact = SaddleFactorization(sys, eps)
    free = sys.free_mask()
    g = sys.constrained_values()
    A, B, Mp = sys.A.tocsr(), sys.B.tocsr(), sys.Mp.tocsr()
    gC = g[~free]
    f_f = sys.rhs[free] - A[free][:, ~free] @ gC
    rhs = np.concatenate([f_f, B[:, ~free] @ gC])
    x = fact.solve(rhs)
    nf = fact.n_velocity
    wf, p = x[:nf], x[nf:]
    resid = (np.linalg.norm(fact.K @ x - rhs)
             / max(np.linalg.norm(rhs), 1e-300))

    full = np.empty(sys.n_velocity)
    full[free] = wf
    full[~free] = gC
    off = sys.offsets
    velocity = [full[off[k]:off[k + 1]] for k in range(len(sys.vel_dofmaps))]

    # The constant-pressure mode sits on an O(eps) eigenvalue, so the direct
    # solve leaves O(u/eps) noise in the pressure mean.  The mean row of the
    # system reads eps * (p, 1) = -int div(w) = -(boundary flux of w), an
    # identity in the boundary values only; re-impose it exactly.
    ones = np.ones(sys.p_dofmap.n_dofs)
    mp1 = Mp @ ones
    flux = boundary_flux(sys, velocity)
    target = -flux / eps
    p = p + (target - float(ones @ (Mp @ p))) / float(ones @ mp1) * ones
    int_p = float(ones @ (Mp @ p))
    return Solution(velocity, p, {"int_p": int_p, "residual": float(resid),
                                  "flux": flux, "eps": eps,
                                  "unknowns": fact.unknowns,
                                  "condensed": fact.condensed,
                                  "lu_fill": fact.lu_fill})


# ----------------------------------------------------------------------
# manufactured solution and convergence study
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ManufacturedSolution:
    u: callable
    v: callable
    p: callable
    grad_u: callable
    grad_v: callable
    f: callable


def trig_solution():
    """Divergence-free benchmark with zero velocity trace on the unit square."""
    tp = 2 * np.pi

    def u(x):
        return np.cos(tp * x[:, 0]) * np.sin(tp * x[:, 1]) - np.sin(tp * x[:, 1])

    def v(x):
        return -np.cos(tp * x[:, 1]) * np.sin(tp * x[:, 0]) + np.sin(tp * x[:, 0])

    def p(x):
        return tp * (np.cos(tp * x[:, 1]) - np.cos(tp * x[:, 0]))

    def grad_u(x):
        gx = -tp * np.sin(tp * x[:, 0]) * np.sin(tp * x[:, 1])
        gy = tp * np.cos(tp * x[:, 1]) * (np.cos(tp * x[:, 0]) - 1.0)
        return np.stack([gx, gy], axis=1)

    def grad_v(x):
        gx = -tp * np.cos(tp * x[:, 0]) * (np.cos(tp * x[:, 1]) - 1.0)
        gy = tp * np.sin(tp * x[:, 1]) * np.sin(tp * x[:, 0])
        return np.stack([gx, gy], axis=1)

    def f(x):
        s0, c0 = np.sin(tp * x[:, 0]), np.cos(tp * x[:, 0])
        s1, c1 = np.sin(tp * x[:, 1]), np.cos(tp * x[:, 1])
        f1 = 2 * tp ** 2 * c0 * s1 - tp ** 2 * s1 + tp ** 2 * s0
        f2 = -2 * tp ** 2 * c1 * s0 + tp ** 2 * s0 - tp ** 2 * s1
        return np.stack([f1, f2], axis=1)

    return ManufacturedSolution(u, v, p, grad_u, grad_v, f)


def _field_errors(mesh, dm, dofs, exact, exact_grad):
    rule = quadrature(mesh.cell_kind, _DATA_QDEG)
    _, invJT, meas = cell_geometry(mesh)
    flat = _data_points(mesh)
    vals, grads = eval_basis(dm.space, mesh.cell_kind, rule.points)
    cd = dofs[dm.cell_dofs]
    uh = np.einsum("qi,ci->cq", vals, cd, optimize=True)
    err2 = (uh - exact(flat).reshape(uh.shape)) ** 2
    l2 = float(np.einsum("q,cq,c->", rule.weights, err2, meas, optimize=True))
    h1 = None
    if exact_grad is not None:
        # one contraction, so the (cells, points, dofs, dim) physical
        # gradients of the basis are never formed
        guh = np.einsum("ckd,qid,ci->cqk", invJT, grads, cd, optimize=True)
        gerr = guh - exact_grad(flat).reshape(guh.shape)
        h1 = float(np.einsum("q,cqk,c->", rule.weights, gerr ** 2, meas,
                             optimize=True))
    return np.sqrt(l2), (np.sqrt(h1) if h1 is not None else None)


@dataclass
class ErrorReport:
    combo: FECombo
    rows: list                # dicts: h, eL2_u, eH1_u, eL2_v, eH1_v, eL2_p

    def orders(self):
        """Convergence orders between consecutive refinements."""
        out = []
        keys = ["eL2_u", "eH1_u", "eL2_v", "eH1_v", "eL2_p"]
        for a, b in zip(self.rows, self.rows[1:]):
            o = {"h": b["h"]}
            for k in keys:
                o["order_" + k[1:]] = (np.log(b[k] / a[k])
                                       / np.log(b["h"] / a["h"]))
            out.append(o)
        return out

    def to_csv(self, path):
        keys = ["h", "eL2_u", "eH1_u", "eL2_v", "eH1_v", "eL2_p"]
        okeys = ["order_L2_u", "order_H1_u", "order_L2_v", "order_H1_v",
                 "order_L2_p"]
        orders = self.orders()
        rows = []
        for i, r in enumerate(self.rows):
            row = [r[k] for k in keys]
            if i == 0:
                row += [""] * len(okeys)
            else:
                row += [orders[i - 1][k] for k in okeys]
            rows.append(row)
        write_csv(path, keys + okeys, rows)


def convergence_study(combo, meshes, exact=None, eps=1e-10):
    """Solve on each mesh and report errors and orders.

    The exact solution must be divergence-free with zero boundary trace;
    this is spot-checked on the first mesh before any solve.
    """
    combo = FECombo.parse(combo)
    if not meshes:
        raise StokesError("a convergence study needs at least one mesh")
    if exact is None:
        exact = trig_solution()

    m0 = meshes[0]
    bnd = m0.vertices[m0.boundary_vertex_mask()]
    assert np.abs(exact.u(bnd)).max() < 1e-12
    assert np.abs(exact.v(bnd)).max() < 1e-12
    pts = np.random.default_rng(0).uniform(0.1, 0.9, size=(50, 2))
    div = exact.grad_u(pts)[:, 0] + exact.grad_v(pts)[:, 1]
    assert np.abs(div).max() < 1e-10

    rows = []
    for mesh in meshes:
        sys = assemble(mesh, combo)
        f = exact.f(_data_points(mesh))
        for k, dm in enumerate(sys.vel_dofmaps):
            sys.rhs[sys.offsets[k]:sys.offsets[k + 1]] = _project(
                mesh, dm, f[:, k])
        del f  # not held through the solve
        sol = solve_penalized(sys, eps)
        ul2, uh1 = _field_errors(mesh, sys.vel_dofmaps[0], sol.velocity[0],
                                 exact.u, exact.grad_u)
        vl2, vh1 = _field_errors(mesh, sys.vel_dofmaps[1], sol.velocity[1],
                                 exact.v, exact.grad_v)
        # align the pressure mean with the zero-mean exact pressure
        area = mesh.cell_measures().sum()
        pshift = sol.pressure - sol.diagnostics["int_p"] / area
        pl2, _ = _field_errors(mesh, sys.p_dofmap, pshift, exact.p, None)
        rows.append({"h": mesh.metrics().h, "eL2_u": ul2, "eH1_u": uh1,
                     "eL2_v": vl2, "eH1_v": vh1, "eL2_p": pl2})
    return ErrorReport(combo, rows)
