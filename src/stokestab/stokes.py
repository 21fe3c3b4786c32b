"""Penalized Stokes systems with per-component velocity spaces.

The saddle problem uses one scalar space per velocity component (so the
stiffness block is block-diagonal over components) and a continuous pressure.
The divergence constraint carries a small pressure penalization eps*(p, pbar)
which fixes the pressure constant; the system

    [ A   -B^T ] [w]   [f]
    [ -B  -eps*Mp ] [p] = [g]

is symmetric quasi-definite.  It is solved by one pivot-free sparse
factorization, and the solution is refined with that same factor.  The
factorized matrix is built straight from the element matrices: every cell's
saddle block is formed in one batched step, the cell bubbles of P1b
components are eliminated cell by cell (static condensation), and the
condensed blocks go in one scatter into the sparse matrix, already in the
factor's order.  That order takes the unknowns mesh location by mesh
location (the u, v and p of a vertex together), the locations in
minimum-degree order.  The global A, B and Mp of a `StokesSystem` are
scattered only when a caller reads them.

A manufactured solution is two callables on points, `load` (the forcing)
and `fields` (velocity, gradient, pressure); a convergence study calls each
once per mesh and reports the errors of every velocity component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import (FECombo, DofMap, build_dofmap, eval_basis, quadrature,
                      P1B, P2)
from .mesh import (Mesh, StokestabError, TRIANGLE, TETRAHEDRON,
                   QUADRILATERAL, TOP, _frozen, kept_on_mesh, write_csv)


# quadrature degree of the assembled blocks, read by reference_tensor alone
# (P1b stiffness is degree 6 on tets)
_QDEG = {TRIANGLE: 5, TETRAHEDRON: 6, QUADRILATERAL: 5}
_DATA_QDEG = 7   # of load vectors and error integrals of smooth data


class StokesError(StokestabError):
    pass


# ----------------------------------------------------------------------
# vectorized cell operators
# ----------------------------------------------------------------------

@kept_on_mesh
def cell_geometry(mesh):
    """Affine map data per cell: Jacobian, transposed inverse, measure.

    Computed once per mesh and kept on it, read-only."""
    v = mesh.vertices
    c = mesh.cells
    if mesh.cell_kind in (TRIANGLE, TETRAHEDRON):
        d = mesh.dim
        J = np.stack([v[c[:, k + 1]] - v[c[:, 0]] for k in range(d)], axis=2)
        detJ = np.linalg.det(J)
        invJT = np.linalg.inv(J).transpose(0, 2, 1)
        ref_vol = 0.5 if d == 2 else 1.0 / 6.0
        return _frozen(J, invJT, np.abs(detJ) * ref_vol)
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
    return _frozen(J, invJT, e1[:, 0] * e3[:, 1])


def _scatter(rows, cols, vals, shape):
    """Sum the entries vals at (rows, cols), three arrays of one size read
    in C order, into a CSR matrix."""
    return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=shape)


def operator_matrix(mesh, row_dm, col_dm, kind, deriv_axis=None):
    """Assemble mass / stiffness / divergence-column blocks.

    kind 'mass': (phi_row, phi_col); 'stiffness': (grad phi_row, grad phi_col)
    on the same space; 'deriv': (phi_row, d_axis phi_col), the pressure-row /
    velocity-column divergence block.
    """
    elmats = element_matrices(mesh, row_dm.space, col_dm.space, kind,
                              deriv_axis)
    _, nr, nc = elmats.shape
    return _scatter(np.repeat(row_dm.cell_dofs, nc, axis=1),
                    np.tile(col_dm.cell_dofs, (1, nr)), elmats,
                    (row_dm.n_dofs, col_dm.n_dofs))


@lru_cache(maxsize=None)
def reference_tensor(row_space, col_space, cell_kind, kind):
    """Quadrature sums of the reference shape functions, read-only and
    computed once per argument tuple: 'mass' [i, j] = sum_q w_q phi_i psi_j,
    'deriv' [d, i, j] = sum_q w_q phi_i d_d psi_j and 'stiffness'
    [d, e, i, j] = sum_q w_q d_d phi_i d_e psi_j, phi of the row space and
    psi of the column space, with the weights of the cell kind's rule of
    degree _QDEG (fractions of the cell measure)."""
    rule = quadrature(cell_kind, _QDEG[cell_kind])
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


def element_matrices(mesh, row_space, col_space, kind, deriv_axis=None):
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
    ref = reference_tensor(row_space, col_space, mesh.cell_kind, kind)
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
    """One Stokes problem on a mesh: the dof maps, the velocity load and the
    Dirichlet data.  A (the component stiffness, block-diagonal), B
    (pressure rows x all velocity columns) and Mp are read-only properties,
    each scattered from its element matrices the first time it is read and
    kept.  The saddle factorization reads none of them: it scatters its
    matrix from the cell blocks."""
    mesh: Mesh
    combo: FECombo
    vel_dofmaps: list
    p_dofmap: DofMap
    rhs: np.ndarray           # velocity load
    bc_mask: list             # per component bool arrays
    bc_values: list           # per component value arrays
    _scattered: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def _kept(self, name, build):
        if name not in self._scattered:
            M = build()
            _frozen(M.data, M.indices, M.indptr)
            self._scattered[name] = M
        return self._scattered[name]

    @property
    def A(self):
        return self._kept("A", lambda: sp.block_diag(
            [operator_matrix(self.mesh, dm, dm, "stiffness")
             for dm in self.vel_dofmaps], format="csr"))

    @property
    def B(self):
        # (q, d_k v_k), components in turn
        return self._kept("B", lambda: sp.hstack(
            [operator_matrix(self.mesh, self.p_dofmap, dm, "deriv",
                             deriv_axis=k)
             for k, dm in enumerate(self.vel_dofmaps)], format="csr"))

    @property
    def Mp(self):
        dm = self.p_dofmap
        return self._kept("Mp", lambda: operator_matrix(
            self.mesh, dm, dm, "mass"))

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


def assemble(mesh, combo):
    """The Stokes system of the combination on a triangle mesh; its
    matrices are scattered when first read.

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
    rhs = np.zeros(sum(dm.n_dofs for dm in vel_dms))
    bc_mask = [dm.boundary_mask.copy() for dm in vel_dms]
    bc_values = [np.zeros(dm.n_dofs) for dm in vel_dms]
    return StokesSystem(mesh, combo, vel_dms, p_dm, rhs, bc_mask, bc_values)


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


def _location_order(mesh, loc):
    """An order of the unknowns at mesh locations `loc` (numbered as
    `DofMap.locations`) for a factorization with little fill: location by
    location, in the minimum-degree order of the graph of locations that
    share a cell, and by index within one location.

    Minimum degree on K + K^T sees the u, v and p of a vertex as separate
    nodes, since u couples only to u and v only to v.  The graph of the
    locations that hold an unknown is that graph compressed (Ashcraft, SIAM
    J. Sci. Comput. 16, 1995) and much cheaper to order.  SuperLU's
    MMD_AT_PLUS_A orders it, read as the column order of a factor of a
    diagonally dominant matrix with its pattern.
    """
    nv, ne, nc = mesh.num_vertices, len(mesh.edges()), mesh.num_cells
    held = np.zeros(nv + ne + nc, dtype=bool)
    held[loc] = True
    node = np.where(held, np.cumsum(held) - 1, -1)   # graph node or -1
    span = (0, nv, nv + ne, nv + ne + nc)
    table = np.hstack([node[t] for t, lo, hi in zip(
        (mesh.cells, nv + mesh.cell_edges, nv + ne + np.arange(nc)[:, None]),
        span, span[1:]) if held[lo:hi].any()])
    # Each cell's clique, as entries with row <= col.  Minimum degree reads
    # the pattern of G + G^T, which for an upper triangular G lists every
    # node's neighbours in ascending order, as for the symmetric graph, so
    # ties are broken alike; and half the entries cost less to order.
    m = table.shape[1]
    i, j = np.triu_indices(m)
    a, b = table[:, i].ravel(), table[:, j].ravel()
    keep = (a >= 0) & (b >= 0)
    a, b = a[keep], b[keep]
    # each cell adds m on the diagonal and -1 off it: strictly dominant
    vals = np.tile(np.where(i == j, float(m), -1.0), nc)[keep]
    n = int(held.sum())
    G = sp.csc_matrix((vals, (np.minimum(a, b), np.maximum(a, b))),
                      shape=(n, n))
    # An incomplete factor that drops every entry off the diagonal has the
    # complete factor's column order, at a quarter of its cost on the
    # 128x128 P2 graph.  SymmetricMode post-orders it by the elimination
    # tree of G + G^T, which keeps its fill, and not by that of G^T G.
    rank = spla.spilu(G, drop_tol=1.0, fill_factor=1,
                      permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options=dict(SymmetricMode=True)).perm_c
    return np.argsort(rank[node[loc]], kind="stable")


@lru_cache(maxsize=None)
def _saddle_reference(vel_spaces, p_space, cell_kind):
    """The reference tensors of the cell saddle block, read-only: R of shape
    (2 d^2 + 1, local, local) such that each cell's block
    [[A_e, -B_e^T], [-B_e, -delta*Mp_e]] is sum_q geo[c, q] R[q], with geo
    the factors of `_saddle_geometry`.  The local dofs are those of each
    velocity component in turn, then the pressure's, each in `eval_basis`
    order."""
    d = len(vel_spaces)
    S = [reference_tensor(s, s, cell_kind, "stiffness") for s in vel_spaces]
    D = [reference_tensor(p_space, s, cell_kind, "deriv") for s in vel_spaces]
    M = reference_tensor(p_space, p_space, cell_kind, "mass")
    at = np.cumsum([0] + [t.shape[-1] for t in S] + [len(M)])
    R = np.zeros((2 * d * d + 1, at[-1], at[-1]))
    p = slice(at[-2], at[-1])
    for k, (Sk, Dk) in enumerate(zip(S, D)):
        v, div = slice(at[k], at[k + 1]), slice(d * d + k * d,
                                                d * d + k * d + d)
        R[:d * d, v, v] = Sk.reshape(d * d, *Sk.shape[2:])
        R[div, p, v] = -Dk
        R[div, v, p] = -Dk.transpose(0, 2, 1)
    R[-1, p, p] = M
    return _frozen(R)


def _saddle_geometry(mesh, delta):
    """The cell factors of `_saddle_reference`, (cells, 2 d^2 + 1): the
    cell measure times invJT^T invJT (stiffness, as in
    `element_matrices`), times invJT row by row (the divergence, component
    k along axis k) and times -delta (the pressure mass)."""
    _, invJT, meas = cell_geometry(mesh)
    nc = len(meas)
    return meas[:, None] * np.hstack([
        (invJT.transpose(0, 2, 1) @ invJT).reshape(nc, -1),
        invJT.reshape(nc, -1), np.full((nc, 1), -delta)])


def _slots(sys):
    """The local layout of `_saddle_reference`: the slots of the P1b
    bubbles, the other slots, and the pairs (i, j), i <= j, of those other
    slots that couple.  u couples to u and p, v to v and p; nothing couples
    u to v, not even after a bubble is eliminated."""
    dms = sys.vel_dofmaps + [sys.p_dofmap]
    part = np.repeat(np.arange(len(dms)),
                     [dm.cell_dofs.shape[1] for dm in dms])
    ends = np.cumsum(np.bincount(part))
    bs = np.array([e - 1 for e, dm in zip(ends, sys.vel_dofmaps)
                   if dm.space == P1B], dtype=int)
    ks = np.setdiff1d(np.arange(len(part)), bs)
    i, j = np.triu_indices(len(ks))
    pi, pj = part[ks[i]], part[ks[j]]
    p = len(dms) - 1
    pair = (pi == pj) | (pi == p) | (pj == p)
    return bs, ks, i[pair], j[pair]


def _symmetric_scatter(pos, i, j, vals, n):
    """The symmetric n x n CSC matrix that sums, over every cell c and pair
    k, vals[c, k] at (pos[c, i[k]], pos[c, j[k]]) and at its mirror; a pair
    at position n (a Dirichlet dof) is dropped.

    Each pair enters once, below the diagonal, a diagonal one halved, so
    the matrix is L + L^T, exactly symmetric, from half the entries.  The
    pairs at position n all fall in row n of L, which is cut off."""
    a, b = np.take(pos, i, axis=1), np.take(pos, j, axis=1)
    hi = np.maximum(a, b)
    lo = np.minimum(a, b, out=a)
    del a, b
    vals *= np.where(i == j, 0.5, 1.0)
    L = _scatter(hi, lo, vals, (n + 1, n + 1))
    del hi, lo
    end = L.indptr[n]
    L = sp.csr_matrix((L.data[:end], L.indices[:end], L.indptr[:n + 1]),
                      shape=(n, n))
    return L.T + L


class SaddleFactorization:
    """Sparse LU of the penalized saddle matrix on the free velocity dofs,

        K = [[Aff, -Bf^T], [-Bf, -delta*Mp]],

    built once from (system, delta) and shared by the saddle solve and the
    inf-sup eigensolve.  The cell bubbles of P1b components are eliminated
    before the LU (the MINI <-> stabilized P1-P1 equivalence of Arnold,
    Brezzi & Fortin).  A bubble couples only to its own cell, so it is
    eliminated there.  Every cell's saddle block is its geometry factors
    times the combination's reference tensors (`_saddle_geometry`,
    `_saddle_reference`), so one batched GEMM forms the entries needed of
    every block, and each free bubble leaves its block by a diagonal Schur
    update (static condensation; Wilson, Int. J. Numer. Meth. Eng. 8,
    1974).  The condensed blocks then go in one scatter straight into the
    CSC matrix `Kc` that SuperLU takes, in factor order; the Dirichlet dofs
    drop out in the index tables, and their lift is taken from the same
    blocks.  K itself, A, B and the bubble block are never assembled.  The
    bubbles' rows and diagonal are kept per cell, and `solve` recovers the
    bubbles cell by cell.

    Every matrix is factorized the same way: without row pivoting, in the
    order of `_location_order`, which takes the unknowns location by
    location and the locations in the minimum-degree order of the graph of
    locations that share a cell.  The condensed matrix is symmetric
    quasi-definite, its velocity block positive definite and its pressure
    block -(delta*Mp + Bb D^-1 Bb^T) negative definite, and such a matrix
    has an LDL^T factorization under every symmetric permutation
    (Vanderbei, SIAM J. Optim. 5, 1995).  With nothing to condense (P2, P1)
    that block is only -delta*Mp and the pivot-free factor is less
    accurate: its solves of the p2-p1:p1 lid cavities (8x8 to 64x64) leave
    relative residuals of up to 9e-8.  `solve` therefore refines its answer
    with the same factor (classical iterative refinement; Arioli, Demmel &
    Duff, SIAM J. Matrix Anal. Appl. 10, 1989) while the residual is above
    1e-14 ||rhs|| and each step at least halves it, and keeps only the
    steps that do.  The residual is that of `Kc`: the bubble rows are
    solved exactly, so it is the residual of K up to rounding.  One step
    brings those cavities to 4e-16 to 3e-14, where SuperLU's pivoting LU of
    K leaves up to 1.1e-13.  The factor is of K itself, so refinement also
    converges along the O(delta) eigenvalues of spurious pressure modes.
    On the 64x64 level of the p2-p1:p1 family cavity L and U hold 3.68M
    entries, against 7.05M for minimum degree on K + K^T and 9.16M for
    SuperLU's default column order with partial pivoting.

    `unknowns` is the order of K, `condensed` the number of bubbles
    eliminated and `lu_fill` the entries SuperLU stores for L and U
    (exporting `lu.L` and `lu.U` to count them would copy the factors).
    """

    def __init__(self, sys, delta):
        if not (delta > 0 and math.isfinite(delta)):
            raise StokesError(f"penalization parameter must be positive and "
                              f"finite, got {delta}")
        free = sys.free_mask()
        self.n_velocity = nf = int(free.sum())
        self.unknowns = n = nf + sys.p_dofmap.n_dofs
        # the unknown (row of K) of every cell's local dofs, n at Dirichlet
        # dofs, and the Dirichlet values there
        index = np.full(sys.n_velocity, n)
        index[free] = np.arange(nf)
        vel = np.hstack([off + dm.cell_dofs
                         for off, dm in zip(sys.offsets, sys.vel_dofmaps)])
        unknown = np.hstack([index[vel], nf + sys.p_dofmap.cell_dofs])
        g = np.where(free, 0.0, sys.constrained_values())[vel]
        bs, ks, i, j = _slots(sys)

        # Every cell's saddle block is geo @ R, so one GEMM gives any set
        # of its entries for every cell, C-ordered as the scatter reads them
        geo = _saddle_geometry(sys.mesh, delta)
        R = _saddle_reference(tuple(dm.space for dm in sys.vel_dofmaps),
                              sys.p_dofmap.space, sys.mesh.cell_kind)
        nl = R.shape[1]
        R = R.reshape(len(R), nl * nl)
        # the Dirichlet lift, -K_e g_e, on the cells that hold a Dirichlet
        # value only
        lifted = np.flatnonzero(g.any(axis=1))
        cols = (np.arange(nl)[:, None] * nl + np.arange(g.shape[1])).ravel()
        Kg = (geo[lifted] @ R[:, cols]).reshape(len(lifted), nl, g.shape[1])
        self._lift = -np.bincount(
            unknown[lifted].ravel(), np.einsum("cij,cj->ci", Kg,
                                               g[lifted]).ravel(),
            minlength=n + 1)[:n]
        bub = np.take(unknown, bs, axis=1)     # n where a bubble is fixed
        held = bub < n
        d = geo @ R[:, bs * (nl + 1)]
        if not np.all(d[held] > 0):
            raise StokesError("the bubble block of the saddle matrix is not "
                              "a positive diagonal")
        w = np.divide(1.0, d, out=np.zeros_like(d), where=held)

        def bubble_rows(slots):
            # K_e[b, slots] of every bubble b, (cells, bubbles, slots)
            return (geo @ R[:, (bs[:, None] * nl + slots).ravel()]).reshape(
                len(geo), len(bs), len(slots))

        rows = bubble_rows(ks)
        # each pair's entry less its bubbles' Schur updates K_ib K_bj / K_bb
        vals = geo @ R[:, ks[i] * nl + ks[j]]
        if len(bs):
            update = bubble_rows(ks[i])    # in place: a lower peak
            update *= w[:, :, None]
            update *= bubble_rows(ks[j])
            vals -= update.sum(axis=1)
            del update
        del geo

        cond = np.zeros(n + 1, dtype=bool)
        cond[bub] = True
        rest = np.flatnonzero(~cond[:n])
        loc = np.concatenate(
            [np.concatenate([dm.locations for dm in sys.vel_dofmaps])[free],
             sys.p_dofmap.locations])
        perm = rest[_location_order(sys.mesh, loc[rest])]
        nr = len(perm)
        at = np.full(n + 1, nr, dtype=np.int32)   # factor row of each unknown
        at[perm] = np.arange(nr)
        pos = at[np.take(unknown, ks, axis=1)]
        del unknown
        self.Kc = _symmetric_scatter(pos, i, j, vals, nr)
        del vals
        self.condensed = int(held.sum())
        try:
            self._lu = spla.splu(self.Kc, permc_spec="NATURAL",
                                 diag_pivot_thresh=0.0,
                                 options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise StokesError(
                "singular saddle factorization (the penalized system should "
                "be regular; check assembly and boundary conditions)") from exc
        self._perm, self._pos, self._bub, self._rows, self._w = (
            perm, pos, bub, rows, w)
        self._p_at = at[nf:n]
        self.lu_fill = int(self._lu.nnz)

    def solve(self, rhs):
        """K^-1 rhs for one right-hand side on the free velocity dofs
        followed by the pressures, refined with the factor."""
        return self._refined(rhs)[0]

    def _refined(self, rhs):
        """The refined solution, the norm of its residual in `Kc` (that of
        K up to rounding) and the number of refinement steps kept."""
        rb = np.append(rhs, 0.0)[self._bub]
        rc = rhs[self._perm] - np.bincount(
            self._pos.ravel(), np.einsum("cb,cbj->cj", rb * self._w,
                                         self._rows).ravel(),
            minlength=len(self._perm) + 1)[:-1]
        x = self._lu.solve(rc)
        r = rc - self.Kc @ x
        norm = np.linalg.norm(r)
        target = 1e-14 * np.linalg.norm(rhs)
        steps = 0
        while norm > target:
            y = x + self._lu.solve(r)
            ry = rc - self.Kc @ y
            ny = np.linalg.norm(ry)
            if not ny <= 0.5 * norm:
                break
            x, r, norm = y, ry, ny
            steps += 1
        out = np.empty(self.unknowns + 1)
        out[self._perm] = x
        out[self._bub] = (rb - np.einsum("cbj,cj->cb", self._rows,
                                         np.append(x, 0.0)[self._pos])
                          ) * self._w
        return out[:-1], norm, steps

    def solve_pressure(self, b):
        """Pressure part of K^-1 [0; b], one solve with the factor and no
        refinement.  With no velocity load no bubble enters the condensed
        right-hand side, and none is recovered."""
        rhs = np.zeros(self._lu.shape[0])
        rhs[self._p_at] = b
        return self._lu.solve(rhs)[self._p_at]


def solve_penalized(sys, eps=1e-10):
    """Direct solve of the penalized saddle system through one
    `SaddleFactorization`, which condenses the P1b cell bubbles cell by
    cell, scatters the condensed matrix once and refines the solution with
    its factor.  The Dirichlet lift comes from the factorization's cell
    blocks, so no global A or B is formed; only the pressure mass is
    scattered, for the pressure mean.

    Reports the mean pressure (expected O(eps)), the relative residual of
    the full equations, the refinement steps kept and the factorization's
    `unknowns`, `condensed` and `lu_fill` in the diagnostics.
    """
    fact = SaddleFactorization(sys, eps)
    free = sys.free_mask()
    Mp = sys.Mp
    rhs = np.concatenate([sys.rhs[free], np.zeros(Mp.shape[0])]) + fact._lift
    x, rnorm, refinements = fact._refined(rhs)
    nf = fact.n_velocity
    wf, p = x[:nf], x[nf:]
    resid = rnorm / max(np.linalg.norm(rhs), 1e-300)

    full = sys.constrained_values()
    full[free] = wf
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
                                  "lu_fill": fact.lu_fill,
                                  "refinements": refinements})


# ----------------------------------------------------------------------
# manufactured solution and convergence study
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ManufacturedSolution:
    """An exact Stokes solution, evaluated at an (n, d) array of points x.

    load(x): the forcing -lap u + grad p, (n, d).
    fields(x): the velocity (n, d), its gradient (n, d, d) with row k the
    gradient of component k, and the pressure (n,).
    """
    load: callable
    fields: callable


def trig_solution():
    """Divergence-free benchmark with zero velocity trace on the unit square.
    Each call takes the sine and cosine of 2 pi x and 2 pi y once."""
    tp = 2 * np.pi

    def sincos(x):
        return (np.sin(tp * x[:, 0]), np.cos(tp * x[:, 0]),
                np.sin(tp * x[:, 1]), np.cos(tp * x[:, 1]))

    def load(x):
        s0, c0, s1, c1 = sincos(x)
        f1 = 2 * tp ** 2 * c0 * s1 - tp ** 2 * s1 + tp ** 2 * s0
        f2 = -2 * tp ** 2 * c1 * s0 + tp ** 2 * s0 - tp ** 2 * s1
        return np.stack([f1, f2], axis=1)

    def fields(x):
        s0, c0, s1, c1 = sincos(x)
        velocity = np.stack([c0 * s1 - s1, -c1 * s0 + s0], axis=1)
        grad = np.array([[-tp * s0 * s1, tp * c1 * (c0 - 1.0)],
                         [-tp * c0 * (c1 - 1.0), tp * s1 * s0]])
        return velocity, grad.transpose(2, 0, 1), tp * (c1 - c0)

    return ManufacturedSolution(load, fields)


def _field_errors(mesh, dm, dofs, exact, exact_grad=None):
    """L2 and H1-seminorm errors (None without exact_grad) of dofs in dm,
    against exact values (n,) and gradients (n, d) at `_data_points`."""
    rule = quadrature(mesh.cell_kind, _DATA_QDEG)
    _, invJT, meas = cell_geometry(mesh)
    vals, grads = eval_basis(dm.space, mesh.cell_kind, rule.points)
    cd = dofs[dm.cell_dofs]
    uh = np.einsum("qi,ci->cq", vals, cd, optimize=True)
    err2 = (uh - exact.reshape(uh.shape)) ** 2
    l2 = float(np.einsum("q,cq,c->", rule.weights, err2, meas, optimize=True))
    h1 = None
    if exact_grad is not None:
        # one contraction, so the (cells, points, dofs, dim) physical
        # gradients of the basis are never formed
        guh = np.einsum("ckd,qid,ci->cqk", invJT, grads, cd, optimize=True)
        gerr = guh - exact_grad.reshape(guh.shape)
        h1 = float(np.einsum("q,cqk,c->", rule.weights, gerr ** 2, meas,
                             optimize=True))
    return np.sqrt(l2), (np.sqrt(h1) if h1 is not None else None)


@dataclass
class ErrorReport:
    combo: FECombo
    rows: list                # dicts: h, eL2_u, eH1_u, eL2_v, ..., eL2_p

    def orders(self):
        """Convergence orders between consecutive refinements: order_L2_u
        and so on, one per error of the rows."""
        out = []
        for a, b in zip(self.rows, self.rows[1:]):
            dh = np.log(b["h"] / a["h"])
            out.append({"h": b["h"], **{
                "order_" + k[1:]: np.log(b[k] / a[k]) / dh
                for k in b if k != "h"}})
        return out

    def to_csv(self, path):
        keys = list(self.rows[0]) if self.rows else ["h"]
        okeys = ["order_" + k[1:] for k in keys if k != "h"]
        orders = [dict.fromkeys(okeys, "")] + self.orders()
        write_csv(path, keys + okeys, [[r[k] for k in keys]
                                       + [o[k] for k in okeys]
                                       for r, o in zip(self.rows, orders)])


def convergence_study(combo, meshes, exact=None, eps=1e-10):
    """Solve on each mesh and report errors and orders.

    The meshes must have distinct sizes h.  The exact solution must be
    divergence-free with zero boundary trace; this is spot-checked on the
    first mesh.  Either failure raises StokesError before any solve.
    """
    combo = FECombo.parse(combo)
    if not meshes:
        raise StokesError("a convergence study needs at least one mesh")
    if exact is None:
        exact = trig_solution()
    hs = [mesh.metrics().h for mesh in meshes]
    for j, h in enumerate(hs):
        if h in hs[:j]:
            raise StokesError(f"meshes {hs.index(h)} and {j} have the same "
                              f"size h = {h:.6g}")

    m0 = meshes[0]
    trace = np.abs(exact.fields(
        m0.vertices[m0.boundary_vertex_mask()])[0]).max()
    # written so that nan fails too
    if not trace < 1e-12:
        raise StokesError(f"the exact velocity must vanish on the boundary; "
                          f"it reaches {trace:.3g} there")
    pts = np.random.default_rng(0).uniform(0.1, 0.9, size=(50, m0.dim))
    div = np.abs(np.trace(exact.fields(pts)[1], axis1=1, axis2=2)).max()
    if not div < 1e-10:
        raise StokesError(f"the exact velocity must be divergence-free; its "
                          f"divergence reaches {div:.3g}")

    return ErrorReport(combo, [_study_row(mesh, h, combo, exact, eps)
                               for mesh, h in zip(meshes, hs)])


def _study_row(mesh, h, combo, exact, eps):
    """One row of `convergence_study`: the load is evaluated before the
    solve and the fields after it, and neither outlives its phase."""
    sys = assemble(mesh, combo)
    f = exact.load(_data_points(mesh))
    for k, dm in enumerate(sys.vel_dofmaps):
        sys.rhs[sys.offsets[k]:sys.offsets[k + 1]] = _project(mesh, dm,
                                                              f[:, k])
    del f  # not held through the solve
    sol = solve_penalized(sys, eps)
    w, grad, p = exact.fields(_data_points(mesh))
    row = {"h": h}
    for k, (dm, name) in enumerate(zip(sys.vel_dofmaps, "uvw")):
        row["eL2_" + name], row["eH1_" + name] = _field_errors(
            mesh, dm, sol.velocity[k], w[:, k], grad[:, k])
    # align the pressure mean with the zero-mean exact pressure
    area = mesh.cell_measures().sum()
    pshift = sol.pressure - sol.diagnostics["int_p"] / area
    row["eL2_p"] = _field_errors(mesh, sys.p_dofmap, pshift, p)[0]
    return row
