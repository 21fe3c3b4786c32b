"""Numeric stability ground truth: local nullspaces, witness pressures,
global spurious modes and the discrete inf-sup constant.

The local oracle takes, for one macro-element, the divergence pairing
between pressures and velocities that vanish on the macro boundary, and
counts the singular values of that matrix restricted to the complement of
constant pressures.  A macro is numerically regular exactly when that count
is zero, which is what the closed-form predicates are validated against.
The pairing's rows are the star's vertices and its columns the velocity
dofs off the domain boundary whose cells all lie in the star.  It and the
star's pressure mass are sums over the star's cells of the cell blocks,
which are computed once per mesh; no global operator is assembled.  Every
star of a mesh is computed in one pass, the first time one is asked for,
with one stacked SVD per (rows, cols) shape, and kept on the mesh.

The global constant is beta_h = sqrt(lambda_min) of the pressure Schur
complement pencil  B A^-1 B^T q = lambda Mp q  with the constant pressure
deflated (the numerical inf-sup test of Chapelle & Bathe).  S = B A^-1 B^T
is never formed, and neither are A and B: the pivot-free factorization of
the penalized saddle matrix that the saddle solve uses, scattered once from
the cell blocks with the P1b bubbles condensed out cell by cell, applies
(S + delta*Mp)^-1 in one unrefined solve.  Mp, the pencil's other matrix,
is not assembled either: it is factored cell by cell as G^T G, and Lanczos
on the symmetric operator G (S + delta*Mp)^-1 G^T, with the constant
deflated, returns its largest eigenvalues mu; the pencil's smallest are
1/mu - delta.  The pencil's spectrum lies in [0, 1], so the shift and the
beta = 0 floor are absolute.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse.linalg as spla

from .fespace import FECombo, FESpaceError, build_dofmap, P1, Q1, Q2
from .macroelement import (_REASONS, _SINGULAR, _SPLITS, _combo,
                           _segment_sums, _star, _star_splits, _stars,
                           _verdicts, structure_report)
from .mesh import QUADRILATERAL, _frozen
from .stokes import (SaddleFactorization, assemble, cell_geometry,
                     element_matrices, reference_tensor, StokesError, _QDEG)


@dataclass
class LocalNullspace:
    """One star's local oracle.  It is computed with every other star of
    its mesh and shared by all queries, so its arrays are read-only."""
    dim: int                       # nullspace dimension modulo constants
    basis: np.ndarray              # (dim, n_p) rows, Mp-normalized and
                                   # Mp-orthogonal to 1
    singular_values: np.ndarray    # spectrum of the deflated pairing
    matrix: np.ndarray             # dense pairing: pressure rows in
                                   # pressure_vertices order x interior
                                   # velocity columns in global dof order
    pressure_vertices: np.ndarray  # global vertex ids for the P1/Q1 dofs


@dataclass
class InfSupResult:
    beta: float
    spectrum: np.ndarray           # the smallest eigenvalues, ascending
    converged: bool = True         # False: spectrum holds what ARPACK found
    n_pressure: int = 0
    unknowns: int = 0              # order of the saddle matrix K
    condensed: int = 0             # P1b bubbles eliminated before the LU
    lu_fill: int = 0               # entries SuperLU stores for L and U


# a star's singular value at or below this times its largest is a null one
_LOCAL_FLOOR = 1e-10


def _star_oracles(mesh, combo):
    """local_nullspace of every star of the mesh, in star table order.

    A velocity dof is interior to a star when it is off the domain boundary
    and every cell holding it is a star cell.  A star's pairing and its
    pressure mass are sums of cell blocks over its cells.  The pressure rows
    of every cell's blocks, [B_e^1 | ... | B_e^d | Mp_e], are computed once,
    and the stars of one (rows, cols) shape sum their cells' blocks in one
    bincount: each velocity slot at its interior column, the others dropped
    first, and each pressure slot in the mass.  They are then factorized
    together, one stacked SVD per shape.
    """
    t = _stars(mesh)
    n_stars, cells = len(t.centers), t.cells
    qdeg = _QDEG[mesh.cell_kind]
    vel = [build_dofmap(mesh, tag) for tag in combo.velocity]
    blocks = np.concatenate(
        [element_matrices(mesh, combo.pressure, dm.space, "deriv", qdeg, k)
         for k, dm in enumerate(vel)]
        + [element_matrices(mesh, combo.pressure, combo.pressure, "mass",
                            qdeg)], axis=2)
    cell_star = np.repeat(np.arange(n_stars), np.diff(t.cell_offsets))

    # each star's vertices, center first then ring order
    ids = np.insert(t.ring, t.ring_offsets[:-1], t.centers)
    n_rows = np.diff(t.ring_offsets) + 1
    row_start = t.ring_offsets[:-1] + np.arange(n_stars)
    # each star cell's vertices as rows of its star
    row_keys = np.repeat(np.arange(n_stars), n_rows) * mesh.num_vertices + ids
    order = np.argsort(row_keys)
    local = order[np.searchsorted(
        row_keys, cell_star[:, None] * mesh.num_vertices + mesh.cells[cells],
        sorter=order)] - row_start[cell_star, None]

    offsets = np.cumsum([0] + [dm.n_dofs for dm in vel])
    n = offsets[-1]
    cell_cols = np.hstack([dm.cell_dofs + off for dm, off in zip(vel, offsets)])
    col_cells = np.bincount(cell_cols.ravel(), minlength=n)
    col_cells[np.concatenate([dm.boundary_mask for dm in vel])] = 0
    keys, key_at, held = np.unique(cell_star[:, None] * n + cell_cols[cells],
                                   return_inverse=True, return_counts=True)
    star, cols = np.divmod(keys, n)
    inner = held == col_cells[cols]
    n_comp = len(vel)
    comp = np.searchsorted(offsets, cols[inner], side="right") - 1
    assert np.all(np.bincount(star[inner] * n_comp + comp,
                              minlength=n_stars * n_comp) > 0), \
        "macro-element with no interior velocity dofs"
    n_cols = np.bincount(star[inner], minlength=n_stars)
    # each interior column's place among its star's, in global dof order
    place = np.where(inner, np.cumsum(inner) - 1
                     - (np.cumsum(n_cols) - n_cols)[star], -1)
    # each star cell's slots as columns of its star's [pairing | mass]: the
    # velocity slots (the components in turn) at their place, -1 off the
    # interior, then the pressure slots after the star's velocity columns
    slot_col = np.hstack([place[key_at].reshape(-1, cell_cols.shape[1]),
                          n_cols[cell_star, None] + local])
    del keys, key_at, held, star, cols, place

    shapes, group = np.unique(np.column_stack([n_rows, n_cols]), axis=0,
                              return_inverse=True)
    out = [None] * n_stars
    for g, (r, c) in enumerate(shapes):
        members = np.flatnonzero(group == g)
        m = len(members)
        R = ids[row_start[members, None] + np.arange(r)]
        at, slot = np.nonzero((slot_col >= 0)
                              & (group[cell_star] == g)[:, None])
        # the place of each kept slot's entries in the (m, r, c + r) sums,
        # formed in place: a lower peak
        flat = local[at]
        flat += r * np.searchsorted(members, cell_star[at])[:, None]
        flat *= c + r
        flat += slot_col[at, slot][:, None]
        PM = np.bincount(flat.ravel(), blocks[cells[at], :, slot].ravel(),
                         minlength=m * r * (c + r)).reshape(m, r, c + r)
        # the pairing is kept with the results, and the mass is not
        P, Mp = PM[:, :, :c].copy(), PM[:, :, c:]
        del flat, at, slot
        # the last r - 1 columns of the Householder reflector that maps
        # Mp 1 onto the first axis: an orthonormal basis of pressures
        # Mp-orthogonal to the constant
        v = Mp.sum(axis=2)
        v[:, 0] += np.copysign(np.linalg.norm(v, axis=1), v[:, 0])
        V = (np.eye(r)[:, 1:] - 2 * v[:, :, None] * v[:, None, 1:]
             / np.einsum("mi,mi->m", v, v)[:, None, None])
        # with fewer interior velocity dofs than pressures modulo constants
        # (c < r - 1), the last r - 1 - c rows of the full Vt are null
        # directions that have no singular value
        _, s, Vt = np.linalg.svd(P.transpose(0, 2, 1) @ V,
                                 full_matrices=c < r - 1)
        # s descends, so the null rows of Vt are the trailing ones
        dims = ((s <= _LOCAL_FLOOR * s.max(axis=1, initial=0.0)[:, None])
                .sum(axis=1) + max(r - 1 - c, 0))
        W = Vt @ V.transpose(0, 2, 1)
        nrm = np.sqrt(((W @ Mp) * W).sum(-1))
        W /= np.where(nrm > 0, nrm, 1.0)[:, :, None]
        _frozen(P, s, W, R)
        for i, star_id in enumerate(members):
            dim = int(dims[i])
            out[star_id] = LocalNullspace(
                dim, W[i, r - 1 - dim:], s[i], P[i], R[i])
    return out


def local_nullspace(macro, combo):
    """Pressures orthogonal to every interior divergence, modulo constants.

    Returns the full singular spectrum of the pairing restricted to the
    Mp-orthogonal complement of the constant pressure; dim counts the
    singular values at or below 1e-10 times the largest one, plus the
    r - 1 - c null directions of a star with c interior velocity dofs and
    r pressures when c < r - 1 (P1-P1 stars, for one).  The first
    query computes every star of the mesh for this combination and keeps
    them on the mesh, so a sweep over the stars pays once.
    """
    combo = FECombo.parse(combo)
    mesh = macro.mesh
    if combo.dim != mesh.dim:
        raise FESpaceError(f"combo {combo} does not match a {mesh.dim}D macro")
    if combo.pressure not in (P1, Q1):
        raise FESpaceError(f"the local oracle needs a vertex pressure (p1 or "
                           f"q1), got {combo.pressure}")
    return _oracles(mesh, combo)[_star(macro)]


def _oracles(mesh, combo):
    """`_star_oracles`, computed on the first ask and kept on the mesh."""
    return mesh.derived(("oracle", combo), lambda: _star_oracles(mesh, combo))


def oracle_report(mesh, combos):
    """`structure_report` with, after its verdict columns, the local
    nullspace dimension of every star for each combination and whether it
    agrees with the verdict (1: singular exactly when the dimension is
    positive)."""
    combos = [FECombo.parse(c) for c in combos]
    header, rows = structure_report(mesh, combos)
    for combo in combos:
        dims = np.array([ns.dim for ns in _oracles(mesh, combo)], dtype=int)
        agree = _SINGULAR[_verdicts(mesh, combo)] == (dims > 0)
        header += [f"dim_{combo}", f"agree_{combo}"]
        for row, d, a in zip(rows, dims.tolist(), agree.tolist()):
            row += [d, int(a)]
    return header, rows


def nullspace_residual(ns, p):
    """Relative residual of a pressure vector against the local pairing."""
    Bt = ns.matrix.T
    num = np.linalg.norm(Bt @ p)
    den = ns.singular_values.max(initial=0.0) * np.linalg.norm(p)
    return num / den if den > 0 else np.inf


# ----------------------------------------------------------------------
# analytic witness pressures
# ----------------------------------------------------------------------

def _split_profiles(mesh, rows, vec):
    """Piecewise-linear pressure used by the split-macro counterexamples,
    for the stars `rows` of the star table: -d/|M+| on the positive side of
    the splitting hyperplane and +d/|M-| on the other, where d is the signed
    offset from q0 along the unit normal vec[i] of star rows[i].  Returns
    a read-only row of values per star, center first then ring order."""
    t = _stars(mesh)
    q0, m = mesh.vertices[t.centers[rows]], len(rows)
    # |M+| and |M-|, from the side of each star cell's centroid (that of
    # its vertices' offsets summed); at lists the cells of the stars in
    # rows, star by star
    n_cells = np.diff(t.cell_offsets)[rows]
    owner = np.repeat(np.arange(m), n_cells)
    at = np.arange(len(owner)) + np.repeat(
        t.cell_offsets[rows] - np.cumsum(n_cells) + n_cells, n_cells)
    side = np.einsum("ckd,cd->c", mesh.vertices[mesh.cells[t.cells[at]]]
                     - q0[owner, None], vec[owner])
    sums = []
    for keep in (side > 0, side < 0):
        counts = np.bincount(owner[keep], minlength=m)
        sums.append(_segment_sums(t.areas[at[keep]],
                                  np.concatenate([[0], np.cumsum(counts)])))
    a_plus, a_minus = sums
    size = np.diff(t.ring_offsets)[rows]
    out = [None] * m
    for k in np.unique(size).tolist():
        g = np.flatnonzero(size == k)
        ids = np.column_stack([t.centers[rows[g]], t.ring[
            t.ring_offsets[rows[g], None] + np.arange(k)]])
        # one matrix-vector product per star, as for a single star
        off = ((mesh.vertices[ids] - q0[g, None]) @ vec[g, :, None])[..., 0]
        tol = 1e-12 * t.diameters[rows[g], None]
        prof = np.where(off > tol, -off / a_plus[g, None],
                        np.where(off < -tol, off / a_minus[g, None], 0.0))
        for i, p in zip(g.tolist(), _frozen(prof)):
            out[i] = p
    return out


def _s_zero_pressures(mesh, rows, axis):
    """Nullspace pressure of each star in `rows`, even unaligned rings with
    vanishing alternating sum about the axis index `axis`: solves the slope
    system and evaluates the piecewise linear pressure at the ring nodes.
    The stars of one ring size share one stacked SVD."""
    t = _stars(mesh)
    size = np.diff(t.ring_offsets)[rows]
    out = [None] * len(rows)
    for n in np.unique(size).tolist():
        g = np.flatnonzero(size == n)
        at = t.ring_offsets[rows[g], None] + np.arange(n)
        ring = (mesh.vertices[t.ring[at]]
                - mesh.vertices[t.centers[rows[g]], None])
        if axis == 0:
            ring = ring[..., ::-1]  # swap roles so off-axis coordinate is second
        areas = t.areas[at]
        ahat = 1.0 / areas + 1.0 / np.roll(areas, 1, axis=1)
        cot = ring[..., 0] / ring[..., 1]
        k = np.arange(n)
        sign = np.where(k % 2, -1.0, 1.0)
        # continuity at ring vertex k across spoke k, between the cells
        # before and after it:
        #   (c_k - c_{k-1}) + (-1)^k cot_k (1/a_{k-1} + 1/a_k) beta = 0
        A = np.zeros((len(g), n + 1, n + 1))
        A[:, k, k] = 1.0
        A[:, k, (k - 1) % n] = -1.0
        A[:, k, n] = sign * cot * ahat
        A[:, n, :n] = areas
        sol = np.linalg.svd(A)[2][:, -1]
        c, beta = sol[:, :n], sol[:, n]
        b = sign * beta[:, None] / areas
        right = b * ring[..., 0] + c * ring[..., 1]
        left = (np.roll(b, 1, axis=1) * ring[..., 0]
                + np.roll(c, 1, axis=1) * ring[..., 1])
        # continuity to 1e-8 of the star's largest value: a ring vertex
        # can sit on the pressure's zero line (every 4-ring does)
        gap = np.abs(right - left)
        assert np.all(gap <= 1e-8 * (np.abs(right) + np.abs(left)).max(
            axis=1, keepdims=True))
        vals = _frozen(np.column_stack([np.zeros(len(g)), right]))
        for i, p in zip(g.tolist(), vals):
            out[i] = p
    return out


# the rows of _REASONS whose stars a split profile witnesses
_SPLIT_ROWS = [_REASONS.index((reason, True)) for reason in (
    "two-aligned", "3d-axis-split", "3d-semiplane-case-2")]
_S_ZERO_ROW = _REASONS.index(("even-nV-S-zero", True))


def _star_witnesses(mesh, combo):
    """analytic_singular_pressure of every star of the mesh, in star table
    order, None for a star without one: one pass over the singular stars."""
    n = len(_stars(mesh).centers)
    out = [None] * n
    if mesh.cell_kind == QUADRILATERAL:
        # q2-q1:q1: every star of an axis-parallel rectangle mesh is split
        # by the row of cells through its center
        kind, axis, rows = None, 1, np.arange(n)
    else:
        kind, axis = _SPLITS[combo]
        reason = _verdicts(mesh, combo)
        rows = np.flatnonzero(np.isin(reason, _SPLIT_ROWS))
        s_zero = np.flatnonzero(reason == _S_ZERO_ROW)
        for s, p in zip(s_zero.tolist(), _s_zero_pressures(mesh, s_zero, axis)):
            out[s] = p
    vec = np.zeros((len(rows), mesh.dim))
    if kind == "semi-planes":
        splits = _star_splits(mesh, axis)
        first = splits.dirs[splits.dir_offsets[rows]]
        b_ax, c_ax = [a for a in range(3) if a != axis]
        vec[:, b_ax], vec[:, c_ax] = -np.sin(first), np.cos(first)
        # the norm as np.linalg.norm takes it, one dot product per star
        vec /= np.sqrt(vec[:, None, :] @ vec[:, :, None])[:, 0]
    else:
        vec[:, axis] = 1.0
    for s, p in zip(rows.tolist(), _split_profiles(mesh, rows, vec)):
        out[s] = p
    return out


def analytic_singular_pressure(macro, combo):
    """Closed-form nullspace pressure for a singular macro, or None.

    Covers the split-macro profile (bubble combinations, the two-aligned
    quadratic case, the 3D plane splits and semi-plane pairs that form one
    plane, the rectangle macro) and the even-ring vanishing-sum case; the
    rule and axis are those `macroelement._SPLITS` gives the combination.
    MINI and P1-P1 have none.  Returns coefficients in the order center
    vertex, then ring.

    The first ask computes the witness of every singular star of the mesh
    for the combination and keeps them on the mesh, so the arrays returned
    are shared between callers and read-only.
    """
    combo = FECombo.parse(combo)
    mesh = macro.mesh
    if mesh.cell_kind == QUADRILATERAL:
        if combo.velocity != (Q2, Q1) or combo.pressure != Q1:
            raise FESpaceError(f"unsupported quad combo {combo}")
    else:
        combo = _combo(mesh, combo, mesh.dim)
    witnesses = mesh.derived(("witness", combo),
                             lambda: _star_witnesses(mesh, combo))
    return witnesses[_star(macro)]


# ----------------------------------------------------------------------
# global counterexample on layered structured meshes
# ----------------------------------------------------------------------

def _uniform_levels(coords):
    vals = np.sort(np.unique(coords))
    tol = 1e-9 * max(vals[-1] - vals[0], 1e-300)
    levels = [vals[0]]
    for v in vals[1:]:
        if v - levels[-1] > tol:
            levels.append(v)
    levels = np.asarray(levels)
    if len(levels) < 2:
        return None
    gaps = np.diff(levels)
    if np.abs(gaps - gaps.mean()).max() > tol:
        return None
    return levels


def global_counterexample(mesh, combo):
    """Alternating-slope pressure annihilated by every discrete divergence.

    On a uniformly layered structured triangulation the continuous piecewise
    pressure with slope +-1 across alternating layers (zero mean by layer
    symmetry) is orthogonal to the divergence of every velocity with the
    enriched component across the layering.  The layers are level along the
    axis of the combination's 2D rule in `macroelement._SPLITS`; other
    combinations raise FESpaceError.
    """
    combo = FECombo.parse(combo)
    rule = _SPLITS.get(combo)
    if combo.dim != 2 or rule is None or rule[0] not in ("bubble",
                                                         "quadratic"):
        raise FESpaceError(f"no layered counterexample for {combo}: it has "
                           "no 2D bubble or quadratic split rule")
    coords = mesh.vertices[:, rule[1]]
    levels = _uniform_levels(coords)
    if levels is None:
        raise StokesError("mesh is not layered-structured along the "
                          "required axis")
    dy = float(np.diff(levels).mean())
    idx = np.rint((coords - levels[0]) / dy).astype(int)
    span = levels[-1] - levels[0]
    if np.abs(coords - (levels[0] + idx * dy)).max() > 1e-9 * span:
        raise StokesError("mesh vertices do not sit on uniform layers")
    return np.where(idx % 2 == 0, dy / 2.0, -dy / 2.0)


# ----------------------------------------------------------------------
# global inf-sup constant
# ----------------------------------------------------------------------

# The pencil's eigenvalues lie in [0, 1]: (div v, q) <= ||div v|| ||q|| and
# ||div v||^2 <= ||div v||^2 + ||curl v||^2 = |v|_1^2 on H1_0, so both the
# shift and the beta = 0 floor are absolute and never read the operator.
# At this shift one unrefined solve with the pivot-free factor agrees with a
# refined one to about 1e-11 relative for p2-p1:p1, also on grids with exact
# spurious modes; at 1e-8 only to about 5e-10.
_SHIFT = 1e-6
_FLOOR = 1e-12
# ARPACK stops at this relative Ritz residual.  A symmetric operator's Ritz
# values are accurate to the square of their residual (Parlett, The
# Symmetric Eigenvalue Problem), far below the 1e-11 accuracy of the
# unrefined solve the operator applies.  A looser residual costs
# multiplicity instead: Lanczos finds a second copy of a multiple
# eigenvalue only as rounding grows it, so the fewer its steps, the more
# copies it misses.  Against the dense Schur reference on 1400 (mesh,
# combination, k) cases, with the ncv below, 1e-8 lost 5 eigenvalues and
# 1e-9 lost 3, all double ones of p1b-p1b:p1 on square grids, and no zero
# mode; 1e-10 lost none but took 30% more solves at k = 3.
_TOL = 1e-9
# ARPACK keeps ncv = max(4k + 1, _NCV) Lanczos vectors.  With tol = 1e-8 and
# 2k + 1 of them Lanczos finds only 4 of the 5 zero modes of p1-p1:p1 on
# gen_zigzag(8, 8) at k = 5, and with max(2k + 1, 12) one of the two
# eigenvalues 0.15 of p1b-p1b:p1 on gen_structured_tri(6, 6).  Below 12,
# k = 1 and 2 restart more often: 5 vectors took 165 solves on 8 calls
# where 12 took 152.
_NCV = 12


@lru_cache(maxsize=None)
def _mass_factor(space, cell_kind):
    """C, lower triangular, with C C^T the reference mass tensor of the
    space (a fraction of the cell measure), read-only."""
    M = reference_tensor(space, space, cell_kind, "mass", _QDEG[cell_kind])
    return _frozen(np.linalg.cholesky(M))


def infsup_constant(mesh, combo, k=5):
    """Discrete inf-sup constant with homogeneous Dirichlet velocity.

    beta_h = sqrt(lambda_min) of the pencil  B A^-1 B^T q = lambda Mp q  on
    pressures Mp-orthogonal to the constant.  Eliminating the velocity from
    the penalized saddle matrix K = [[A, -B^T], [-B, -delta*Mp]] leaves the
    pressure block -(S + delta*Mp), S = B A^-1 B^T, so one
    `SaddleFactorization` of K (scattered from the cell blocks, P1b bubbles
    condensed cell by cell, no pivoting) applies X = (S + delta*Mp)^-1
    without forming S.  The mass is factored cell by cell, Mp = G^T G with
    G = sqrt(|K|) C^T on the pressure dofs of each cell K and C C^T the
    reference mass (`_mass_factor`), so the pencil's eigenvalues are
    lambda = 1/mu - delta for the nonzero eigenvalues mu of the symmetric
    operator T = Q G X G^T Q, of order (local pressure dofs) x (cells),
    where Q removes G 1, the image of the constant.  Lanczos in ARPACK's
    standard mode returns the k largest mu, to a relative Ritz residual of
    1e-9, with one solve per step and no global Mp.  An eigenvalue at or
    below 1e-12 is an exact spurious mode and gives beta = 0.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise StokesError(f"k, the number of eigenvalues, must be an integer "
                          f">= 1, got {k}")
    combo = FECombo.parse(combo)
    sys = assemble(mesh, combo)
    n_p = sys.p_dofmap.n_dofs
    # T has n_p - 1 nonzero eigenvalues, and k stays below that count
    if n_p < 3:
        raise StokesError(f"the inf-sup constant needs at least 3 pressure "
                          f"dofs, got n_p = {n_p}")
    fact = SaddleFactorization(sys, _SHIFT)
    k = min(int(k), n_p - 2)
    dofs = sys.p_dofmap.cell_dofs
    C = _mass_factor(sys.p_dofmap.space, mesh.cell_kind)
    root = np.sqrt(cell_geometry(mesh)[2])[:, None]
    m = dofs.size

    def G(q):
        return (root * (q[dofs] @ C)).ravel()

    def Gt(y):
        vals = root * (y.reshape(dofs.shape) @ C.T)
        return np.bincount(dofs.ravel(), vals.ravel(), minlength=n_p)

    mp1 = Gt(G(np.ones(n_p)))
    m11 = float(mp1.sum())

    def apply_T(y):
        # G^T Q y is G^T y less mp1 times its share of the constant, and X
        # of it the pressure part of K^-1 [0; -G^T Q y]; Q G x is G of x
        # less its constant
        b = Gt(y)
        x = fact.solve_pressure(mp1 * (b.sum() / m11) - b)
        return G(x - (mp1 @ x) / m11)

    # float operators keep eigsh's precision check quiet
    T = spla.LinearOperator((m, m), matvec=apply_T, dtype=float)
    # a fixed start vector: ARPACK's own is random and changes the trailing
    # digits from one call to the next
    v0 = np.random.default_rng(0).standard_normal(m)
    converged = True
    try:
        mu = spla.eigsh(T, k=k, which="LM", v0=v0, tol=_TOL,
                        ncv=min(max(4 * k + 1, _NCV), m),
                        return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:
        mu, converged = exc.eigenvalues, False
    vals = np.sort(1.0 / mu - _SHIFT)
    lam_min = float(vals[0]) if len(vals) else np.nan
    beta = 0.0 if lam_min <= _FLOOR else math.sqrt(lam_min)
    return InfSupResult(beta=beta, spectrum=vals, converged=converged,
                        n_pressure=n_p, unknowns=fact.unknowns,
                        condensed=fact.condensed, lu_fill=fact.lu_fill)
