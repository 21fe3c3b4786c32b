"""Numeric stability ground truth: local nullspaces, witness pressures,
global spurious modes and the discrete inf-sup constant.

The local oracle takes, for one macro-element, the divergence pairing
between pressures and velocities that vanish on the macro boundary, and
counts the singular values of that matrix restricted to the complement of
constant pressures.  A macro is numerically regular exactly when that count
is zero, which is what the closed-form predicates are validated against.
The pairing is a slice of the divergence operator assembled on the whole
mesh: its rows are the star's vertices and its columns the velocity dofs
off the domain boundary whose cells all lie in the star.  The star's
pressure mass sums the element mass matrices of its cells.  Every star of
a mesh is computed in one pass, the first time one is asked for, with one
stacked SVD per (rows, cols) shape, and kept on the mesh.

The global constant is beta_h = sqrt(lambda_min) of the pressure Schur
complement pencil  B A^-1 B^T q = lambda Mp q  with the constant pressure
deflated (the numerical inf-sup test of Chapelle & Bathe).  S = B A^-1 B^T
is never formed: one LU of the penalized saddle matrix, with the P1b
bubbles condensed out as in the saddle solve, applies (S + delta*Mp)^-1,
and shift-invert Lanczos returns the smallest eigenvalues.  The pencil's
spectrum lies in [0, 1], so the shift and the beta = 0 floor are absolute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import FECombo, FESpaceError, build_dofmap, P1, P1B, P2, Q1, Q2
from .macroelement import (build_macroelements, predict_regularity,
                           predict_regularity_3d, _star_splits)
from .mesh import (MeshError, TRIANGLE, TETRAHEDRON, QUADRILATERAL,
                   _frozen, _lookup)
from .stokes import (SaddleFactorization, assemble, element_matrices,
                     operator_matrix, StokesError)


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
    deflated: int = 1              # constant pressures taken out
    converged: bool = True         # False: spectrum holds what ARPACK found
    n_pressure: int = 0
    unknowns: int = 0              # order of the saddle matrix factorized
    lu_fill: int = 0               # entries SuperLU stores for L and U


_LOCAL_QDEG = {TRIANGLE: 5, TETRAHEDRON: 6, QUADRILATERAL: 5}


@dataclass(frozen=True)
class _Divergence:
    """One combination's divergence operator on a whole mesh, with the dof
    incidence the local oracle slices the stars out of it by."""
    keys: np.ndarray        # row * n_cols + col of each stored entry, sorted
    values: np.ndarray      # the stored entries, in key order
    n_cols: int             # velocity columns, by component
    cell_cols: np.ndarray   # (cells, local) velocity columns of each cell
    col_cells: np.ndarray   # cells holding each velocity column, 0 for the
                            # columns on the domain boundary
    offsets: np.ndarray     # first column of each component, then the total
    p_mass: np.ndarray      # (cells, k, k) pressure element mass matrices


def _divergence(mesh, combo):
    qdeg = _LOCAL_QDEG[mesh.cell_kind]
    p_dm = build_dofmap(mesh, combo.pressure)
    vel = [build_dofmap(mesh, tag) for tag in combo.velocity]
    offsets = np.cumsum([0] + [dm.n_dofs for dm in vel])
    B = sp.hstack([operator_matrix(mesh, p_dm, dm, "deriv", qdeg, deriv_axis=k)
                   for k, dm in enumerate(vel)], format="csr")
    B.sum_duplicates()
    keys = np.repeat(np.arange(B.shape[0]), np.diff(B.indptr)) * B.shape[1]
    cell_cols = np.hstack([dm.cell_dofs + off for dm, off in zip(vel, offsets)])
    col_cells = np.bincount(cell_cols.ravel(), minlength=offsets[-1])
    col_cells[np.concatenate([dm.boundary_mask for dm in vel])] = 0
    return _Divergence(keys + B.indices, B.data, B.shape[1], cell_cols,
                       col_cells, offsets, element_matrices(
                           mesh, p_dm.space, p_dm.space, "mass", qdeg))


def _star_oracles(mesh, combo, floor):
    """local_nullspace of every star of the mesh, by center, in one pass.

    A velocity dof is interior to a star when it is off the domain boundary
    and every cell holding it is a star cell.  The stars' dense pairings
    are read from the divergence operator by key, and the stars are
    factorized together, one stacked SVD per (rows, cols) shape.
    """
    macros = build_macroelements(mesh)
    if not macros:
        return {}
    op = _divergence(mesh, combo)
    n_stars, n = len(macros), op.n_cols
    cells = np.concatenate([m.cells for m in macros])
    cell_star = np.repeat(np.arange(n_stars), [len(m.cells) for m in macros])
    keys, held = np.unique(cell_star[:, None] * n + op.cell_cols[cells],
                           return_counts=True)
    star, cols = np.divmod(keys, n)
    inner = held == op.col_cells[cols]
    star, cols = star[inner], cols[inner]
    n_comp = len(op.offsets) - 1
    comp = np.searchsorted(op.offsets, cols, side="right") - 1
    assert np.all(np.bincount(star * n_comp + comp,
                              minlength=n_stars * n_comp) > 0), \
        "macro-element with no interior velocity dofs"
    n_cols = np.bincount(star, minlength=n_stars)
    col_start = np.cumsum(n_cols) - n_cols

    ids = np.concatenate([m.vertex_ids() for m in macros])
    n_rows = np.array([m.n_v + 1 for m in macros])
    row_start = np.cumsum(n_rows) - n_rows
    # each star cell's vertices as rows of its star
    row_keys = np.repeat(np.arange(n_stars), n_rows) * mesh.num_vertices + ids
    order = np.argsort(row_keys)
    local = order[np.searchsorted(
        row_keys, cell_star[:, None] * mesh.num_vertices + mesh.cells[cells],
        sorter=order)] - row_start[cell_star, None]

    shapes, group = np.unique(np.column_stack([n_rows, n_cols]), axis=0,
                              return_inverse=True)
    out = {}
    for g, (r, c) in enumerate(shapes):
        members = np.flatnonzero(group == g)
        m = len(members)
        R = ids[row_start[members, None] + np.arange(r)]
        C = cols[col_start[members, None] + np.arange(c)]
        pos = _lookup(op.keys, R[:, :, None] * n + C[:, None, :])
        P = np.where(pos >= 0, op.values[pos], 0.0)
        sel = group[cell_star] == g
        li = local[sel]
        rank = np.searchsorted(members, cell_star[sel])
        flat = (rank[:, None, None] * r + li[:, :, None]) * r + li[:, None, :]
        Mp = np.bincount(flat.ravel(), op.p_mass[cells[sel]].ravel(),
                         minlength=m * r * r).reshape(m, r, r)
        # the last r - 1 columns of the Householder reflector that maps
        # Mp 1 onto the first axis: an orthonormal basis of pressures
        # Mp-orthogonal to the constant
        v = Mp.sum(axis=2)
        v[:, 0] += np.copysign(np.linalg.norm(v, axis=1), v[:, 0])
        V = (np.eye(r)[:, 1:] - 2 * v[:, :, None] * v[:, None, 1:]
             / np.einsum("mi,mi->m", v, v)[:, None, None])
        _, s, Vt = np.linalg.svd(P.transpose(0, 2, 1) @ V,
                                 full_matrices=False)
        # s descends, so the null rows of Vt are the trailing ones
        dims = (s <= floor * s.max(axis=1, initial=0.0)[:, None]).sum(axis=1)
        W = Vt @ V.transpose(0, 2, 1)
        nrm = np.sqrt(np.einsum("mki,mij,mkj->mk", W, Mp, W))
        W /= np.where(nrm > 0, nrm, 1.0)[:, :, None]
        _frozen(P, s, W, R)
        for i, star_id in enumerate(members):
            dim = int(dims[i])
            out[macros[star_id].center] = LocalNullspace(
                dim, W[i, len(s[i]) - dim:], s[i], P[i], R[i])
    return out


def local_nullspace(macro, combo, floor=1e-10):
    """Pressures orthogonal to every interior divergence, modulo constants.

    Returns the full singular spectrum of the pairing restricted to the
    Mp-orthogonal complement of the constant pressure; dim counts the
    singular values at or below floor times the largest one.  The first
    query computes every star of the mesh for this combination and floor
    and keeps them on the mesh, so a sweep over the stars pays once.
    """
    if isinstance(combo, str):
        combo = FECombo.parse(combo)
    mesh = macro.mesh
    if combo.dim != mesh.dim:
        raise FESpaceError(f"combo {combo} does not match a {mesh.dim}D macro")
    if combo.pressure not in (P1, Q1):
        raise FESpaceError(f"the local oracle needs a vertex pressure (p1 or "
                           f"q1), got {combo.pressure}")
    stars = mesh.derived(("oracle", combo, floor),
                         lambda: _star_oracles(mesh, combo, floor))
    if macro.center not in stars:
        raise MeshError(f"vertex {macro.center} is not the center of an "
                        "interior star of its mesh")
    return stars[macro.center]


def nullspace_residual(ns, p):
    """Relative residual of a pressure vector against the local pairing."""
    Bt = ns.matrix.T
    num = np.linalg.norm(Bt @ p)
    den = ns.singular_values.max(initial=0.0) * np.linalg.norm(p)
    return num / den if den > 0 else np.inf


# ----------------------------------------------------------------------
# analytic witness pressures
# ----------------------------------------------------------------------

def _split_profile(macro, direction):
    """Piecewise-linear pressure used by the split-macro counterexamples:
    -(d)/|M+| on the positive side of the splitting hyperplane and +(d)/|M-|
    on the other, where d is the signed offset from q0 along the given
    direction (an axis index or a vector)."""
    if np.isscalar(direction):
        vec = np.zeros(macro.dim)
        vec[int(direction)] = 1.0
    else:
        vec = np.asarray(direction, float)
        vec = vec / np.linalg.norm(vec)
    sub_vertices = macro.mesh.vertices[macro.vertex_ids()]
    q0 = macro.q0
    off = (sub_vertices - q0) @ vec
    tol = 1e-12 * macro.diameter()
    meas = macro.areas
    centroid_off = (macro.mesh.vertices[macro.mesh.cells[macro.cells]]
                    .mean(axis=1) - q0) @ vec
    a_plus = float(meas[centroid_off > 0].sum())
    a_minus = float(meas[centroid_off < 0].sum())
    return np.where(off > tol, -off / a_plus,
                    np.where(off < -tol, off / a_minus, 0.0))


def _p2_s_zero_pressure(macro, axis):
    """Nullspace pressure for an even unaligned ring with vanishing
    alternating sum: solves the slope system and evaluates the piecewise
    linear pressure at the ring nodes."""
    n = macro.n_v
    ring = macro.ring_coords() - macro.q0
    if axis == "x":
        ring = ring[:, ::-1]   # swap roles so off-axis coordinate is second
    areas = macro.areas
    ahat = np.array([1.0 / areas[k] + 1.0 / areas[k - 1] for k in range(n)])
    cot = ring[:, 0] / ring[:, 1]
    # continuity at ring vertex k across spoke k, between the cells before
    # and after it:  (c_k - c_{k-1}) + (-1)^k cot_k (1/a_{k-1} + 1/a_k) beta = 0
    A = np.zeros((n + 1, n + 1))
    for k in range(n):
        A[k, k] = 1.0
        A[k, (k - 1) % n] = -1.0
        A[k, n] = ((-1.0) ** k) * cot[k] * ahat[k]
    A[n, :n] = areas
    _, s, Vt = np.linalg.svd(A)
    sol = Vt[-1]
    c, beta = sol[:n], sol[n]
    b = np.array([((-1.0) ** j) * beta / areas[j] for j in range(n)])
    vals = np.empty(n + 1)
    vals[0] = 0.0
    for k in range(n):
        right = b[k] * ring[k, 0] + c[k] * ring[k, 1]
        left = b[(k - 1) % n] * ring[k, 0] + c[(k - 1) % n] * ring[k, 1]
        assert abs(right - left) <= 1e-8 * (abs(right) + abs(left) + 1e-30)
        vals[1 + k] = right
    return vals


def analytic_singular_pressure(macro, combo):
    """Closed-form nullspace pressure for a singular macro, or None.

    Covers the split-macro profile (bubble combinations, the two-aligned
    quadratic case, the rectangle macro) and the even-ring vanishing-sum
    case; returns coefficients in the order center vertex, then ring.
    """
    if isinstance(combo, str):
        combo = FECombo.parse(combo)
    vel = tuple(combo.velocity)
    if macro.dim == 2 and macro.mesh.cell_kind == QUADRILATERAL:
        if vel != (Q2, Q1) or combo.pressure != Q1:
            raise FESpaceError(f"unsupported quad combo {combo}")
        # absolute offset from the aligned row, weighted by the areas above
        # and below it
        return _split_profile(macro, 1)
    if macro.dim == 2:
        verdict = predict_regularity(macro, combo)
        if verdict.regular:
            return None
        enriched_first = vel[0] in (P1B, P2)
        if verdict.reason == "two-aligned":
            return _split_profile(macro, 1 if enriched_first else 0)
        return _p2_s_zero_pressure(macro, "y" if enriched_first else "x")
    if macro.dim == 3:
        verdict = predict_regularity_3d(macro, combo)
        if verdict.regular:
            return None
        n_bub = sum(1 for t in vel if t == P1B)
        if n_bub == 2:
            return _split_profile(macro, vel.index(P1))
        # one enriched component: a closed form exists when the splitting
        # semi-planes form one full plane through the axis line
        axis = vel.index(P1B)
        _, count, aligned, dirs = _star_splits(macro.mesh, axis)[macro.center]
        if count == 2 and aligned:
            b_ax, c_ax = [a for a in range(3) if a != axis]
            normal = np.zeros(3)
            normal[b_ax] = -np.sin(dirs[0])
            normal[c_ax] = np.cos(dirs[0])
            return _split_profile(macro, normal)
        return None
    raise MeshError(f"unsupported macro dimension {macro.dim}")


# ----------------------------------------------------------------------
# global counterexample on layered structured meshes
# ----------------------------------------------------------------------

def _uniform_levels(coords, rtol=1e-9):
    vals = np.sort(np.unique(coords))
    span = max(vals[-1] - vals[0], 1e-300)
    levels = [vals[0]]
    for v in vals[1:]:
        if v - levels[-1] > rtol * span:
            levels.append(v)
    levels = np.asarray(levels)
    if len(levels) < 2:
        return None
    gaps = np.diff(levels)
    if np.abs(gaps - gaps.mean()).max() > rtol * span:
        return None
    return levels


def global_counterexample(mesh, combo):
    """Alternating-slope pressure annihilated by every discrete divergence.

    On a uniformly layered structured triangulation the continuous piecewise
    pressure with slope +-1 across alternating layers (zero mean by layer
    symmetry) is orthogonal to the divergence of every velocity with the
    enriched component across the layering; the layers run horizontally for
    an enriched first component and vertically for an enriched second one.
    """
    if isinstance(combo, str):
        combo = FECombo.parse(combo)
    axis = 1 if combo.velocity[0] in (P1B, P2) else 0
    coords = mesh.vertices[:, axis]
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
_SHIFT = 1e-8
_FLOOR = 1e-12


def infsup_constant(mesh, combo, k=5):
    """Discrete inf-sup constant with homogeneous Dirichlet velocity.

    beta_h = sqrt(lambda_min) of the pencil  B A^-1 B^T q = lambda Mp q  on
    pressures Mp-orthogonal to the constant.  Eliminating the velocity from
    the penalized saddle matrix K = [[A, -B^T], [-B, -delta*Mp]] leaves the
    pressure block -(S + delta*Mp), S = B A^-1 B^T, so one
    `SaddleFactorization` of K (P1b bubbles condensed) applies
    (S + delta*Mp)^-1 without forming S, and shift-invert Lanczos at
    sigma = -delta returns the k smallest eigenvalues.  The constant is
    deflated by the pair of Mp-projectors around that solve.  An eigenvalue
    at or below 1e-12 is an exact spurious mode and gives beta = 0.
    """
    if isinstance(combo, str):
        combo = FECombo.parse(combo)
    sys = assemble(mesh, combo)
    fact = SaddleFactorization(sys, _SHIFT)
    Mp = sys.Mp.tocsr()
    n_p, nf = Mp.shape[0], fact.n_velocity
    k = min(k, n_p - 2)
    mp1 = Mp @ np.ones(n_p)
    m11 = float(mp1.sum())

    def op_inv(b):
        # pressure part of K^-1 [0; -b], i.e. (S + delta*Mp)^-1 b, with the
        # constant taken out of b (Mp-orthogonal side) and of the result
        rhs = np.zeros(fact.unknowns)
        rhs[nf:] = mp1 * (b.sum() / m11) - b
        x = fact.solve(rhs)[nf:]
        return x - (mp1 @ x) / m11

    def never(x):
        raise AssertionError("shift-invert mode does not apply S")

    # eigsh reads only the shape and dtype of S in shift-invert mode;
    # float operators keep its precision check quiet
    S = spla.LinearOperator((n_p, n_p), matvec=never, dtype=float)
    op = spla.LinearOperator((n_p, n_p), matvec=op_inv, dtype=float)
    # a fixed start vector: ARPACK's own is random and changes the trailing
    # digits from one call to the next
    v0 = np.random.default_rng(0).standard_normal(n_p)
    converged = True
    try:
        vals = spla.eigsh(S, k=k, M=Mp, sigma=-_SHIFT, OPinv=op, v0=v0,
                          which="LM", return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:
        vals, converged = exc.eigenvalues, False
    vals = np.sort(vals)
    lam_min = float(vals[0]) if len(vals) else np.nan
    beta = 0.0 if lam_min <= _FLOOR else math.sqrt(lam_min)
    return InfSupResult(beta=beta, spectrum=vals, deflated=1,
                        converged=converged, n_pressure=n_p,
                        unknowns=fact.unknowns, lu_fill=fact.lu_fill)
