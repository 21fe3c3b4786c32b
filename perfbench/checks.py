"""Checks on the program's outputs, computed apart from the program.

Nothing here calls the stokestab code path it checks: topology comes from
the raw `cells` arrays, the inf-sup reference from its own factorization and
dense eigensolve of the assembled blocks, and the spurious pressure from the
vertex coordinates.
"""

from __future__ import annotations

import configparser
import math
import os

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_SIMPLEX_FACETS = {3: [(0, 1), (1, 2), (2, 0)],
                   4: [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]}


def thresholds(root):
    """The scenario gates shipped with the package (checks.ini)."""
    cfg = configparser.ConfigParser()
    cfg.read(os.path.join(root, "src", "stokestab", "data", "checks.ini"))
    return cfg


# ----------------------------------------------------------------------
# topology from the cells array
# ----------------------------------------------------------------------

def tri_edges(cells):
    e = np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]])
    return np.unique(np.sort(e, axis=1), axis=0)


def boundary_vertices(cells, quad=False):
    """Vertices on facets that belong to exactly one cell."""
    if quad:
        facets = [(0, 1), (1, 2), (2, 3), (3, 0)]
    else:
        facets = _SIMPLEX_FACETS[cells.shape[1]]
    f = np.concatenate([cells[:, list(idx)] for idx in facets])
    f, cnt = np.unique(np.sort(f, axis=1), axis=0, return_counts=True)
    return np.unique(f[cnt == 1])


def signed_measures(vertices, cells):
    """Signed triangle areas or tet volumes in stored vertex order."""
    p = vertices[cells]
    if cells.shape[1] == 3:
        u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    u, v, w = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]
    return np.einsum("ij,ij->i", np.cross(u, v), w) / 6.0


def max_edge_length(vertices, cells):
    e = tri_edges(cells)
    return float(np.linalg.norm(vertices[e[:, 0]] - vertices[e[:, 1]],
                                axis=1).max())


def close_neighbour_counts(vertices, cells, axis, limit):
    """Per vertex, the number of edge neighbours whose offset along `axis`
    is below `limit`."""
    e = tri_edges(cells)
    close = np.abs(vertices[e[:, 0], axis] - vertices[e[:, 1], axis]) < limit
    out = np.zeros(len(vertices), dtype=np.int64)
    np.add.at(out, e[close, 0], 1)
    np.add.at(out, e[close, 1], 1)
    return out


# ----------------------------------------------------------------------
# inf-sup reference and layered pressure
# ----------------------------------------------------------------------

def deflated_spectrum(A, B, Mp):
    """Eigenvalues of B A^-1 B^T q = lam Mp q on the Mp-orthogonal
    complement of the constant pressure, from a minimum-degree sparse
    factorization of A and a dense generalized eigensolve."""
    lu = spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A")
    Bd = B.toarray()
    S = Bd @ lu.solve(np.ascontiguousarray(Bd.T))
    S = 0.5 * (S + S.T)
    M = Mp.toarray()
    Q = sla.null_space(M.sum(axis=0)[None, :])
    return sla.eigh(Q.T @ S @ Q, Q.T @ M @ Q, eigvals_only=True)


def layered_pressure(vertices, n_layers, axis=1):
    """+-1 by parity of the grid line a vertex sits nearest to, for a mesh of
    n_layers uniform bands along `axis` of the unit square."""
    idx = np.rint(vertices[:, axis] * n_layers).astype(np.int64)
    return np.where(idx % 2 == 0, 1.0, -1.0)


def annihilates(B, q, rtol=1e-10):
    """True when ||B^T q|| <= rtol * ||B||_F * ||q||."""
    num = np.linalg.norm(B.T @ q)
    return num <= rtol * sp.linalg.norm(B) * np.linalg.norm(q)


def local_residual(B, s, p):
    """||B^T p|| / (sigma_max ||p||) for a local pairing matrix."""
    den = float(np.max(s, initial=0.0)) * np.linalg.norm(p)
    return float(np.linalg.norm(B.T @ p) / den) if den > 0 else math.inf


# ----------------------------------------------------------------------
# saddle solves
# ----------------------------------------------------------------------

def trig_exact(points):
    """The manufactured velocity of the convergence study, written out."""
    x, y = 2 * np.pi * points[:, 0], 2 * np.pi * points[:, 1]
    u = np.cos(x) * np.sin(y) - np.sin(y)
    v = -np.cos(y) * np.sin(x) + np.sin(x)
    return u, v


def saddle_residual(sys_, sol):
    """Relative residual of both block rows of the penalized system, from
    the assembled blocks and the returned fields."""
    free = np.concatenate([~m for m in sys_.bc_mask])
    w = np.concatenate(sol.velocity)
    Aw = sys_.A @ w
    Btp = sys_.B.T @ sol.pressure
    r_mom = (Aw - Btp - sys_.rhs)[free]
    eps = sol.diagnostics["eps"]
    r_div = sys_.B @ w + eps * (sys_.Mp @ sol.pressure)
    scale = (np.linalg.norm(Aw[free]) + np.linalg.norm(Btp[free])
             + np.linalg.norm(sys_.rhs[free]) + 1e-300)
    return float((np.linalg.norm(r_mom) + np.linalg.norm(r_div)) / scale)
