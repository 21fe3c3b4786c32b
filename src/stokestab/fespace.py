"""Local bases, quadrature rules and degree-of-freedom maps.

Supported spaces: P1, P1b (P1 plus one cell bubble), P2 on triangles and
tetrahedra; Q1, Q2 on axis-aligned rectangles; P0 anywhere.  Reference cells:
unit triangle (0,0)-(1,0)-(0,1), unit tetrahedron, unit square [0,1]^2.

Quadrature rules are conical-product Gauss rules on simplices and tensor
Gauss rules on rectangles; their exactness is verified against closed-form
monomial integrals in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .mesh import (StokestabError, TRIANGLE, TETRAHEDRON, QUADRILATERAL,
                   _frozen)

P0, P1, P1B, P2, Q1, Q2 = "p0", "p1", "p1b", "p2", "q1", "q2"
_KNOWN = {P0, P1, P1B, P2, Q1, Q2}

class FESpaceError(StokestabError):
    pass


def _norm_tag(tag):
    t = str(tag).lower().replace(",", "").replace("_", "")
    if t == "p1bubble":
        t = P1B
    if t not in _KNOWN:
        raise FESpaceError(f"unknown space tag {tag!r}")
    return t


@dataclass(frozen=True)
class FECombo:
    """One space tag per velocity component plus the pressure space."""
    velocity: tuple
    pressure: str

    def __post_init__(self):
        object.__setattr__(self, "velocity",
                           tuple(_norm_tag(t) for t in self.velocity))
        object.__setattr__(self, "pressure", _norm_tag(self.pressure))

    @property
    def dim(self):
        return len(self.velocity)

    @staticmethod
    def parse(combo):
        """Parse e.g. 'p1b-p1:p1' into velocity spaces (p1b, p1), pressure p1.
        An FECombo is returned unchanged; string parses are cached."""
        if isinstance(combo, FECombo):
            return combo
        return _parse_combo(combo)

    def __str__(self):
        return "-".join(self.velocity) + ":" + self.pressure


@lru_cache(maxsize=None)
def _parse_combo(text):
    try:
        vel, pres = text.split(":")
    except ValueError:
        raise FESpaceError(f"combo {text!r} must look like 'p1b-p1:p1'")
    return FECombo(tuple(vel.split("-")), pres)


# ----------------------------------------------------------------------
# reference basis evaluation
# ----------------------------------------------------------------------

def eval_basis(tag, cell_kind, points):
    """Evaluate local shape functions and their reference gradients.

    points: (m, d) array in reference coordinates.  Returns (values, grads)
    with shapes (m, n) and (m, n, d).  The C0 vertex functions form a
    partition of unity; the P1b bubble is normalized to 1 at the barycenter
    (27*l1*l2*l3 on triangles, 256*l1*l2*l3*l4 on tets) and vanishes on the
    cell boundary.
    """
    tag = _norm_tag(tag)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = len(pts)
    if cell_kind == TRIANGLE:
        x, y = pts[:, 0], pts[:, 1]
        lam = np.stack([1 - x - y, x, y], axis=1)
        dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        return _simplex_basis(tag, lam, dlam, m)
    if cell_kind == TETRAHEDRON:
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        lam = np.stack([1 - x - y - z, x, y, z], axis=1)
        dlam = np.array([[-1.0, -1.0, -1.0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]])
        return _simplex_basis(tag, lam, dlam, m)
    if cell_kind == QUADRILATERAL:
        return _quad_basis(tag, pts)
    raise FESpaceError(f"unsupported cell kind {cell_kind!r}")


def _simplex_basis(tag, lam, dlam, m):
    d = dlam.shape[1]
    nv = d + 1
    if tag == P0:
        return np.ones((m, 1)), np.zeros((m, 1, d))
    if tag == P1:
        vals = lam.copy()
        grads = np.broadcast_to(dlam, (m, nv, d)).copy()
        return vals, grads
    if tag == P1B:
        vals = np.empty((m, nv + 1))
        grads = np.empty((m, nv + 1, d))
        vals[:, :nv] = lam
        grads[:, :nv] = dlam
        scale = 27.0 if nv == 3 else 256.0
        prod = np.prod(lam, axis=1)
        vals[:, nv] = scale * prod
        for k in range(d):
            g = np.zeros(m)
            for i in range(nv):
                term = scale * dlam[i, k]
                for j in range(nv):
                    if j != i:
                        term = term * lam[:, j]
                g = g + term
            grads[:, nv, k] = g
        return vals, grads
    if tag == P2 and nv == 3:
        # vertex modes then midpoint modes on local edges (0,1), (1,2), (2,0)
        vals = np.empty((m, 6))
        grads = np.empty((m, 6, d))
        for i in range(3):
            vals[:, i] = lam[:, i] * (2 * lam[:, i] - 1)
            grads[:, i] = (4 * lam[:, i] - 1)[:, None] * dlam[i]
        for e, (i, j) in enumerate([(0, 1), (1, 2), (2, 0)]):
            vals[:, 3 + e] = 4 * lam[:, i] * lam[:, j]
            grads[:, 3 + e] = 4 * (lam[:, i][:, None] * dlam[j]
                                   + lam[:, j][:, None] * dlam[i])
        return vals, grads
    raise FESpaceError(f"space {tag} not available on this cell kind")


def _quad_basis(tag, pts):
    x, y = pts[:, 0], pts[:, 1]
    m = len(pts)
    if tag == P0:
        return np.ones((m, 1)), np.zeros((m, 1, 2))
    if tag == Q1:
        # corners in CCW order (0,0), (1,0), (1,1), (0,1)
        vals = np.stack([(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y],
                        axis=1)
        gx = np.stack([-(1 - y), 1 - y, y, -y], axis=1)
        gy = np.stack([-(1 - x), -x, x, 1 - x], axis=1)
        return vals, np.stack([gx, gy], axis=2)
    if tag == Q2:
        def n(t):
            return np.stack([2 * (t - 0.5) * (t - 1), -4 * t * (t - 1),
                             2 * t * (t - 0.5)], axis=1)

        def dn(t):
            return np.stack([4 * t - 3, -8 * t + 4, 4 * t - 1], axis=1)

        nx, ny_ = n(x), n(y)
        dx, dy_ = dn(x), dn(y)
        # 9 nodes: corners, edge midpoints (bottom,right,top,left), center
        pairs = [(0, 0), (2, 0), (2, 2), (0, 2),
                 (1, 0), (2, 1), (1, 2), (0, 1), (1, 1)]
        vals = np.stack([nx[:, i] * ny_[:, j] for i, j in pairs], axis=1)
        gx = np.stack([dx[:, i] * ny_[:, j] for i, j in pairs], axis=1)
        gy = np.stack([nx[:, i] * dy_[:, j] for i, j in pairs], axis=1)
        return vals, np.stack([gx, gy], axis=2)
    raise FESpaceError(f"space {tag} not available on quadrilaterals")


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Points in reference coordinates, weights as measure fractions."""
    cell_kind: str
    points: np.ndarray
    weights: np.ndarray
    exact_degree: int

    def __post_init__(self):
        assert abs(self.weights.sum() - 1.0) < 1e-12
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


def _gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _jacobi01(n, alpha):
    """Gauss-Jacobi rule for the weight (1-t)^alpha on [0, 1], weights
    normalized so the rule returns plain sums against that weight.

    Golub-Welsch (Math. Comp. 23, 1969) on [-1, 1]: the nodes are the
    eigenvalues of the Jacobi matrix of (1-x)^alpha, polished by one Newton
    step on the three-term recurrence of its orthonormal polynomials p_k,
    and the weights are the Christoffel numbers 1 / sum_{k<n} p_k(x)^2.
    Both are then as accurate as scipy.special.roots_jacobi's or more."""
    k = np.arange(n + 1)
    s = 2 * k + alpha
    a = -alpha ** 2 / (s * (s + 2))           # the Jacobi matrix: diagonal
    b = np.zeros(n + 1)                       # and b[k] next to it
    b[1:] = np.sqrt(4 * k[1:] ** 2 * (k[1:] + alpha) ** 2
                    / (s[1:] ** 2 * (s[1:] + 1) * (s[1:] - 1)))

    def recurrence(x):
        # p_n(x) and its derivative, and sum_{k<n} p_k(x)^2
        p, prev = np.full_like(x, np.sqrt((alpha + 1) / 2 ** (alpha + 1))), 0
        dp, dprev, total = 0, 0, 0
        for j in range(n):
            total = total + p ** 2
            nxt = ((x - a[j]) * p - b[j] * prev) / b[j + 1]
            dnxt = (p + (x - a[j]) * dp - b[j] * dprev) / b[j + 1]
            p, prev, dp, dprev = nxt, p, dnxt, dp
        return p, dp, total

    x = np.linalg.eigvalsh(np.diag(a[:n]) + np.diag(b[1:n], 1)
                           + np.diag(b[1:n], -1))
    p, dp, _ = recurrence(x)
    x = x - p / dp
    return 0.5 * (x + 1.0), 1.0 / recurrence(x)[2] / 2 ** (alpha + 1)


@lru_cache(maxsize=None)
def quadrature(cell_kind, exact_degree):
    """Quadrature rule of the requested polynomial exactness: a
    conical-product Gauss rule on simplices, a tensor Gauss rule on
    rectangles.  Rules are computed once and shared, so their points and
    weights are read-only.
    """
    d = int(exact_degree)
    if d < 1:
        raise FESpaceError("exact_degree must be >= 1")
    if cell_kind == TRIANGLE:
        n = (d + 2) // 2
        gx, gw = _gauss01(n)
        jy, jw = _jacobi01(n, 1.0)
        pts, wts = [], []
        for yi, wy in zip(jy, jw):
            for xi, wx in zip(gx, gw):
                pts.append((xi * (1 - yi), yi))
                wts.append(wx * wy)
        w = np.array(wts)
        return QuadratureRule(cell_kind, np.array(pts), w / w.sum() * 1.0, d)
    if cell_kind == TETRAHEDRON:
        n = (d + 2) // 2
        gx, gw = _gauss01(n)
        j1, w1 = _jacobi01(n, 1.0)
        j2, w2 = _jacobi01(n, 2.0)
        pts, wts = [], []
        for zi, wz in zip(j2, w2):
            for yi, wy in zip(j1, w1):
                for xi, wx in zip(gx, gw):
                    pts.append((xi * (1 - yi) * (1 - zi), yi * (1 - zi), zi))
                    wts.append(wx * wy * wz)
        w = np.array(wts)
        return QuadratureRule(cell_kind, np.array(pts), w / w.sum(), d)
    if cell_kind == QUADRILATERAL:
        n = (d + 2) // 2
        gx, gw = _gauss01(n)
        pts = np.array([(xi, yi) for yi in gx for xi in gx])
        wts = np.array([wx * wy for wy in gw for wx in gw])
        return QuadratureRule(cell_kind, pts, wts, 2 * n - 1)
    raise FESpaceError(f"no quadrature for cell kind {cell_kind!r}")


# ----------------------------------------------------------------------
# dof maps
# ----------------------------------------------------------------------

class DofMap:
    """Global numbering for one space on one mesh.

    Dofs are ordered vertices, then edges (lexicographic by sorted vertex
    pair), then cells.  `cell_dofs[c]` lists the global dofs of cell c in
    eval_basis local order; `coords` holds the dof locations and
    `boundary_mask` marks the dofs located on the domain boundary.
    """

    def __init__(self, mesh, tag):
        tag = _norm_tag(tag)
        self.mesh = mesh
        self.space = tag
        kind = mesh.cell_kind
        ok = (tag == P0
              or (kind == TRIANGLE and tag in (P1, P1B, P2))
              or (kind == TETRAHEDRON and tag in (P1, P1B))
              or (kind == QUADRILATERAL and tag in (Q1, Q2)))
        if not ok:
            raise FESpaceError(f"space {tag} incompatible with {kind} mesh")

        nv = mesh.num_vertices
        nc = mesh.num_cells
        use_vertices = tag in (P1, P1B, P2, Q1, Q2)
        use_edges = tag in (P2, Q2)
        use_cells = tag in (P1B, Q2, P0)

        cols = []
        coords = []
        if use_vertices:
            cols.append(mesh.cells)
            coords.append(mesh.vertices)
        if use_edges:
            edges = mesh.edges()
            cols.append(nv + mesh.cell_edges)
            coords.append(0.5 * (mesh.vertices[edges[:, 0]]
                                 + mesh.vertices[edges[:, 1]]))
        if use_cells:
            off = (nv if use_vertices else 0) + \
                  (len(mesh.edges()) if use_edges else 0)
            cols.append(off + np.arange(nc, dtype=np.int64)[:, None])
            coords.append(mesh.vertices[mesh.cells].mean(axis=1))

        self.cell_dofs = np.hstack(cols)
        self.coords = np.vstack(coords)
        self.n_dofs = len(self.coords)

        bmask = np.zeros(self.n_dofs, dtype=bool)
        if tag != P0:
            vb = mesh.boundary_vertex_mask()
            if use_vertices:
                bmask[:nv] = vb
            if use_edges:
                bmask[nv + mesh.edge_index(*mesh.boundary_facets.T)] = True
        self.boundary_mask = bmask

    @cached_property
    def locations(self):
        """Mesh location of every dof, read-only: a vertex dof is at its
        vertex v, an edge dof at nv + e and a cell dof at nv + ne + c (nv
        vertices, ne edges).  Dofs of different spaces at one place share
        its location."""
        loc = np.arange(self.n_dofs)
        if self.space in (P1B, Q2, P0):
            mesh = self.mesh
            loc[self.cell_dofs[:, -1]] = (mesh.num_vertices + len(mesh.edges())
                                          + np.arange(mesh.num_cells))
        return _frozen(loc)


def build_dofmap(mesh, tag):
    return DofMap(mesh, tag)
