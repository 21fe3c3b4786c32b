"""Vertex-centered macro-elements and their geometric regularity predicates.

A macro-element is the star of one interior vertex q0: the union of all
cells touching it.  In 2D the ring of neighbour vertices is stored
counterclockwise together with the spoke angles (measured from the positive
x-semiaxis at q0) and the cell areas.  The predicates implemented here decide
whether a velocity/pressure combination admits a nonconstant pressure that is
orthogonal to every local divergence:

* bubble-enriched component: singular exactly when two ring vertices are
  aligned with q0 across the enriched direction (the macro can then be split
  by an axis-orthogonal line);
* quadratic component: singular when two ring vertices are aligned, or when
  the ring has even length, no aligned vertex, and the alternating
  cotangent-area sum S vanishes;
* 3D, two enriched components: singular exactly when a plane orthogonal to
  the un-enriched axis splits the tet star along faces;
* 3D, one enriched component: decided by how many semi-planes through the
  axis line at q0 split the star (0 regular; 2 regular unless they form one
  plane; more than 2 singular).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .fespace import FECombo, FESpaceError, P1, P1B, P2
from .mesh import MeshError, TRIANGLE


@dataclass
class MacroElement:
    mesh: object
    center: int
    ring_vertices: np.ndarray          # ccw in 2D, index-sorted in 3D
    cells: np.ndarray                  # 2D: cell k spans ring[k], ring[k+1]
    angles: np.ndarray = None          # 2D spoke angles in [0, 2pi)
    areas: np.ndarray = None           # cell measures, cells order

    @property
    def dim(self):
        return self.mesh.dim

    @property
    def n_v(self):
        return len(self.ring_vertices)

    @property
    def q0(self):
        return self.mesh.vertices[self.center]

    def ring_coords(self):
        return self.mesh.vertices[self.ring_vertices]

    def diameter(self):
        """Largest distance between two star vertices.  Mesh vertices are
        read-only, so it is computed once per macro."""
        return self._diameter

    @functools.cached_property
    def _diameter(self):
        pts = np.vstack([self.q0[None, :], self.ring_coords()])
        d = pts[:, None, :] - pts[None, :, :]
        return float(np.sqrt((d ** 2).sum(-1)).max())

    def vertex_ids(self):
        """All macro vertices, center first then ring order."""
        return np.concatenate([[self.center], self.ring_vertices])


@dataclass
class StructureFlags:
    x_structured: bool
    y_structured: bool
    z_structured: bool = None
    min_sin: float = None
    min_cos: float = None
    aligned_count_x: int = 0
    aligned_count_y: int = 0
    semi_plane_count: int = 0
    semi_planes_aligned: bool = False


@dataclass
class RegularityVerdict:
    predicted: str                     # 'regular' | 'singular'
    reason: str
    s_value: float = None

    @property
    def regular(self):
        return self.predicted == "regular"


def build_macroelements(mesh):
    """One MacroElement per interior vertex.

    The list is built once per mesh and kept on it (`Mesh.derived`), so
    every caller on the same mesh shares it.  Building also checks that
    every cell touches at least one interior vertex; cells that do not are
    reported with a warning because such meshes cannot be covered by
    vertex-centered macro-elements.
    """
    return mesh.derived("macroelements", lambda: _build_macroelements(mesh))


def _build_macroelements(mesh):
    interior = mesh.interior_vertices()
    covered = (~mesh.boundary_vertex_mask()[mesh.cells]).any(axis=1)
    if not covered.all():
        bad = np.flatnonzero(~covered).tolist()
        warnings.warn(
            f"{len(bad)} cell(s) have no interior vertex (e.g. {bad[:5]}); "
            "the mesh is not coverable by vertex-centered macro-elements")
    if len(interior) == 0:
        warnings.warn("mesh has no interior vertices; no macro-elements built")
        return []

    measures = mesh.cell_measures()
    macros = []
    for q0 in map(int, interior):
        cids = mesh.cells_of(q0)
        if mesh.cell_kind == TRIANGLE:
            macros.append(_build_macro_2d(mesh, q0, cids, measures))
        else:
            ring = np.setdiff1d(mesh.cells[cids], [q0])
            macros.append(MacroElement(mesh, q0, ring, cids, None,
                                       measures[cids]))
    return macros


def _build_macro_2d(mesh, q0, cids, measures):
    ring, ang = mesh.ccw_ring(q0)
    if len(ring) != len(cids):
        raise MeshError(
            f"vertex {q0}: star has {len(cids)} cells but {len(ring)} ring "
            "vertices; not a valid interior vertex star")

    bycell = {frozenset(int(v) for v in mesh.cells[ci]): ci for ci in cids}
    n = len(ring)
    ordered = np.empty(n, dtype=np.int64)
    for k in range(n):
        key = frozenset((q0, int(ring[k]), int(ring[(k + 1) % n])))
        ci = bycell.get(key)
        if ci is None:
            raise MeshError(
                f"vertex {q0}: ring vertices {ring[k]} and {ring[(k + 1) % n]} "
                "bound no common cell of the star")
        ordered[k] = ci
    return MacroElement(mesh, q0, ring, ordered, ang, measures[ordered])


# ----------------------------------------------------------------------
# 2D classification
# ----------------------------------------------------------------------

def _aligned_offsets(macro, axis):
    k = 1 if axis == "y" else 0
    return macro.ring_coords()[:, k] - macro.q0[k]


def classify_2d(macro, alignment_tol=1e-9):
    """Geometric structure of a 2D macro-element.

    A macro is y-structured when two ring vertices lie at the height of q0
    (the star is then split by the horizontal line through q0); x analog.
    min_sin / min_cos are the smallest |sin| / |cos| of the spoke angles after
    discarding the single worst one, i.e. the uniformity constants with one
    exception allowed.
    """
    if macro.dim != 2:
        raise MeshError("classify_2d needs a 2D macro-element")
    tol = alignment_tol * macro.diameter()
    off_y = np.abs(_aligned_offsets(macro, "y"))
    off_x = np.abs(_aligned_offsets(macro, "x"))
    n_y = int((off_y <= tol).sum())
    n_x = int((off_x <= tol).sum())
    sins = np.sort(np.abs(np.sin(macro.angles)))
    coss = np.sort(np.abs(np.cos(macro.angles)))
    return StructureFlags(
        x_structured=n_x >= 2,
        y_structured=n_y >= 2,
        min_sin=float(sins[1:].min()) if len(sins) > 1 else float(sins[0]),
        min_cos=float(coss[1:].min()) if len(coss) > 1 else float(coss[0]),
        aligned_count_x=n_x,
        aligned_count_y=n_y,
    )


def s_condition(macro, axis="y"):
    """Alternating cotangent sum over the spokes of an even ring.

    Spoke i at angle s_i separates two cells of areas a_prev, a_next; the sum
    is sum_i (-1)^i cot(s_i) (1/a_prev + 1/a_next).  Its sign depends on the
    starting spoke (the ring is cyclic) so only |S| is meaningful; S = 0 with
    an even ring and no aligned vertex is exactly the singularity condition
    for the quadratically enriched combination.  For axis='x' the cotangent
    is replaced by the tangent (angles measured from the y-semiaxis).
    """
    if macro.dim != 2:
        raise MeshError("s_condition needs a 2D macro-element")
    ang = macro.angles
    if axis == "y":
        trig_num, trig_den = np.cos(ang), np.sin(ang)
    else:
        trig_num, trig_den = np.sin(ang), np.cos(ang)
    if np.any(np.abs(trig_den) < 1e-14):
        raise MeshError(
            "macro has a spoke aligned with the splitting axis; the aligned "
            "cases must be handled before evaluating the sum")
    cot = trig_num / trig_den
    areas = macro.areas
    n = macro.n_v
    s = 0.0
    for k in range(n):
        pair = 1.0 / areas[k - 1] + 1.0 / areas[k]
        s += (-1.0) ** (k + 1) * cot[k] * pair
    return float(s)


def s_scale(macro):
    """Natural magnitude for comparing S against zero: sum of 1/area."""
    return float(np.sum(1.0 / macro.areas))


_BUBBLE_COMBOS = {
    (P1B, P1): "y",
    (P1, P1B): "x",
}
_P2_COMBOS = {
    (P2, P1): "y",
    (P1, P2): "x",
}


def predict_regularity(macro, combo, tol=1e-10, alignment_tol=1e-9):
    """Closed-form regularity verdict for a 2D macro-element.

    Bubble-enriched combinations are regular exactly when at most one ring
    vertex is aligned with q0 across the enriched direction.  Quadratic
    combinations additionally fail, for even rings with no aligned vertex,
    when |S| <= tol * sum(1/area).
    """
    if isinstance(combo, str):
        combo = FECombo.parse(combo)
    if macro.dim != 2 or combo.pressure != P1 or combo.dim != 2:
        raise FESpaceError(f"unsupported combo {combo} for 2D prediction")
    vel = tuple(combo.velocity)
    tolabs = alignment_tol * macro.diameter()
    if vel in _BUBBLE_COMBOS:
        axis = _BUBBLE_COMBOS[vel]
        n_aligned = int((np.abs(_aligned_offsets(macro, axis)) <= tolabs).sum())
        if n_aligned >= 2:
            return RegularityVerdict("singular", "two-aligned")
        reason = "one-aligned" if n_aligned == 1 else "no-aligned"
        return RegularityVerdict("regular", reason)
    if vel in _P2_COMBOS:
        axis = _P2_COMBOS[vel]
        n_aligned = int((np.abs(_aligned_offsets(macro, axis)) <= tolabs).sum())
        if n_aligned >= 2:
            return RegularityVerdict("singular", "two-aligned")
        if n_aligned == 1:
            return RegularityVerdict("regular", "one-aligned")
        if macro.n_v % 2 == 1:
            return RegularityVerdict("regular", "odd-nV")
        s = s_condition(macro, axis)
        if abs(s) <= tol * s_scale(macro):
            return RegularityVerdict("singular", "even-nV-S-zero", s_value=s)
        return RegularityVerdict("regular", "even-nV-S-nonzero", s_value=s)
    raise FESpaceError(f"unsupported combo {combo} for 2D prediction")


# ----------------------------------------------------------------------
# 3D classification
# ----------------------------------------------------------------------

def structure_report(mesh, combos=(), alignment_tol=1e-9, tol=1e-10):
    """Per-interior-vertex structure table.

    Returns (header, rows) with the geometric flags, the uniformity
    constants, the normalized alternating sum where defined, and one verdict
    column per requested combination.  Meant to be written as CSV.
    """
    if mesh.cell_kind != TRIANGLE:
        raise MeshError("the structure report covers 2D triangular meshes")
    combos = [FECombo.parse(c) if isinstance(c, str) else c for c in combos]
    header = ["vertex", "n_v", "x_structured", "y_structured",
              "aligned_x", "aligned_y", "min_sin", "min_cos", "abs_s_scaled"]
    header += [f"verdict_{c}" for c in combos]
    rows = []
    for macro in build_macroelements(mesh):
        flags = classify_2d(macro, alignment_tol)
        if flags.aligned_count_x == 0 and flags.aligned_count_y == 0 \
                and macro.n_v % 2 == 0:
            s_scaled = abs(s_condition(macro)) / s_scale(macro)
        else:
            s_scaled = ""
        row = [int(macro.center), macro.n_v, int(flags.x_structured),
               int(flags.y_structured), flags.aligned_count_x,
               flags.aligned_count_y, flags.min_sin, flags.min_cos, s_scaled]
        for c in combos:
            row.append(predict_regularity(macro, c, tol, alignment_tol)
                       .predicted)
        rows.append(row)
    return header, rows


def _per_star(fn):
    """Keep fn(macro, *args) on the macro's mesh, by star center and args,
    so that the predicates, the flags and the witnesses of one star share
    one analysis."""
    @functools.wraps(fn)
    def cached(macro, *args):
        return macro.mesh.derived((fn.__name__, macro.center, *args),
                                  lambda: fn(macro, *args))
    return cached


@_per_star
def _interior_faces(macro):
    """Faces shared by two star tets, in order of first appearance over the
    star cells; every one contains q0."""
    mesh = macro.mesh
    fs = mesh.cell_facets[macro.cells].ravel()
    _, first = np.unique(fs, return_index=True)
    fs = fs[np.sort(first)]
    pairs = mesh.facet_cells[fs]
    inner = np.isin(pairs, macro.cells).all(axis=1)
    faces = tuple(zip(mesh.facets[fs[inner]].tolist(), pairs[inner].tolist()))
    assert all(macro.center in f for f, _ in faces)
    return faces


def _components(cells, edges):
    """Connected components of the cell set under the given adjacencies."""
    idx = {int(c): k for k, c in enumerate(cells)}
    parent = list(range(len(idx)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(idx[a]), find(idx[b])
        if ra != rb:
            parent[ra] = rb
    return {int(c): find(idx[c]) for c in cells}


@_per_star
def _plane_split(macro, axis, tol):
    """True when the interior faces lying in coord_axis = q0_axis disconnect
    the star."""
    mesh = macro.mesh
    q0 = macro.q0
    keep = []
    for f, (c1, c2) in _interior_faces(macro):
        coords = mesh.vertices[list(f)][:, axis]
        if np.all(np.abs(coords - q0[axis]) <= tol):
            continue
        keep.append((c1, c2))
    comp = _components(macro.cells, keep)
    return len(set(comp.values())) > 1


@_per_star
def _semi_planes(macro, axis, tol, angle_tol=1e-9):
    """Semi-planes through the axis line at q0 that split the star.

    Returns (count, aligned, directions).  A face belongs to a semi-plane
    when its plane contains the axis direction (the trace determinant in the
    other two coordinates vanishes); faces are grouped by trace direction and
    a group counts only if its faces separate the star once all such faces
    are removed from the adjacency graph.
    """
    mesh = macro.mesh
    q0 = macro.q0
    diam = macro.diameter()
    b, c = [k for k in range(3) if k != axis]
    flat_faces = []   # (cells pair, list of directions)
    nonflat = []
    for f, pair in _interior_faces(macro):
        others = [v for v in f if v != macro.center]
        u1 = mesh.vertices[others[0]][[b, c]] - q0[[b, c]]
        u2 = mesh.vertices[others[1]][[b, c]] - q0[[b, c]]
        det = u1[0] * u2[1] - u1[1] * u2[0]
        if abs(det) > tol * diam ** 2:
            nonflat.append(pair)
            continue
        n1, n2 = np.linalg.norm(u1), np.linalg.norm(u2)
        eps = tol * diam
        if n1 <= eps and n2 <= eps:
            nonflat.append(pair)  # degenerate trace, cannot define a side
            continue
        if n1 <= eps or n2 <= eps:
            u = u1 if n1 > eps else u2
            dirs = [np.arctan2(u[1], u[0])]
        elif float(u1 @ u2) >= 0:
            u = u1 / n1 + u2 / n2
            dirs = [np.arctan2(u[1], u[0])]
        else:
            # the face spans both sides of the axis line
            dirs = [np.arctan2(u1[1], u1[0]), np.arctan2(u2[1], u2[0])]
        flat_faces.append((pair, [float(np.mod(d, 2 * np.pi)) for d in dirs]))

    comp = _components(macro.cells, nonflat)
    if len(set(comp.values())) <= 1:
        return 0, False, ()

    groups = {}
    for pair, dirs in flat_faces:
        for d in dirs:
            placed = False
            for key in groups:
                if min(abs(d - key), 2 * np.pi - abs(d - key)) <= angle_tol:
                    groups[key].append(pair)
                    placed = True
                    break
            if not placed:
                groups[d] = [pair]

    splitting = []
    for key, pairs in groups.items():
        if any(comp[c1] != comp[c2] for c1, c2 in pairs):
            splitting.append(key)
    aligned = False
    if len(splitting) == 2:
        d = abs(splitting[0] - splitting[1])
        aligned = abs(d - np.pi) <= angle_tol
    return len(splitting), aligned, tuple(sorted(splitting))


def classify_3d(macro, alignment_tol=1e-9):
    """Structure flags for a tet star: axis-plane splits and the vertical
    (z-axis) semi-plane count."""
    if macro.dim != 3:
        raise MeshError("classify_3d needs a 3D macro-element")
    tol = alignment_tol * macro.diameter()
    count, aligned, _ = _semi_planes(macro, 2, alignment_tol)
    return StructureFlags(
        x_structured=_plane_split(macro, 0, tol),
        y_structured=_plane_split(macro, 1, tol),
        z_structured=_plane_split(macro, 2, tol),
        semi_plane_count=count,
        semi_planes_aligned=aligned,
    )


def predict_regularity_3d(macro, combo, alignment_tol=1e-9):
    """Regularity verdict for a tet star.

    With two enriched components the combination is regular exactly when no
    plane orthogonal to the un-enriched axis splits the star.  With a single
    enriched component the verdict follows the semi-plane count around the
    axis line through q0.
    """
    if isinstance(combo, str):
        combo = FECombo.parse(combo)
    if macro.dim != 3 or combo.pressure != P1 or combo.dim != 3:
        raise FESpaceError(f"unsupported combo {combo} for 3D prediction")
    vel = tuple(combo.velocity)
    n_bub = sum(1 for t in vel if t == P1B)
    if sorted(vel) not in ([P1, P1B, P1B], [P1, P1, P1B]):
        raise FESpaceError(f"unsupported combo {combo} for 3D prediction")
    tol = alignment_tol * macro.diameter()
    if n_bub == 2:
        axis = vel.index(P1)
        if _plane_split(macro, axis, tol):
            return RegularityVerdict("singular", "3d-axis-split")
        return RegularityVerdict("regular", "3d-axis-unsplit")
    axis = vel.index(P1B)
    count, aligned, _ = _semi_planes(macro, axis, alignment_tol)
    if count == 0:
        return RegularityVerdict("regular", "3d-semiplane-case-1")
    if count == 2 and not aligned:
        return RegularityVerdict("regular", "3d-semiplane-case-2")
    if count == 2:
        return RegularityVerdict("singular", "3d-semiplane-case-2")
    if count == 1:
        warnings.warn("single splitting semi-plane detected; treating as "
                      "regular, but this indicates a tolerance problem")
        return RegularityVerdict("regular", "3d-semiplane-case-1")
    return RegularityVerdict("singular", "3d-semiplane-case-3")
