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

Both 3D questions are answered for every star of a mesh at once, on the
first ask about an axis: one connected-components pass over a graph of
(star, cell) nodes and (star, interior face) edges, kept on the mesh.  A
single 3D query on a large mesh therefore computes all of its stars, as
the local oracle does.  Alignment is decided to 1e-9 of the star diameter.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fespace import FECombo, FESpaceError, P1, P1B, P2
from .mesh import MeshError, TRIANGLE, _frozen, _lookup, _padded

_ALIGN_TOL = 1e-9   # alignment, relative to the star diameter
_S_TOL = 1e-10      # |S| against zero, relative to sum(1/area)


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
        """Largest distance between two star vertices, read from the star
        table of the mesh."""
        t = _stars(self.mesh)
        return float(t.diameters[t.star_of[self.center]])

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
    every caller on the same mesh shares it.  Its macros are read-only
    views of the mesh's star table.  Building also checks that every cell
    touches at least one interior vertex; cells that do not are reported
    with a warning because such meshes cannot be covered by vertex-centered
    macro-elements.
    """
    return mesh.derived("macroelements", lambda: _build_macroelements(mesh))


def _build_macroelements(mesh):
    t = _stars(mesh)
    r, c = t.ring_offsets.tolist(), t.cell_offsets.tolist()
    return [MacroElement(mesh, q0, t.ring[r[s]:r[s + 1]],
                         t.cells[c[s]:c[s + 1]],
                         None if t.angles is None else t.angles[r[s]:r[s + 1]],
                         t.areas[c[s]:c[s + 1]])
            for s, q0 in enumerate(t.centers.tolist())]


# Every interior-vertex star of a mesh, read-only.  Star s is centered at
# centers[s].  Its ring vertices (ccw in 2D, ascending otherwise) are
# ring[ring_offsets[s]:ring_offsets[s + 1]], with their 2D spoke angles in
# angles.  Its cells (in 2D, cell k spans ring[k], ring[k + 1]) are
# cells[cell_offsets[s]:cell_offsets[s + 1]], with their measures in areas.
# star_of is the star of each mesh vertex, -1 off the centers.
_Stars = namedtuple("_Stars", "centers star_of ring_offsets ring angles "
                    "cell_offsets cells areas diameters")


def _stars(mesh):
    """The star table of `mesh`, built once and kept on it."""
    return mesh.derived("stars", lambda: _build_stars(mesh))


def _build_stars(mesh):
    inner = ~mesh.boundary_vertex_mask()
    covered = inner[mesh.cells].any(axis=1)
    if not covered.all():
        bad = np.flatnonzero(~covered).tolist()
        warnings.warn(
            f"{len(bad)} cell(s) have no interior vertex (e.g. {bad[:5]}); "
            "the mesh is not coverable by vertex-centered macro-elements")
    centers = np.flatnonzero(inner)
    if len(centers) == 0:
        warnings.warn("mesh has no interior vertices; no macro-elements built")

    n, nv = len(centers), mesh.num_vertices
    star_of = np.full(nv, -1)
    star_of[centers] = np.arange(n)
    # every (cell, center) incidence, to be grouped by center
    cells, j = np.nonzero(inner[mesh.cells])
    center = mesh.cells[cells, j]
    angles = None
    if mesh.cell_kind == TRIANGLE:
        # Cells are positively oriented, so a star cell spans the spokes to
        # its vertex a after the center and b after a, counterclockwise.
        # The a are the ring, sorted as Mesh.ccw_ring sorts it, and cell k
        # is the cell of edge (center, ring[k]) that holds ring[k + 1].
        a, b = mesh.cells[cells, (j + 1) % 3], mesh.cells[cells, (j + 2) % 3]
        rel = mesh.vertices[a] - mesh.vertices[center]
        angles = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2 * np.pi)
        order = np.lexsort((a, angles, center))
        ring, b, angles, cells = a[order], b[order], angles[order], cells[order]
        ring_offsets = cell_offsets = np.searchsorted(
            center[order], np.append(centers, nv))
        size = np.diff(cell_offsets)
        star = np.repeat(np.arange(n), size)
        first = cell_offsets[star]
        after = ring[first + (np.arange(len(ring)) - first + 1) % size[star]]
        # Every spoke has two cells, so cells and spokes alternate in cycles
        # around the center; a star of two cycles fails b == after.
        bad = b != after
        if bad.any():
            k = np.argmax(bad)
            raise MeshError(f"vertex {centers[star[k]]}: ring vertices "
                            f"{ring[k]} and {after[k]} bound no common cell "
                            "of the star")
    else:
        order = np.lexsort((cells, center))
        cells, center = cells[order], center[order]
        cell_offsets = np.searchsorted(center, np.append(centers, nv))
        star, ring = np.divmod(np.unique(star_of[center][:, None] * nv
                                         + mesh.cells[cells]), nv)
        spoke = ring != centers[star]
        ring = ring[spoke]
        ring_offsets = np.searchsorted(star[spoke], np.arange(n + 1))

    # all pairs at once, a block of stars at a time to bound the temporaries
    padded, _ = _padded(ring_offsets, ring, np.arange(n), centers[:, None])
    pts = mesh.vertices[np.column_stack([centers, padded])]
    diameters = np.zeros(n)
    block = max(1, (1 << 20) // pts.shape[1] ** 2)
    for i in range(0, n, block):
        d = pts[i:i + block, :, None] - pts[i:i + block, None]
        diameters[i:i + block] = np.sqrt((d ** 2).sum(-1)).max(axis=(1, 2))
    t = _Stars(centers, star_of, ring_offsets, ring, angles, cell_offsets,
               cells, mesh.cell_measures()[cells], diameters)
    _frozen(*(x for x in t if x is not None))
    return t


# ----------------------------------------------------------------------
# 2D classification
# ----------------------------------------------------------------------

def _aligned_offsets(macro, axis):
    k = 1 if axis == "y" else 0
    return macro.ring_coords()[:, k] - macro.q0[k]


def classify_2d(macro):
    """Geometric structure of a 2D macro-element.

    A macro is y-structured when two ring vertices lie at the height of q0
    (the star is then split by the horizontal line through q0); x analog.
    min_sin / min_cos are the smallest |sin| / |cos| of the spoke angles after
    discarding the single worst one, i.e. the uniformity constants with one
    exception allowed.
    """
    if macro.dim != 2:
        raise MeshError("classify_2d needs a 2D macro-element")
    tol = _ALIGN_TOL * macro.diameter()
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
    return alternating_sum(macro.angles, macro.areas, axis)


def alternating_sum(angles, areas, axis="y"):
    """s_condition's sum from the spoke angles and the cell areas of a star,
    in ring order (cell k between spokes k and k + 1)."""
    if axis == "y":
        trig_num, trig_den = np.cos(angles), np.sin(angles)
    else:
        trig_num, trig_den = np.sin(angles), np.cos(angles)
    if np.any(np.abs(trig_den) < 1e-14):
        raise MeshError(
            "macro has a spoke aligned with the splitting axis; the aligned "
            "cases must be handled before evaluating the sum")
    cot = trig_num / trig_den
    s = 0.0
    for k in range(len(angles)):
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


def predict_regularity(macro, combo):
    """Closed-form regularity verdict for a 2D macro-element.

    Bubble-enriched combinations are regular exactly when at most one ring
    vertex is aligned with q0 across the enriched direction.  Quadratic
    combinations additionally fail, for even rings with no aligned vertex,
    when |S| <= 1e-10 * sum(1/area).
    """
    combo = FECombo.parse(combo)
    if macro.dim != 2 or combo.pressure != P1 or combo.dim != 2:
        raise FESpaceError(f"unsupported combo {combo} for 2D prediction")
    vel = tuple(combo.velocity)
    tolabs = _ALIGN_TOL * macro.diameter()
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
        if abs(s) <= _S_TOL * s_scale(macro):
            return RegularityVerdict("singular", "even-nV-S-zero", s_value=s)
        return RegularityVerdict("regular", "even-nV-S-nonzero", s_value=s)
    raise FESpaceError(f"unsupported combo {combo} for 2D prediction")


# ----------------------------------------------------------------------
# 3D classification
# ----------------------------------------------------------------------

def structure_report(mesh, combos=()):
    """Per-interior-vertex structure table.

    Returns (header, rows) with the geometric flags, the uniformity
    constants, the normalized alternating sum where defined, and one verdict
    column per requested combination.  Meant to be written as CSV.
    """
    if mesh.cell_kind != TRIANGLE:
        raise MeshError("the structure report covers 2D triangular meshes")
    combos = [FECombo.parse(c) for c in combos]
    header = ["vertex", "n_v", "x_structured", "y_structured",
              "aligned_x", "aligned_y", "min_sin", "min_cos", "abs_s_scaled"]
    header += [f"verdict_{c}" for c in combos]
    rows = []
    for macro in build_macroelements(mesh):
        flags = classify_2d(macro)
        if flags.aligned_count_x == 0 and flags.aligned_count_y == 0 \
                and macro.n_v % 2 == 0:
            s_scaled = abs(s_condition(macro)) / s_scale(macro)
        else:
            s_scaled = ""
        row = [int(macro.center), macro.n_v, int(flags.x_structured),
               int(flags.y_structured), flags.aligned_count_x,
               flags.aligned_count_y, flags.min_sin, flags.min_cos, s_scaled]
        for c in combos:
            row.append(predict_regularity(macro, c).predicted)
        rows.append(row)
    return header, rows


def _star_splits(mesh, axis):
    """Both 3D split questions about `axis` for every star of the mesh,
    computed on the first ask and kept on the mesh: a dict from star center
    to (plane split, semi-plane count, aligned, directions)."""
    return mesh.derived(("star_splits", axis),
                        lambda: _find_star_splits(mesh, axis))


def _find_star_splits(mesh, axis):
    """All stars as one graph: a node per (star, cell) and an edge per
    (star, interior face).  A face shared by two tets of a star contains
    the star's center, so the edges are the interior facets times those of
    their vertices that are star centers.

    The plane split cuts the faces lying in coord_axis = q0_axis and asks
    whether the star falls apart.  The semi-plane count cuts the faces whose
    plane contains the axis line at q0 (the trace determinant in the other
    two coordinates vanishes), groups them by trace direction and counts
    the groups holding a face that joins two of the components left.
    """
    # imported here: only 3D queries need it, and loading it adds about
    # 1 MB to every process that imports the package
    from scipy.sparse.csgraph import connected_components
    t = _stars(mesh)
    n_stars = len(t.centers)
    if not n_stars:
        return {}
    cells, centers, diam, star_of = t.cells, t.centers, t.diameters, t.star_of
    node_star = np.repeat(np.arange(n_stars), np.diff(t.cell_offsets))
    q0 = mesh.vertices[centers]
    inner = np.flatnonzero(mesh.facet_cells[:, 1] >= 0)
    rows, slot = np.nonzero(star_of[mesh.facets[inner]] >= 0)
    face = inner[rows]
    faces = mesh.facets[face]
    star = star_of[faces[np.arange(len(face)), slot]]
    # the nodes ascend by star, then by cell: a tet star lists its cells
    # in ascending order
    ends = _lookup(node_star * mesh.num_cells + cells,
                   star[:, None] * mesh.num_cells + mesh.facet_cells[face])
    assert np.all(ends >= 0), "interior face outside its star"

    def labels(keep):
        a, b = ends[keep].T
        graph = sp.csr_matrix((np.ones(len(a)), (a, b)),
                              shape=(len(cells), len(cells)))
        return connected_components(graph, directed=False)[1]

    tol = _ALIGN_TOL * diam[star]
    in_plane = np.all(np.abs(mesh.vertices[faces, axis]
                             - q0[star, axis, None]) <= tol[:, None], axis=1)
    _, first = np.unique(labels(~in_plane), return_index=True)
    plane_split = np.bincount(node_star[first], minlength=n_stars) > 1

    b, c = [k for k in range(3) if k != axis]
    others = faces[faces != centers[star, None]].reshape(-1, 2)
    u = mesh.vertices[others][:, :, [b, c]] - q0[star][:, None, [b, c]]
    gram = u @ u.transpose(0, 2, 1)
    n1, n2 = np.sqrt(gram[:, 0, 0]), np.sqrt(gram[:, 1, 1])
    det = u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0]
    # a trace with both ends on the axis line cannot define a side
    cut = (np.abs(det) <= _ALIGN_TOL * diam[star] ** 2) \
        & ((n1 > tol) | (n2 > tol))
    joins = np.diff(labels(~cut)[ends], axis=1)[:, 0] != 0
    # one trace direction per face, two when the face spans both sides of
    # the axis line
    one_end = (n1 <= tol) | (n2 <= tol)
    spans = cut & ~one_end & (gram[:, 0, 1] < 0)
    w = np.where((n1 > tol)[:, None], u[:, 0], u[:, 1])
    same = ~one_end & ~spans
    w[same] = u[same, 0] / n1[same, None] + u[same, 1] / n2[same, None]
    e = np.concatenate([np.flatnonzero(cut), np.flatnonzero(spans)])
    trace = np.concatenate([w[cut], u[spans, 1]])
    d = np.mod(np.arctan2(trace[:, 1], trace[:, 0]), 2 * np.pi)
    # the first face of a direction group, in the order the star's cells
    # list their faces, names the group
    local = np.argmax(mesh.cell_facets[cells[ends[e]]]
                      == face[e, None, None], axis=2)
    rank = 2 * (4 * ends[e] + local).min(axis=1) \
        + (np.arange(len(e)) >= cut.sum())
    fold = np.where(d > 2 * np.pi - _ALIGN_TOL, d - 2 * np.pi, d)
    o = np.lexsort((fold, star[e]))
    e, d, rank, fold = e[o], d[o], rank[o], fold[o]
    new = np.ones(len(e), dtype=bool)
    new[1:] = (np.diff(star[e]) != 0) | (np.diff(fold) > _ALIGN_TOL)
    start = np.flatnonzero(new)
    name = d[np.lexsort((rank, np.cumsum(new)))[start]]
    splitting = np.logical_or.reduceat(joins[e], start)
    g_star, g_dir = star[e[start]][splitting], name[splitting]
    count = np.bincount(g_star, minlength=n_stars)
    dirs = np.split(g_dir[np.lexsort((g_dir, g_star))], np.cumsum(count)[:-1])
    out = {}
    for s, center in enumerate(centers.tolist()):
        ds = tuple(dirs[s].tolist())
        aligned = len(ds) == 2 and abs(abs(ds[0] - ds[1]) - np.pi) <= _ALIGN_TOL
        out[center] = (bool(plane_split[s]), int(count[s]), bool(aligned), ds)
    return out


def classify_3d(macro):
    """Structure flags for a tet star: axis-plane splits and the vertical
    (z-axis) semi-plane count."""
    if macro.dim != 3:
        raise MeshError("classify_3d needs a 3D macro-element")
    x, y, z = (_star_splits(macro.mesh, a)[macro.center] for a in range(3))
    return StructureFlags(
        x_structured=x[0],
        y_structured=y[0],
        z_structured=z[0],
        semi_plane_count=z[1],
        semi_planes_aligned=z[2],
    )


def predict_regularity_3d(macro, combo):
    """Regularity verdict for a tet star.

    With two enriched components the combination is regular exactly when no
    plane orthogonal to the un-enriched axis splits the star.  With a single
    enriched component the verdict follows the semi-plane count around the
    axis line through q0.
    """
    combo = FECombo.parse(combo)
    if macro.dim != 3 or combo.pressure != P1 or combo.dim != 3:
        raise FESpaceError(f"unsupported combo {combo} for 3D prediction")
    vel = tuple(combo.velocity)
    n_bub = sum(1 for t in vel if t == P1B)
    if sorted(vel) not in ([P1, P1B, P1B], [P1, P1, P1B]):
        raise FESpaceError(f"unsupported combo {combo} for 3D prediction")
    if n_bub == 2:
        split = _star_splits(macro.mesh, vel.index(P1))[macro.center][0]
        if split:
            return RegularityVerdict("singular", "3d-axis-split")
        return RegularityVerdict("regular", "3d-axis-unsplit")
    _, count, aligned, _ = _star_splits(macro.mesh,
                                        vel.index(P1B))[macro.center]
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
