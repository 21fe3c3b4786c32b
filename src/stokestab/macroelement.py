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
  axis line at q0 split the star (0 or 1, a tolerance problem, regular; 2
  regular unless they form one plane; more than 2 singular);
* MINI (p1b-p1b:p1) is regular and P1-P1 singular on every 2D star.

Every question is answered for all stars of a mesh at once, on the first
ask, and kept on the mesh (`kept_on_mesh`), so a single query on a large
mesh computes all of its stars, as the local oracle does.  In 2D one pass
per axis counts each star's aligned ring vertices and, for even rings
without one, evaluates S and its scale.  In 3D one pass per axis labels the
components of a graph of (star, cell) nodes and (star, interior face) edges
for each star's plane split and splitting semi-planes.  One pass per
combination turns those into every star's verdict, a row of the one reason
table `_REASONS`.  All are read-only arrays indexed like the star table,
which the predicates, `classify_2d`, `classify_3d` and `structure_report`
only read, in 2D and 3D alike.  Alignment is to 1e-9 of the star diameter.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fespace import FECombo, FESpaceError
from .mesh import (MeshError, QUADRILATERAL, TRIANGLE, _frozen, _lookup,
                   _padded, kept_on_mesh)

_ALIGN_TOL = 1e-9   # alignment, relative to the star diameter
_S_TOL = 1e-10      # |S| against zero, relative to sum(1/area)

# How each supported combination splits a star, as (kind, axis index), by
# the rules above; MINI is singular on no star and P1-P1 on every star,
# whatever their geometry.  Only this table says so: the predicates, the
# witness pressures and the layered global counterexample all read it.
_SPLITS = {FECombo.parse(text): rule for text, rule in {
    "p1b-p1:p1": ("bubble", 1), "p1-p1b:p1": ("bubble", 0),
    "p2-p1:p1": ("quadratic", 1), "p1-p2:p1": ("quadratic", 0),
    "p1-p1b-p1b:p1": ("plane", 0), "p1b-p1-p1b:p1": ("plane", 1),
    "p1b-p1b-p1:p1": ("plane", 2), "p1b-p1-p1:p1": ("semi-planes", 0),
    "p1-p1b-p1:p1": ("semi-planes", 1), "p1-p1-p1b:p1": ("semi-planes", 2),
    "p1b-p1b:p1": ("never", None), "p1-p1:p1": ("always", None),
}.items()}


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
        return float(_stars(self.mesh).diameters[_star(self)])

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

    @property
    def regular(self):
        return self.predicted == "regular"


@kept_on_mesh
def build_macroelements(mesh):
    """One MacroElement per interior vertex.

    The list is built once per mesh and kept on it, so every caller on the
    same mesh shares it.  Its macros are read-only views of the mesh's star
    table.  Building also checks that every cell touches at least one
    interior vertex; cells that do not are reported with a warning because
    such meshes cannot be covered by vertex-centered macro-elements.
    """
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


def _star(macro):
    """The row of the macro's star in the star table of its mesh."""
    s = _stars(macro.mesh).star_of[macro.center]
    if s < 0:
        raise MeshError(f"vertex {macro.center} is not the center of an "
                        "interior star of its mesh")
    return s


@kept_on_mesh
def _stars(mesh):
    """The star table of `mesh`, built once and kept on it."""
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
        # The a are the ring, by spoke angle and ties by vertex as the
        # per-vertex reference `ccw_ring` in tests/stars.py sorts it, and
        # cell k is the cell of edge (center, ring[k]) that holds ring[k + 1].
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

def _segment_sums(values, offsets):
    """np.sum of each segment values[offsets[i]:offsets[i + 1]], bit for
    bit: the segments of one length are summed as the rows of one array."""
    size = np.diff(offsets)
    out = np.zeros(len(size))
    for k in np.unique(size).tolist():
        rows = np.flatnonzero(size == k)
        out[rows] = values[offsets[rows, None] + np.arange(k)].sum(axis=1)
    return out


def _alternating_sums(angles, areas, size, axis):
    """alternating_sum about the axis index `axis` of each row of spoke
    angles and cell areas.  Row i holds size[i] spokes; the entries past
    them are padding, a valid angle and area that add nothing."""
    col = np.arange(angles.shape[1])
    trig_num, trig_den = (np.sin, np.cos) if axis == 0 else (np.cos, np.sin)
    inv = 1.0 / areas
    pair = np.take_along_axis(inv, (col - 1) % size[:, None], axis=1) + inv
    term = (np.where(col % 2, 1.0, -1.0)
            * (trig_num(angles) / trig_den(angles)) * pair)
    term[col >= size[:, None]] = 0.0
    s = np.zeros(len(size))
    for k in col:           # spoke by spoke, in ring order
        s += term[:, k]
    return s


# Every star's 2D answers about one axis, indexed like the star table:
# aligned, its ring vertices level with the center along the axis; margin,
# the second smallest |sin| (axis 1) or |cos| (axis 0) of its spoke
# angles; and for an even ring with no aligned vertex the alternating sum s
# about the axis and its scale sum(1/area), nan for the other stars.
_Axis2D = namedtuple("_Axis2D", "aligned margin s scale")


@kept_on_mesh
def _axis_2d(mesh, axis):
    """The 2D answers about `axis` for every star of a triangle mesh,
    computed on the first ask and kept on the mesh, read-only."""
    t = _stars(mesh)
    n, offsets = len(t.centers), t.ring_offsets
    size = np.diff(offsets)
    star = np.repeat(np.arange(n), size)
    off = mesh.vertices[t.ring, axis] - mesh.vertices[t.centers[star], axis]
    level = np.abs(off) <= _ALIGN_TOL * t.diameters[star]
    aligned = np.bincount(star[level], minlength=n)
    trig = np.abs((np.cos, np.sin)[axis](t.angles))
    margin = trig[np.lexsort((trig, star))][offsets[:-1] + (size > 1)]
    s, scale = np.full(n, np.nan), np.full(n, np.nan)
    even = np.flatnonzero((aligned == 0) & (size % 2 == 0))
    if len(even):
        at = offsets[even, None] + np.minimum(np.arange(size[even].max()),
                                              size[even, None] - 1)
        s[even] = _alternating_sums(t.angles[at], t.areas[at], size[even],
                                    axis)
        scale[even] = _segment_sums(1.0 / t.areas, t.cell_offsets)[even]
    return _Axis2D(*_frozen(aligned, margin, s, scale))


# Every reason a verdict gives, with whether it makes the star singular; a
# verdict is stored as its row.  Each kind of _SPLITS owns the rows from
# _FIRST_ROW on: its cases in the order they are tried, then its reason when
# none holds.  The two 3d-semiplane-case-2 rows are semi-plane pairs that do
# not and that do form one plane.
_REASONS = (
    ("two-aligned", True), ("one-aligned", False), ("no-aligned", False),
    ("odd-nV", False), ("even-nV-S-zero", True), ("even-nV-S-nonzero", False),
    ("cell-bubbles", False), ("center-dofs-only", True),
    ("3d-axis-split", True), ("3d-axis-unsplit", False),
    ("3d-semiplane-case-1", False), ("3d-semiplane-case-2", False),
    ("3d-semiplane-case-2", True), ("3d-semiplane-single", False),
    ("3d-semiplane-case-3", True),
)
_SINGULAR = _frozen(np.array([singular for _, singular in _REASONS]))
_FIRST_ROW = {"bubble": 0, "quadratic": 0, "never": 6, "always": 7,
              "plane": 8, "semi-planes": 10}


def _combo(mesh, combo, dim):
    """The parsed combination, if the `dim`-D predicate answers it."""
    combo = FECombo.parse(combo)
    if mesh.dim != dim or combo.dim != dim or combo not in _SPLITS:
        raise FESpaceError(f"unsupported combo {combo} for {dim}D prediction")
    if dim == 2 and mesh.cell_kind != TRIANGLE:
        raise FESpaceError(f"combo {combo} incompatible with "
                           f"{mesh.cell_kind} mesh")
    return combo


@kept_on_mesh
def _verdicts(mesh, combo):
    """The verdict of every star for a combination `_combo` accepted, as its
    row of _REASONS, indexed like the star table; computed on the first ask
    and kept on the mesh, read-only."""
    kind, axis = _SPLITS[combo]
    size = np.diff(_stars(mesh).ring_offsets)
    first = _FIRST_ROW[kind]
    # the first case that holds gives the reason
    if kind in ("bubble", "quadratic"):
        a = _axis_2d(mesh, axis)
        cases = [a.aligned >= 2, a.aligned == 1,
                 np.full(len(size), kind == "bubble"), size % 2 == 1,
                 np.abs(a.s) <= _S_TOL * a.scale]
    elif kind == "plane":
        cases = [_star_splits(mesh, axis).plane_split]
    elif kind == "semi-planes":
        s = _star_splits(mesh, axis)
        cases = [s.count == 0, (s.count == 2) & ~s.aligned, s.count == 2,
                 s.count == 1]
    else:
        return _frozen(np.full(len(size), first))
    return _frozen(np.select(cases, range(first, first + len(cases)),
                             first + len(cases)))


def _verdict(macro, combo, dim):
    """The `dim`-D predicate's verdict on one star, read from the pass."""
    codes = _verdicts(macro.mesh, _combo(macro.mesh, combo, dim))
    reason, singular = _REASONS[codes[_star(macro)]]
    return RegularityVerdict("singular" if singular else "regular", reason)


def classify_2d(macro):
    """Geometric structure of a 2D macro-element.

    A macro is y-structured when two ring vertices lie at the height of q0
    (the star is then split by the horizontal line through q0); x analog.
    min_sin / min_cos are the smallest |sin| / |cos| of the spoke angles after
    discarding the single worst one, i.e. the uniformity constants with one
    exception allowed.  The answers are read from the per-axis pass over
    every star of the mesh.
    """
    mesh = macro.mesh
    if mesh.cell_kind != TRIANGLE:
        raise MeshError("classify_2d needs a 2D triangular macro-element")
    s = _star(macro)
    x, y = _axis_2d(mesh, 0), _axis_2d(mesh, 1)
    n_x, n_y = int(x.aligned[s]), int(y.aligned[s])
    return StructureFlags(
        x_structured=n_x >= 2,
        y_structured=n_y >= 2,
        min_sin=float(y.margin[s]),
        min_cos=float(x.margin[s]),
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
    axis = 1 if axis == "y" else 0
    angles = np.asarray(angles, dtype=float)[None]
    if np.any(np.abs((np.cos, np.sin)[axis](angles)) < 1e-14):
        raise MeshError(
            "macro has a spoke aligned with the splitting axis; the aligned "
            "cases must be handled before evaluating the sum")
    return float(_alternating_sums(angles, np.asarray(areas, dtype=float)[None],
                                   np.array([angles.shape[1]]), axis)[0])


def predict_regularity(macro, combo):
    """Closed-form regularity verdict for a 2D triangle macro-element, by
    the rule `_SPLITS` gives the combination.

    Bubble-enriched combinations are regular exactly when at most one ring
    vertex is aligned with q0 across the enriched direction.  Quadratic
    combinations additionally fail, for even rings with no aligned vertex,
    when |S| <= 1e-10 * sum(1/area).  MINI (p1b-p1b:p1) is regular on every
    star: each cell bubble pairs with the cell's constant pressure gradient,
    so that gradient vanishes.  P1-P1 is singular on every star: only the
    center's two velocity dofs are interior, against n_v >= 3 pressures
    modulo constants.  The first ask computes every star of the mesh for
    the combination and keeps the verdicts on the mesh.
    """
    return _verdict(macro, combo, 2)


def structure_report(mesh, combos=()):
    """Per-interior-vertex structure table.

    Returns (header, rows) with the geometric flags and one verdict column
    per requested combination.  On a triangle mesh the flags come with the
    uniformity constants and the normalized alternating sum where defined;
    on a tet mesh they are the axis-plane splits and the vertical semi-plane
    count, as `classify_3d` gives them.  Meant to be written as CSV.
    """
    if mesh.cell_kind == QUADRILATERAL:
        raise MeshError("the structure report covers triangular and "
                        "tetrahedral meshes")
    combos = [_combo(mesh, c, mesh.dim) for c in combos]
    header = ["vertex", "n_v", "x_structured", "y_structured"]
    t = _stars(mesh)
    size = np.diff(t.ring_offsets)
    if mesh.dim == 3:
        x, y, z = (_star_splits(mesh, a) for a in range(3))
        header += ["z_structured", "semi_planes"]
        columns = [s.plane_split.astype(int) for s in (x, y, z)] + [z.count]
    else:
        x, y = _axis_2d(mesh, 0), _axis_2d(mesh, 1)
        header += ["aligned_x", "aligned_y", "min_sin", "min_cos",
                   "abs_s_scaled"]
        s_scaled = (np.abs(y.s) / y.scale).astype(object)
        s_scaled[(x.aligned > 0) | (y.aligned > 0) | (size % 2 == 1)] = ""
        columns = [(x.aligned >= 2).astype(int), (y.aligned >= 2).astype(int),
                   x.aligned, y.aligned, y.margin, x.margin, s_scaled]
    header += [f"verdict_{c}" for c in combos]
    columns = [c.tolist() for c in [t.centers, size, *columns]]
    columns += [np.where(_SINGULAR[_verdicts(mesh, c)], "singular",
                         "regular").tolist() for c in combos]
    return header, [list(row) for row in zip(*columns)]


# ----------------------------------------------------------------------
# 3D classification
# ----------------------------------------------------------------------

# Every tet star's answers about one axis, indexed like the star table: the
# plane orthogonal to the axis through the center splits it (plane_split);
# count semi-planes through the axis line split it, aligned when two form one
# plane, at the azimuths dirs[dir_offsets[s]:dir_offsets[s + 1]], ascending.
_Splits3D = namedtuple("_Splits3D", "plane_split count aligned dir_offsets "
                       "dirs")


@kept_on_mesh
def _star_splits(mesh, axis):
    """Both 3D split questions about `axis` for every star of the mesh,
    computed on the first ask and kept on the mesh, read-only.

    All stars are one graph: a node per (star, cell) and an edge per
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
    dirs = g_dir[np.lexsort((g_dir, g_star))]
    dir_offsets = np.concatenate([[0], np.cumsum(count)])
    pair = np.flatnonzero(count == 2)
    aligned = np.zeros(n_stars, dtype=bool)
    d0, d1 = dirs[dir_offsets[pair]], dirs[dir_offsets[pair] + 1]
    aligned[pair] = np.abs(np.abs(d0 - d1) - np.pi) <= _ALIGN_TOL
    return _Splits3D(*_frozen(plane_split, count, aligned, dir_offsets, dirs))


def classify_3d(macro):
    """Structure flags for a tet star: axis-plane splits and the vertical
    (z-axis) semi-plane count."""
    if macro.dim != 3:
        raise MeshError("classify_3d needs a 3D macro-element")
    s = _star(macro)
    x, y, z = (_star_splits(macro.mesh, a) for a in range(3))
    return StructureFlags(
        x_structured=bool(x.plane_split[s]),
        y_structured=bool(y.plane_split[s]),
        z_structured=bool(z.plane_split[s]),
        semi_plane_count=int(z.count[s]),
        semi_planes_aligned=bool(z.aligned[s]),
    )


def predict_regularity_3d(macro, combo):
    """Regularity verdict for a tet star, by the rule `_SPLITS` gives the
    combination.

    With two enriched components the combination is regular exactly when no
    plane orthogonal to the un-enriched axis splits the star.  With a single
    enriched component the verdict follows the semi-plane count around the
    axis line through q0.
    """
    return _verdict(macro, combo, 3)
