"""Mesh data model, Gmsh MSH 2.2 / legacy VTK I/O, and purpose-built generators.

Meshes are simplicial (triangles in 2D, tetrahedra in 3D) or 2D rectangular
quadrilaterals.  Vertex and cell arrays are frozen after construction so a
Mesh can be shared freely; generators that modify geometry return new Mesh
objects.
"""

from __future__ import annotations

import csv
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

TRIANGLE = "triangle"
TETRAHEDRON = "tetrahedron"
QUADRILATERAL = "quadrilateral"

_CELL_SIZES = {TRIANGLE: 3, TETRAHEDRON: 4, QUADRILATERAL: 4}

# boundary tags used by the rectangle/box generators
BOTTOM, RIGHT, TOP, LEFT = 1, 2, 3, 4


class StokestabError(ValueError):
    """Base class of the library's errors: input it cannot handle, from a
    mesh, a space combination or a problem set-up."""


class MeshError(StokestabError):
    """Raised for parse errors, nonconforming meshes and bad generator input."""


def _cross2(u, v):
    """z-component of the cross product for stacks of 2D vectors."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _signed_measures(vertices, cells):
    """Triangle areas, quadrilateral areas (shoelace) or tet volumes, positive
    for counterclockwise or right-handed vertex order."""
    p = vertices.take(cells, axis=0)
    if cells.shape[1] == 3:
        return 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    if vertices.shape[1] == 2:
        x, y = p[:, :, 0], p[:, :, 1]
        s = x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y
        return 0.5 * s.sum(axis=1)
    u, v, w = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]
    return np.einsum("ij,ij->i", np.cross(u, v), w) / 6.0


# local vertex tuples of the edges and facets of one cell
_LOCAL_EDGES = {
    TRIANGLE: np.array([(0, 1), (1, 2), (2, 0)]),
    QUADRILATERAL: np.array([(0, 1), (1, 2), (2, 3), (3, 0)]),
    TETRAHEDRON: np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
}
_LOCAL_FACETS = {**_LOCAL_EDGES, TETRAHEDRON: np.array(
    [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])}

_Topology = namedtuple("_Topology", "rows keys cell_index cells counts first")


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays if len(arrays) > 1 else arrays[0]


def _check_nondegenerate(measures):
    zero = measures == 0
    if zero.any():
        raise MeshError(f"degenerate cell(s) {np.flatnonzero(zero)[:5].tolist()}")


def _keys(rows, n):
    """One integer per row of sorted vertex ids (its base-n digits), so that
    key order is lexicographic row order."""
    if n ** rows.shape[1] >= 2 ** 63:
        raise MeshError(f"{n} vertices overflow the 64-bit facet keys")
    key = rows[:, 0]
    for j in range(1, rows.shape[1]):
        key = key * n + rows[:, j]
    return key


def _lookup(keys, query):
    """Position of each query key in the sorted unique keys, -1 if absent."""
    pos = np.searchsorted(keys, query)
    return np.where(np.append(keys, -1)[pos] == query, pos, -1)


def _group(cells, local, n):
    """Unique vertex tuples among the cells' local tuples (edges or facets):
    the tuples and their keys in lexicographic order, the (cells, local)
    array of tuple indices, the first two cells holding each tuple (-1 for
    none), its number of holders and its first (cell, local) slot."""
    k = len(local)
    slots = np.sort(cells[:, local].reshape(-1, local.shape[1]), axis=1)
    keys = _keys(slots, n)
    perm = np.argsort(keys, kind="stable")
    sk = keys[perm]
    new = np.ones(len(sk), dtype=bool)
    np.not_equal(sk[1:], sk[:-1], out=new[1:])
    start = np.flatnonzero(new)
    index = np.empty(len(sk), dtype=np.int64)
    index[perm] = np.cumsum(new) - 1
    counts = np.bincount(index, minlength=len(start))
    pairs = np.full((len(start), 2), -1, dtype=np.int64)
    pairs[:, 0] = perm[start] // k
    shared = counts > 1
    pairs[shared, 1] = perm[start[shared] + 1] // k
    return _Topology(*_frozen(slots[perm[start]], sk[start],
                              index.reshape(len(cells), k), pairs),
                     counts, perm[start])


def _csr(rows, cols, n):
    """(offsets, cols) of the pairs grouped by row, cols ascending in a row."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    return _frozen(offsets, cols[np.lexsort((cols, rows))])


def _spans(offsets, rows):
    """Positions offsets[r]:offsets[r + 1] of each CSR row r, concatenated."""
    start = offsets[rows]
    counts = offsets[rows + 1] - start
    return np.repeat(start - np.cumsum(counts) + counts, counts) + \
        np.arange(counts.sum())


def _padded(offsets, values, rows, fill):
    """The CSR rows `rows` of (offsets, values) as the rows of one array,
    padded with `fill` to the longest, and the mask of the real entries."""
    start = offsets[rows]
    deg = offsets[rows + 1] - start
    col = np.arange(deg.max(initial=0))
    real = col < deg[:, None]
    at = np.minimum(start[:, None] + col, len(values) - 1)
    return np.where(real, values[at], fill), real


def require_triangles(mesh, caller):
    """Raise MeshError unless `mesh` is made of triangles."""
    if mesh.cell_kind != TRIANGLE:
        raise MeshError(f"{caller} expects a triangular mesh, "
                        f"got a {mesh.cell_kind} mesh")


class Mesh:
    """Conforming mesh: vertex coordinates, cells, tagged boundary facets.

    Parameters
    ----------
    dim : 2 or 3
    cell_kind : one of 'triangle', 'tetrahedron', 'quadrilateral'
    vertices : (n, dim) float array; every vertex must belong to a cell
    cells : (m, k) int array, k = 3 (tri) or 4 (tet/quad); copied and
        reordered to positive orientation
    boundary_facets, boundary_tags : optional facets (vertex rows in any
        order) and their tags.  They only tag the boundary, which comes from
        the cells: each must bound exactly one cell, a facet listed twice
        keeps its last tag and an unlisted one gets 0.

    `boundary_facets` (nb, f) and `boundary_tags` (nb,) are read-only int64:
    the facets of exactly one cell as sorted rows, in order of first
    appearance over the oriented cells, and their tags.

    Topology, derived from the oriented cells, is cached and read-only:
    `edges()`, `cell_edges`, `facets`, `cell_facets`, `facet_cells`, the
    CSR incidences `vertex_cells`, `vertex_neighbours` and the
    `interior_waves` schedule; `cells_of`, `neighbours`,
    `padded_neighbours`, `edge_index`, `ccw_ring` and `safe_move` read it.
    `derived(key, build)` keeps other data computed from the mesh, such as
    the operators the local oracle slices.
    """

    def __init__(self, dim, cell_kind, vertices, cells, boundary_facets=None,
                 boundary_tags=None):
        if cell_kind not in _CELL_SIZES:
            raise MeshError(f"unknown cell kind {cell_kind!r}")
        try:
            vertices = np.array(vertices, dtype=float).reshape(-1, dim)
            cells = np.array(cells, dtype=np.int64).reshape(
                -1, _CELL_SIZES[cell_kind])
            given = np.array([] if boundary_facets is None else
                             boundary_facets, dtype=np.int64)
            tags = np.zeros(len(given), dtype=np.int64)
            tags[:] = 0 if boundary_tags is None else boundary_tags
        except ValueError as exc:
            raise MeshError(f"malformed mesh array: {exc}") from None
        if cells.size and (cells.min() < 0 or cells.max() >= len(vertices)):
            raise MeshError("cell vertex index out of range")
        orphans = np.bincount(cells.ravel(), minlength=len(vertices)) == 0
        if orphans.any():
            raise MeshError(f"vertex {np.argmax(orphans)} belongs to no cell")
        self.dim = int(dim)
        self.cell_kind = cell_kind
        self.vertices = vertices
        self.cells = cells
        self._orient()
        _frozen(self.vertices, self.cells)
        self._check_conforming()
        t = self._facet_topology
        b = t.cell_index.ravel()[np.sort(t.first[t.counts == 1])]
        self.boundary_facets = _frozen(t.rows[b])
        self.boundary_tags = _frozen(self._facet_tags(given, tags)[b])

    # -- basic queries -------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    # -- topology --------------------------------------------------------

    @cached_property
    def _facet_topology(self):
        return _group(self.cells, _LOCAL_FACETS[self.cell_kind],
                      self.num_vertices)

    @cached_property
    def _edge_topology(self):
        if self.dim == 2:  # the facets are the edges
            return self._facet_topology
        return _group(self.cells, _LOCAL_EDGES[self.cell_kind],
                      self.num_vertices)

    def edges(self):
        """Unique mesh edges as a lexicographically sorted (e, 2) int array."""
        return self._edge_topology.rows

    @property
    def cell_edges(self):
        """(m, k) index into edges() of each cell's local edges: (0,1),
        (1,2), (2,0) on triangles, the sides (0,1), (1,2), (2,3), (3,0) on
        quadrilaterals, the pairs i < j in lexicographic order on tets."""
        return self._edge_topology.cell_index

    @property
    def facets(self):
        """Unique facets as lexicographically sorted rows of sorted vertex
        ids: the edges() array in 2D, triangles on tet meshes."""
        return self._facet_topology.rows

    @property
    def cell_facets(self):
        """(m, f) index into facets of each cell's local facets: its local
        edges in 2D, faces (0,1,2), (0,1,3), (0,2,3), (1,2,3) on tets."""
        return self._facet_topology.cell_index

    @property
    def facet_cells(self):
        """(f, 2) cells of each facet, ascending; -1 for none beyond the
        first on boundary facets."""
        return self._facet_topology.cells

    @cached_property
    def vertex_cells(self):
        """CSR vertex -> cell incidence (offsets, cells): the cells at
        vertex v, ascending, are cells[offsets[v]:offsets[v + 1]]."""
        m, k = self.cells.shape
        return _csr(self.cells.ravel(), np.repeat(np.arange(m), k),
                    self.num_vertices)

    @cached_property
    def vertex_neighbours(self):
        """CSR vertex -> edge-neighbour incidence (offsets, vertices),
        neighbours ascending."""
        e = self.edges()
        return _csr(np.concatenate([e[:, 0], e[:, 1]]),
                    np.concatenate([e[:, 1], e[:, 0]]), self.num_vertices)

    def cells_of(self, v):
        offsets, cells = self.vertex_cells
        return cells[offsets[v]:offsets[v + 1]]

    def neighbours(self, v):
        offsets, nbrs = self.vertex_neighbours
        return nbrs[offsets[v]:offsets[v + 1]]

    def padded_neighbours(self, v):
        """Edge neighbours of each vertex in the array v as the rows of one
        array, ascending and padded with the row's own vertex to the largest
        degree, and the mask of the real entries."""
        return _padded(*self.vertex_neighbours, v, v[:, None])

    @cached_property
    def interior_waves(self):
        """The interior vertices in waves (level scheduling): no two
        vertices of a wave are edge neighbours, and every interior neighbour
        of lower index sits in an earlier wave.  A sweep that moves each
        vertex using only its edge neighbours therefore gives the same
        result run wave by wave, one array step per wave, as run one vertex
        at a time in ascending order."""
        n = self.num_vertices
        inner = ~self.boundary_vertex_mask()
        e = self.edges()  # rows a < b
        e = e[inner[e].all(axis=1)]
        # the interior neighbours b > a of each a, padded with a dummy n
        later, _ = _padded(*_csr(e[:, 0], e[:, 1], n), np.arange(n), n)
        # per vertex, its interior neighbours a < b not yet scheduled; -1
        # once scheduled and for the boundary and the dummy
        waiting = np.append(np.bincount(e[:, 1], minlength=n), -1)
        waiting[:n][~inner] = -1
        waves = []
        while True:
            wave = np.flatnonzero(waiting == 0)
            if not len(wave):
                return tuple(waves)
            waiting[wave] = -1
            waves.append(_frozen(wave))
            waiting -= np.bincount(later[wave].ravel(), minlength=n + 1)

    def edge_index(self, a, b):
        """Index into edges() of the edge joining vertices a and b (arrays
        broadcast); raises MeshError when a pair is not an edge."""
        n = self.num_vertices
        pos = _lookup(self._edge_topology.keys,
                      np.minimum(a, b) * n + np.maximum(a, b))
        if np.any(pos < 0):
            raise MeshError(f"{np.count_nonzero(pos < 0)} vertex pair(s) "
                            "are not mesh edges")
        return pos

    def ccw_ring(self, v, coords=None):
        """Edge neighbours of 2D vertex v counterclockwise, from the
        smallest spoke angle (ties by vertex index), and those angles in
        [0, 2pi).  coords replaces the vertex coordinates."""
        coords = self.vertices if coords is None else coords
        nbrs = self.neighbours(v)
        rel = coords[nbrs] - coords[v]
        ang = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2 * np.pi)
        order = np.lexsort((nbrs, ang))
        return nbrs[order], ang[order]

    def safe_move(self, coords, v, axis, step):
        """Move the vertices v (an array; no two may share a cell) of the
        triangle-mesh coordinates `coords` in place by the steps `step`
        along `axis`, halving each vertex's step until every cell at it
        keeps at least 10% of its area before the move.  Returns the scale
        applied to each step, 0.0 where 60 halvings did not suffice and the
        vertex stays put."""
        at, real = _padded(*self.vertex_cells, v, 0)
        tris = self.cells.take(at, axis=0)

        def measures(rows):
            t = tris.take(rows, axis=0)
            return _signed_measures(coords, t.reshape(-1, t.shape[-1])
                                    ).reshape(t.shape[:2])

        everyone = np.arange(len(v))
        ref = 0.1 * measures(everyone)
        x0 = coords[v, axis]
        scale = np.ones(len(v))
        todo = everyone  # vertices still halving
        for _ in range(60):
            coords[v[todo], axis] = x0[todo] + scale[todo] * step[todo]
            kept = (measures(todo) >= ref[todo]) | ~real[todo]
            todo = todo[~kept.all(axis=1)]
            if not len(todo):
                return scale
            scale[todo] *= 0.5
        coords[v[todo], axis] = x0[todo]
        scale[todo] = 0.0
        return scale

    def derived(self, key, build):
        """build(), computed once per key and kept on this mesh like the
        topology above: for data that depends on the mesh alone, such as
        operators assembled on it."""
        store = self.__dict__.setdefault("_derived", {})
        if key not in store:
            store[key] = build()
        return store[key]

    def boundary_vertex_mask(self):
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[self.boundary_facets] = True
        return mask

    def interior_vertices(self):
        return np.flatnonzero(~self.boundary_vertex_mask())

    def cell_measures(self):
        """Signed-positive cell areas/volumes."""
        return np.abs(_signed_measures(self.vertices, self.cells))

    def cell_diameters(self):
        pts = self.vertices.take(self.cells, axis=0)
        k = pts.shape[1]
        dmax = np.zeros(len(pts))
        for i in range(k):
            for j in range(i + 1, k):
                d = np.linalg.norm(pts[:, i] - pts[:, j], axis=1)
                dmax = np.maximum(dmax, d)
        return dmax

    def metrics(self):
        meas = self.cell_measures()
        diam = self.cell_diameters()
        return MeshMetrics(h=float(diam.max()), min_area=float(meas.min()),
                           shape_ratio=float((diam**2 / meas).max()))

    def replace_vertices(self, new_vertices):
        """New mesh with the same cells, boundary facets and topology and
        different coordinates.  It shares the vertex incidences and interior
        waves already computed here: they do not depend on the coordinates
        or on the vertex order within a cell.  When the new coordinates turn
        no cell over, the cells stay as they are, so it shares the edge and
        facet topology and the boundary too and skips the conformity checks,
        which read only that; it still rejects degenerate cells and duplicate
        coordinates.  Otherwise the mesh is built anew."""
        keys = ["vertex_cells", "vertex_neighbours", "interior_waves"]
        s = None
        if (isinstance(new_vertices, np.ndarray)
                and new_vertices.shape == self.vertices.shape):
            vertices = np.array(new_vertices, dtype=float)
            s = _signed_measures(vertices, self.cells)
        if s is None or (s < 0).any():
            out = Mesh(self.dim, self.cell_kind, new_vertices, self.cells,
                       self.boundary_facets, self.boundary_tags)
        else:
            out = Mesh.__new__(Mesh)
            out.dim, out.cell_kind, out.cells = (self.dim, self.cell_kind,
                                                 self.cells)
            out.vertices = _frozen(vertices)
            out.boundary_facets = self.boundary_facets
            out.boundary_tags = self.boundary_tags
            _check_nondegenerate(s)
            out._check_distinct_vertices()
            keys += ["_facet_topology", "_edge_topology"]
        for key in keys:
            if key in self.__dict__:
                out.__dict__[key] = self.__dict__[key]
        return out

    # -- construction helpers -------------------------------------------

    def _orient(self):
        c = self.cells
        s = _signed_measures(self.vertices, c)
        flip = {TRIANGLE: [0, 2, 1], TETRAHEDRON: [0, 1, 3, 2],
                QUADRILATERAL: [3, 2, 1, 0]}[self.cell_kind]
        c[s < 0] = c[s < 0][:, flip]
        _check_nondegenerate(s)

    def _check_conforming(self):
        t = self._facet_topology
        over = np.flatnonzero(t.counts > 2)
        if len(over):
            f = over[np.argmin(t.first[over])]
            c0, c1 = t.cells[f]
            raise MeshError(
                f"nonconforming mesh: facet {tuple(t.rows[f].tolist())} shared "
                f"by cells {c0} and {c1} plus {t.counts[f] - 2} more")
        self._check_distinct_vertices()

    def _facet_tags(self, given, tags):
        """The tag of every facet: the last of the `tags` given to it in the
        rows of `given`, else 0.  A given facet must bound one cell only."""
        t = self._facet_topology
        out = np.zeros(len(t.rows), dtype=np.int64)
        if not given.size:
            return out
        given = given.reshape(len(given), -1)

        def check(bad, problem):
            if np.any(bad):
                row = given[np.argmax(bad)].tolist()
                raise MeshError(f"boundary facet {tuple(row)} {problem}")

        width = t.rows.shape[1]
        check(given.shape[1] != width, f"has {given.shape[1]} vertices; "
              f"{self.cell_kind} facets have {width}")
        check(((given < 0) | (given >= self.num_vertices)).any(axis=1),
              "has a vertex index out of range")
        pos = _lookup(t.keys, _keys(np.sort(given, axis=1), self.num_vertices))
        check((pos < 0) | (t.counts[pos] != 1),
              "does not bound exactly one cell")
        # reversed, the last row of a facet comes first
        facet, first = np.unique(pos[::-1], return_index=True)
        out[facet] = tags[::-1][first]
        return out

    def _check_distinct_vertices(self):
        # duplicated vertex coordinates are the usual source of nonconformity
        order = np.lexsort(self.vertices.T[::-1])
        sv = self.vertices[order]
        if len(sv) > 1:
            same = np.all(np.abs(np.diff(sv, axis=0)) < 1e-14, axis=1)
            if same.any():
                i = int(np.flatnonzero(same)[0])
                raise MeshError(
                    f"duplicate vertex coordinates at indices "
                    f"{int(order[i])} and {int(order[i + 1])}")

    def validate(self, geometric=False):
        """Run conformity checks; with geometric=True also scan for hanging
        vertices lying in the interior of another cell's edge (O(V*E), meant
        for small test meshes)."""
        self._check_conforming()
        if geometric and self.dim == 2:
            edges = self.edges()
            v = self.vertices
            for e0, e1 in edges:
                a, b = v[e0], v[e1]
                ab = b - a
                L2 = float(ab @ ab)
                for w in range(self.num_vertices):
                    if w == e0 or w == e1:
                        continue
                    t = float((v[w] - a) @ ab) / L2
                    if 1e-9 < t < 1 - 1e-9:
                        p = a + t * ab
                        if np.linalg.norm(v[w] - p) < 1e-12 * np.sqrt(L2):
                            raise MeshError(
                                f"hanging vertex {w} on edge ({e0}, {e1})")
        return True


@dataclass(frozen=True)
class MeshMetrics:
    h: float
    min_area: float
    shape_ratio: float


# ----------------------------------------------------------------------
# Gmsh MSH 2.2 ASCII
# ----------------------------------------------------------------------

_MSH_LINE, _MSH_TRI, _MSH_QUAD, _MSH_TET = 1, 2, 3, 4
_MSH_POINT = 15


def _msh_nodes(block):
    """Ids and (n, 3) coordinates of '$Nodes' records 'id x y z', parsed
    with int() and float() like single values."""
    rows = list(map(str.split, block))
    if set(map(len, rows)) - {4}:
        raise ValueError("a node record has other than 4 fields")
    tokens = list(chain.from_iterable(rows))
    ids = np.array(tokens[0::4], dtype=np.int64)
    del tokens[0::4]
    return ids, np.array(tokens, dtype=float).reshape(-1, 3)


def _msh_elements(block):
    """Types, first tags (0 without tags), node counts and the concatenated
    nodes of '$Elements' records 'id type ntags tags... nodes...', in
    record order.  The ids are not read."""
    rows = list(map(str.split, block))
    width = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    etype, tag, count = np.zeros((3, len(rows)), dtype=np.int64)
    groups = []  # records of one width: (positions, fields after the id)
    for w in np.unique(width).tolist():
        if w < 3:
            raise ValueError("an element record lacks its type or tag count")
        at = np.flatnonzero(width == w)
        tokens = list(chain.from_iterable(map(rows.__getitem__, at.tolist())))
        del tokens[0::w]
        fields = np.array(tokens, dtype=np.int64).reshape(len(at), w - 1)
        if np.any((fields[:, 1] < 0) | (fields[:, 1] > w - 3)):
            raise ValueError("an element record has fewer tags than it counts")
        etype[at] = fields[:, 0]
        if w > 3:
            tag[at] = np.where(fields[:, 1] > 0, fields[:, 2], 0)
        count[at] = w - 3 - fields[:, 1]
        groups.append((at, fields))
    offsets = np.concatenate([[0], np.cumsum(count)])
    nodes = np.empty(offsets[-1], dtype=np.int64)
    for at, fields in groups:
        after_tags = np.arange(fields.shape[1] - 2) >= fields[:, 1:2]
        nodes[_spans(offsets, at)] = fields[:, 2:][after_tags]
    return etype, tag, count, nodes


def load_msh(path):
    """Read a Gmsh MSH 2.2 ASCII file.

    Triangles/quads/tets become cells, which define the boundary; lines in
    2D and triangles in 3D only tag it (see Mesh).  Raises MeshError with a
    line number on malformed input and rejects nonconforming meshes.  Each
    node and element block is parsed at once.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()

    def err(i, msg):
        return MeshError(f"{path}:{i + 1}: {msg}")

    def block(i, what, parse, msg):
        """(n, parse(records)) for the block whose count is on line i + 1.
        A failing block is bisected to the first record that fails; each
        record passes or fails on its own."""
        try:
            n = int(lines[i + 1])
            if n < 0:
                raise ValueError
        except (ValueError, IndexError):
            raise err(i + 1, f"bad {what} count") from None
        first, end = i + 2, min(i + 2 + n, len(lines))

        def fails(a, b):
            try:
                parse(lines[a:b])
            except (ValueError, IndexError, OverflowError):
                return True
            return False

        if end == first + n:
            try:
                return n, parse(lines[first:end])
            except (ValueError, IndexError, OverflowError):
                pass
        lo, hi = first, end
        if not fails(lo, hi):
            raise err(end, msg)  # the records run past the end of the file
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if not fails(lo, mid) else (lo, mid)
        raise err(lo, msg)

    i = 0
    nodes, elements = [], []  # parsed blocks
    saw_format = False
    while i < len(lines):
        tok = lines[i].strip()
        if tok == "$MeshFormat":
            parts = lines[i + 1].split()
            if not parts or not parts[0].startswith("2.2"):
                raise err(i + 1, f"unsupported MSH version {parts[:1]}; "
                                 "only 2.2 ASCII is handled")
            saw_format = True
            i += 3
        elif tok == "$Nodes":
            n, parsed = block(i, "node", _msh_nodes, "expected 'id x y z'")
            nodes.append(parsed)
            i += n + 3
        elif tok == "$Elements":
            n, parsed = block(i, "element", _msh_elements,
                              "malformed element record")
            elements.append(parsed)
            i += n + 3
        else:
            i += 1
    if not saw_format:
        raise MeshError(f"{path}: missing $MeshFormat section")

    def joined(arrays):
        return np.concatenate([np.zeros(0, dtype=np.int64), *arrays])

    ids = joined(b[0] for b in nodes)
    if not len(ids):
        raise MeshError(f"{path}: missing $Nodes section")
    # a repeated id keeps its last coordinates; vertices in ascending id order
    ids, last = np.unique(ids[::-1], return_index=True)
    coords3 = np.concatenate([b[1] for b in nodes])[-1 - last]
    etype, tags, count, conn = (joined(b[k] for b in elements)
                                for k in range(4))
    offsets = np.concatenate([[0], np.cumsum(count)])

    def records(code, what, width):
        """Tags and (records, width) 0-based nodes of one element type."""
        rows = np.flatnonzero(etype == code)
        v = conn[_spans(offsets, rows)]
        pos = np.minimum(np.searchsorted(ids, v), len(ids) - 1)
        unknown = ids[pos] != v
        if unknown.any():
            raise MeshError(f"{path}: element references unknown node "
                            f"{v[np.argmax(unknown)]}")
        n = count[rows]
        if np.any(n != width):
            i = np.argmax(n != width)
            nodes = np.split(pos, np.cumsum(n)[:-1])[i].tolist()
            raise MeshError(f"{path}: {what} {tuple(nodes)} has {n[i]} "
                            f"vertices; {kind} {what}s have {width}")
        return tags[rows], pos.reshape(len(rows), width)

    present = set(etype.tolist())
    if _MSH_TET in present:
        dim, kind, cellkind, facetkind = 3, TETRAHEDRON, _MSH_TET, _MSH_TRI
    elif _MSH_TRI in present and _MSH_QUAD in present:
        raise MeshError(f"{path}: mixed triangle/quad meshes are not supported")
    elif _MSH_TRI in present:
        dim, kind, cellkind, facetkind = 2, TRIANGLE, _MSH_TRI, _MSH_LINE
    elif _MSH_QUAD in present:
        dim, kind, cellkind, facetkind = 2, QUADRILATERAL, _MSH_QUAD, _MSH_LINE
    else:
        raise MeshError(f"{path}: no triangle/quad/tet elements found")

    verts = coords3[:, :dim]
    if dim == 2 and np.abs(coords3[:, 2]).max(initial=0.0) > 1e-12:
        raise MeshError(f"{path}: 2D element mesh with nonzero z coordinates")
    _, cells = records(cellkind, "cell", _CELL_SIZES[kind])
    facet_tags, facets = records(facetkind, "boundary facet", dim)
    return Mesh(dim, kind, verts, cells, facets, facet_tags)


_MSH_KIND = {TRIANGLE: _MSH_TRI, QUADRILATERAL: _MSH_QUAD, TETRAHEDRON: _MSH_TET}
_FACET_KIND = {TRIANGLE: _MSH_LINE, QUADRILATERAL: _MSH_LINE, TETRAHEDRON: _MSH_TRI}


def save_msh(mesh, path):
    """Write the mesh as Gmsh MSH 2.2 ASCII (inverse of load_msh)."""
    n, (m, k) = mesh.num_vertices, mesh.cells.shape
    xyz = np.zeros((n, 3))
    xyz[:, :mesh.dim] = mesh.vertices
    facets, tags = mesh.boundary_facets, mesh.boundary_tags.tolist()
    nb = len(tags)
    ft, ct = _FACET_KIND[mesh.cell_kind], _MSH_KIND[mesh.cell_kind]

    def fields(count):
        return " ".join(["{}"] * count)

    out = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(n),
           *[f"{i} {x:.17g} {y:.17g} {z:.17g}"
             for i, (x, y, z) in enumerate(xyz.tolist(), 1)],
           "$EndNodes", "$Elements", str(nb + m),
           *map(f"{{}} {ft} 2 {fields(2 + mesh.dim)}".format,
                range(1, nb + 1), tags, tags, *(facets + 1).T.tolist()),
           *map(f"{{}} {ct} 2 0 0 {fields(k)}".format,
                range(nb + 1, nb + m + 1), *(mesh.cells + 1).T.tolist()),
           "$EndElements"]
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


# ----------------------------------------------------------------------
# VTK legacy writer
# ----------------------------------------------------------------------

_VTK_TYPE = {TRIANGLE: 5, QUADRILATERAL: 9, TETRAHEDRON: 10}


def save_vtk(mesh, fields, path):
    """Write a legacy-ASCII VTK UNSTRUCTURED_GRID file.

    fields maps name -> scalar array; arrays of vertex length go to
    POINT_DATA, arrays of cell length to CELL_DATA.  Raises MeshError on a
    length mismatch.
    """
    point_fields, cell_fields = {}, {}
    for name, arr in (fields or {}).items():
        arr = np.asarray(arr, dtype=float).ravel()
        if len(arr) == mesh.num_vertices:
            point_fields[name] = arr
        elif len(arr) == mesh.num_cells:
            cell_fields[name] = arr
        else:
            raise MeshError(
                f"field {name!r} has length {len(arr)}, expected "
                f"{mesh.num_vertices} (vertices) or {mesh.num_cells} (cells)")

    k = mesh.cells.shape[1]
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write("stokestab output\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.num_vertices} double\n")
        for p in mesh.vertices:
            z = p[2] if mesh.dim == 3 else 0.0
            fh.write(f"{p[0]:.17g} {p[1]:.17g} {z:.17g}\n")
        fh.write(f"CELLS {mesh.num_cells} {mesh.num_cells * (k + 1)}\n")
        for c in mesh.cells:
            fh.write(str(k) + " " + " ".join(str(v) for v in c) + "\n")
        fh.write(f"CELL_TYPES {mesh.num_cells}\n")
        vt = _VTK_TYPE[mesh.cell_kind]
        for _ in range(mesh.num_cells):
            fh.write(f"{vt}\n")
        if point_fields:
            fh.write(f"POINT_DATA {mesh.num_vertices}\n")
            for name, arr in point_fields.items():
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                fh.write("\n".join(f"{x:.17g}" for x in arr) + "\n")
        if cell_fields:
            fh.write(f"CELL_DATA {mesh.num_cells}\n")
            for name, arr in cell_fields.items():
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                fh.write("\n".join(f"{x:.17g}" for x in arr) + "\n")


def write_csv(path, header, rows):
    """Comma-separated metrics table with a header row and '.' decimals."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{x:.12g}" if isinstance(x, float) else x for x in row])


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def _tag_rectangle(mesh, lo, hi):
    """Tag rectangle boundary edges: bottom=1, right=2, top=3, left=4."""
    x, y = mesh.vertices[mesh.boundary_facets].mean(axis=1).T
    tol = 1e-12
    mesh.boundary_tags = _frozen(np.select(
        [np.abs(y - lo[1]) < tol, np.abs(x - hi[0]) < tol,
         np.abs(y - hi[1]) < tol, np.abs(x - lo[0]) < tol],
        [BOTTOM, RIGHT, TOP, LEFT], 0))
    return mesh


def _grid_vertices(nx, ny, lo, hi):
    xs = np.linspace(lo[0], hi[0], nx + 1)
    ys = np.linspace(lo[1], hi[1], ny + 1)
    X, Y = np.meshgrid(xs, ys)  # vertex (i, j) at flat index j*(nx+1)+i
    return np.column_stack([X.ravel(), Y.ravel()])


def _grid_boxes(nx, ny):
    """Column index and corners a, b, c, d (counterclockwise from the lower
    left) of every grid box, row by row."""
    j, i = np.divmod(np.arange(nx * ny), nx)
    a = j * (nx + 1) + i
    return i, a, a + 1, a + nx + 2, a + nx + 1


def gen_structured_tri(nx, ny):
    """Uniform grid of the unit square, every box split by the same '/'
    diagonal.

    Interior vertices end up with exactly 6 incident triangles, two ring
    neighbours horizontally aligned and two vertically aligned; the mesh is
    layered in uniform horizontal bands.
    """
    if nx < 1 or ny < 1:
        raise MeshError("nx, ny must be >= 1")
    lo, hi = (0.0, 0.0), (1.0, 1.0)
    _, a, b, c, d = _grid_boxes(nx, ny)
    cells = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    mesh = Mesh(2, TRIANGLE, _grid_vertices(nx, ny, lo, hi), cells)
    return _tag_rectangle(mesh, lo, hi)


def gen_zigzag(nx, ny):
    """Herringbone mesh of the unit square: x-structured, y-unstructured.

    Grid quads are split by diagonals whose direction alternates per column,
    and every non-corner vertex off the top/bottom boundary is displaced
    vertically by +-dy/4 with sign alternating per column.  Each interior
    vertex keeps exactly two vertically aligned neighbours (so a vertical
    line splits its macro-element) while no ring vertex is horizontally
    aligned with it.  The fully interior macro-elements are centrally
    symmetric hexagons with pairwise equal areas.
    """
    if nx < 2 or ny < 2:
        raise MeshError("nx, ny must be >= 2")
    lo, hi = (0.0, 0.0), (1.0, 1.0)
    verts = _grid_vertices(nx, ny, lo, hi)
    dy = 1.0 / ny
    delta = 0.25 * dy
    shift = np.where(np.arange(nx + 1) % 2 == 0, delta, -delta)
    verts.reshape(ny + 1, nx + 1, 2)[1:ny, :, 1] += shift

    i, a, b, c, d = _grid_boxes(nx, ny)
    cells = np.where((i % 2 == 0)[:, None],
                     np.stack([a, b, c, a, c, d], axis=1),
                     np.stack([a, b, d, b, c, d], axis=1)).reshape(-1, 3)
    return _tag_rectangle(Mesh(2, TRIANGLE, verts, cells), lo, hi)


def gen_perturbed(base, amplitude, seed):
    """Displace interior vertices in x by uniform(-amplitude, amplitude).

    Boundary vertices are fixed.  A displacement that would shrink any
    incident cell below 10% of its measure is halved until the mesh stays
    valid (Mesh.safe_move), so the result is always positively oriented.
    Deterministic for a given seed.
    """
    require_triangles(base, "gen_perturbed")
    if amplitude < 0:
        raise MeshError("amplitude must be >= 0")
    rng = np.random.default_rng(seed)
    interior = base.interior_vertices()
    disp = np.zeros(base.num_vertices)
    disp[interior] = rng.uniform(-amplitude, amplitude, size=len(interior))
    verts = base.vertices.copy()
    # a move reads the vertex's cells only, so waves reproduce the
    # ascending per-vertex order exactly
    for wave in base.interior_waves:
        base.safe_move(verts, wave, 0, disp[wave])
    return base.replace_vertices(verts)


def gen_extruded_tet(base2d, layers, height=1.0):
    """Extrude a triangular mesh into `layers` uniform tet layers.

    Each prism is cut into 3 tetrahedra with diagonals fixed by global vertex
    order, which makes the splits agree across neighbouring prisms.  The
    result is z-structured by construction and inherits x/y structure from
    the base mesh.
    """
    require_triangles(base2d, "gen_extruded_tet")
    if layers < 1:
        raise MeshError("layers must be >= 1")
    nv = base2d.num_vertices
    zs = np.linspace(0.0, height, layers + 1)
    verts = np.vstack([
        np.column_stack([base2d.vertices, np.full(nv, z)]) for z in zs])

    # prism corners a0 b0 c0 a1 b1 c1 (a < b < c) per layer and base cell
    lower = np.sort(base2d.cells, axis=1) + nv * np.arange(layers)[:, None, None]
    prisms = np.concatenate([lower, lower + nv], axis=2)
    cells = prisms[:, :, [[0, 1, 2, 5], [0, 1, 5, 4], [0, 4, 5, 3]]]
    mesh = Mesh(3, TETRAHEDRON, verts, cells.reshape(-1, 4))
    z = verts[mesh.boundary_facets, 2]
    mesh.boundary_tags = _frozen(np.where(
        np.all(np.abs(z) < 1e-12, axis=1), BOTTOM,
        np.where(np.all(np.abs(z - height) < 1e-12, axis=1), TOP, RIGHT)))
    return mesh


def gen_structured_cube(nx, ny, nz):
    """Unit cube split into nx*ny*nz hexahedra, each cut into 6 Kuhn
    tetrahedra.

    All tets in a hexahedron share its main diagonal; the pattern is
    translation invariant, hence conforming across hexahedra.
    """
    if nx < 1 or ny < 1 or nz < 1:
        raise MeshError("nx, ny, nz must be >= 1")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    zs = np.linspace(0.0, 1.0, nz + 1)
    Z, Y, X = np.meshgrid(zs, ys, xs, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    # vertex (i, j, k) sits at flat index i + j*(nx+1) + k*(nx+1)*(ny+1)
    stride = np.array([1, nx + 1, (nx + 1) * (ny + 1)])
    k, j, i = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx),
                          indexing="ij")
    corner = (i * stride[0] + j * stride[1] + k * stride[2]).ravel()
    # unit steps along the 6 monotone paths from (0,0,0) to (1,1,1)
    paths = np.array([
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
        ((0, 0, 1), (1, 0, 0), (0, 1, 0)), ((0, 0, 1), (0, 1, 0), (1, 0, 0))])
    offsets = np.cumsum(paths @ stride, axis=1)
    tets = np.concatenate([np.zeros((6, 1), dtype=np.int64), offsets], axis=1)
    return Mesh(3, TETRAHEDRON, verts, (corner[:, None, None] + tets).reshape(-1, 4))


def gen_quad_macro(widths=(1.0, 1.0), heights=(1.0, 1.0)):
    """2x2 rectangle macro-element with the shared vertex at the origin."""
    w1, w2 = widths
    h1, h2 = heights
    if min(w1, w2, h1, h2) <= 0:
        raise MeshError("widths and heights must be positive")
    xs = [-w1, 0.0, w2]
    ys = [-h1, 0.0, h2]
    verts = np.array([(x, y) for y in ys for x in xs])
    cells = np.stack(_grid_boxes(2, 2)[1:], axis=1)
    mesh = Mesh(2, QUADRILATERAL, verts, cells)
    return _tag_rectangle(mesh, (-w1, -h1), (w2, h2))
