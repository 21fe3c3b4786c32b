import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokestab.mesh import (
    Mesh, MeshError, StokestabError, TOP, BOTTOM, LEFT, RIGHT,
    load_msh, save_msh, save_vtk,
    gen_structured_tri, gen_zigzag, gen_perturbed,
    gen_extruded_tet, gen_structured_cube, gen_quad_macro, _tag_rectangle,
    kept_on_mesh,
)
from stokestab.scenarios import decay_family_mesh, unstructured_family_mesh
from stokestab.unstructure import UnstructureConfig, apply_algorithm1

from stars import ccw_ring

TWO_TRI_MSH = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
6
1 1 2 1 1 1 2
2 1 2 2 2 2 3
3 1 2 3 3 3 4
4 1 2 4 4 4 1
5 2 2 0 0 1 2 3
6 2 2 0 0 1 3 4
$EndElements
"""


def unit_square_two_tri():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    cells = [(0, 1, 2), (0, 2, 3)]
    return Mesh(2, "triangle", verts, cells)


def test_load_msh_two_triangles(tmp_path):
    p = tmp_path / "sq.msh"
    p.write_text(TWO_TRI_MSH)
    mesh = load_msh(p)
    assert mesh.dim == 2
    assert mesh.num_vertices == 4
    assert mesh.num_cells == 2
    assert mesh.cell_kind == "triangle"
    assert sorted(mesh.boundary_tags.tolist()) == [1, 2, 3, 4]


def test_load_msh_rejects_other_versions(tmp_path):
    p = tmp_path / "bad.msh"
    p.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
    with pytest.raises(MeshError, match="2.2"):
        load_msh(p)


@pytest.mark.parametrize("text", ["$MeshFormat\n", "$MeshFormat",
                                  "\n\n$MeshFormat\n"])
def test_load_msh_file_ending_after_the_format_marker(tmp_path, text):
    p = tmp_path / "cut.msh"
    p.write_text(text)
    line = text.count("\n", 0, text.index("$MeshFormat")) + 1
    with pytest.raises(MeshError, match=rf"cut.msh:{line}: missing MSH "
                       r"version after \$MeshFormat$"):
        load_msh(p)


def test_load_msh_parse_error_reports_line(tmp_path):
    p = tmp_path / "bad.msh"
    p.write_text(TWO_TRI_MSH.replace("1 0 0 0", "1 0 0"))
    with pytest.raises(MeshError, match="bad.msh:6"):
        load_msh(p)


def test_nonconforming_rejected_with_cell_pair():
    verts = [(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)]
    cells = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]  # edge (0,1) shared three times
    with pytest.raises(MeshError, match="shared by cells"):
        Mesh(2, "triangle", verts, cells)


def test_msh_round_trip(tmp_path):
    mesh = gen_zigzag(5, 4)
    p = tmp_path / "zz.msh"
    save_msh(mesh, p)
    back = load_msh(p)
    assert back.num_vertices == mesh.num_vertices
    assert back.num_cells == mesh.num_cells
    assert np.allclose(back.vertices, mesh.vertices, rtol=0, atol=1e-12)
    # cells equal as sets of vertex sets (orientation fix may reorder)
    a = {tuple(sorted(c)) for c in mesh.cells}
    b = {tuple(sorted(c)) for c in back.cells}
    assert a == b
    assert np.array_equal(back.boundary_facets, mesh.boundary_facets)
    assert np.array_equal(back.boundary_tags, mesh.boundary_tags)


def test_msh_round_trip_tets(tmp_path):
    mesh = gen_extruded_tet(unit_square_two_tri(), 2, 1.0)
    p = tmp_path / "tet.msh"
    save_msh(mesh, p)
    back = load_msh(p)
    assert back.cell_kind == "tetrahedron"
    assert back.num_cells == mesh.num_cells
    assert np.allclose(back.vertices, mesh.vertices, atol=1e-12)


def _reference_msh_text(mesh):
    """save_msh as a per-line writer: the format the bulk writer keeps."""
    out = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes",
           str(mesh.num_vertices)]
    for i, p in enumerate(mesh.vertices):
        z = p[2] if mesh.dim == 3 else 0.0
        out.append(f"{i + 1} {p[0]:.17g} {p[1]:.17g} {z:.17g}")
    out += ["$EndNodes", "$Elements",
            str(len(mesh.boundary_facets) + mesh.num_cells)]
    eid = 1
    ft = {"triangle": 1, "quadrilateral": 1, "tetrahedron": 2}[mesh.cell_kind]
    for f, tag in zip(mesh.boundary_facets.tolist(),
                      mesh.boundary_tags.tolist()):
        out.append(f"{eid} {ft} 2 {tag} {tag} "
                   + " ".join(str(v + 1) for v in f))
        eid += 1
    ct = {"triangle": 2, "quadrilateral": 3, "tetrahedron": 4}[mesh.cell_kind]
    for c in mesh.cells:
        out.append(f"{eid} {ct} 2 0 0 " + " ".join(str(v + 1) for v in c))
        eid += 1
    out.append("$EndElements")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("make", [
    lambda: gen_perturbed(gen_structured_tri(12, 9), 0.3 / 12, 4),
    lambda: gen_quad_macro((0.5, 1.5), (2.0, 0.25)),
    lambda: gen_extruded_tet(gen_perturbed(gen_zigzag(4, 3), 0.05, 1), 2),
    lambda: Mesh(2, "triangle", unit_square_two_tri().vertices,
                 unit_square_two_tri().cells, boundary_facets=[]),
], ids=["triangle", "quadrilateral", "tetrahedron", "no-boundary-facets"])
def test_save_msh_matches_per_line_writer(tmp_path, make):
    mesh = make()
    p = tmp_path / "m.msh"
    save_msh(mesh, p)
    assert p.read_bytes() == _reference_msh_text(mesh).encode()
    back = load_msh(p)
    assert back.vertices.tobytes() == mesh.vertices.tobytes()
    assert np.array_equal(back.cells, mesh.cells)
    assert np.array_equal(back.boundary_facets, mesh.boundary_facets)
    assert np.array_equal(back.boundary_tags, mesh.boundary_tags)


@pytest.fixture(scope="module")
def msh64_lines(tmp_path_factory):
    p = tmp_path_factory.mktemp("msh") / "grid.msh"
    save_msh(gen_perturbed(gen_structured_tri(64, 64), 0.3 / 64, 2), p)
    return p.read_text().splitlines()


def _load_edited(tmp_path, lines, line_no, text):
    """load_msh of `lines` with 1-based line `line_no` replaced by text."""
    lines = list(lines)
    lines[line_no - 1] = text
    p = tmp_path / "edited.msh"
    p.write_text("\n".join(lines) + "\n")
    return load_msh(p)


@pytest.mark.parametrize("where, text, message", [
    ("node", "3000 0.5 0.25", "expected 'id x y z'"),
    ("node", "3000 0.5 0.25 0 1", "expected 'id x y z'"),
    ("node", "3000 0.5 x 0", "expected 'id x y z'"),
    ("node", "3000.0 0.5 0.25 0", "expected 'id x y z'"),
    ("node", "", "expected 'id x y z'"),
    ("element", "7000 2 2 0 0 1 x 3", "malformed element record"),
    ("element", "7000 2.0 2 0 0 1 2 3", "malformed element record"),
    ("element", "7000 2", "malformed element record"),
])
def test_load_msh_names_the_bad_line_deep_in_a_large_file(
        tmp_path, msh64_lines, where, text, message):
    start = msh64_lines.index("$Nodes" if where == "node" else "$Elements")
    line_no = start + 3 + {"node": 2999, "element": 6999}[where]
    with pytest.raises(MeshError, match=f"edited.msh:{line_no}: {message}"):
        _load_edited(tmp_path, msh64_lines, line_no, text)


@pytest.mark.parametrize("text", ["7000 2 2 0", "7000 2 6 0 0 1 2 3",
                                  "7000 2 -1 0 0 1 2 3"])
def test_load_msh_rejects_tag_counts_beyond_the_record(
        tmp_path, msh64_lines, text):
    # a tag count must leave 0 <= ntags <= (fields after it) in the record
    line_no = msh64_lines.index("$Elements") + 3 + 6999
    message = f"edited.msh:{line_no}: malformed element record"
    with pytest.raises(MeshError, match=message):
        _load_edited(tmp_path, msh64_lines, line_no, text)


def test_load_msh_element_with_unknown_node(tmp_path, msh64_lines):
    line_no = msh64_lines.index("$Elements") + 3 + 6999
    with pytest.raises(MeshError, match="unknown node 99999$"):
        _load_edited(tmp_path, msh64_lines, line_no, "7000 2 2 0 0 1 99999 3")


def test_load_msh_rejects_negative_counts(tmp_path, msh64_lines):
    # a count of -3 or less used to send the section scan into a loop
    line_no = msh64_lines.index("$Nodes") + 2
    message = f"edited.msh:{line_no}: bad node count"
    with pytest.raises(MeshError, match=message):
        _load_edited(tmp_path, msh64_lines, line_no, "-3")


def test_load_msh_reads_unordered_sparse_node_ids(tmp_path):
    # ids in file order 10, 30, 20, 40, 30: a repeated id keeps its last
    # record, and vertices follow ascending ids
    nodes = "5\n10 0 0 0\n30 9 9 0\n20 1 0 0\n40 0 1 0\n30 1 1 0\n"
    elements = ("6\n1 1 2 1 1 10 20\n2 1 2 2 2 20 30\n3 1 2 3 3 30 40\n"
                "4 1 2 4 4 40 10\n5 2 2 0 0 10 20 30\n6 2 2 0 0 10 30 40\n")
    p = tmp_path / "sparse.msh"
    p.write_text(f"$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n{nodes}"
                 f"$EndNodes\n$Elements\n{elements}$EndElements\n")
    mesh = load_msh(p)
    assert mesh.vertices.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert mesh.cells.tolist() == [[0, 1, 2], [0, 2, 3]]
    # the facet records (3, 0) and the rest tag the derived boundary rows
    assert mesh.boundary_facets.tolist() == [[0, 1], [1, 2], [2, 3], [0, 3]]
    assert mesh.boundary_tags.tolist() == [1, 2, 3, 4]


def _parse_vtk_points(path):
    lines = path.read_text().splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("POINTS"))
    n = int(lines[i].split()[1])
    pts = [tuple(float(x) for x in lines[i + 1 + k].split()) for k in range(n)]
    return np.array(pts)


def test_save_vtk_fields_and_round_trip(tmp_path):
    mesh = gen_structured_tri(3, 1)
    p = tmp_path / "out.vtk"
    pressure = np.arange(mesh.num_vertices, dtype=float) * np.pi
    cellf = np.arange(mesh.num_cells, dtype=float)
    save_vtk(mesh, {"pressure": pressure, "marker": cellf}, p)
    text = p.read_text()
    assert "POINT_DATA" in text
    assert "CELL_DATA" in text
    assert "SCALARS pressure" in text
    pts = _parse_vtk_points(p)
    assert np.allclose(pts[:, :2], mesh.vertices, rtol=0, atol=1e-12)


def test_save_vtk_geometry_only(tmp_path):
    mesh = gen_structured_tri(2, 2)
    p = tmp_path / "geo.vtk"
    save_vtk(mesh, {}, p)
    text = p.read_text()
    assert "POINT_DATA" not in text
    assert "CELL_TYPES" in text


def test_save_vtk_length_mismatch(tmp_path):
    mesh = gen_structured_tri(2, 2)
    with pytest.raises(MeshError, match="length"):
        save_vtk(mesh, {"bad": np.zeros(3)}, tmp_path / "x.vtk")


def test_structured_tri_counts():
    mesh = gen_structured_tri(4, 3)
    assert mesh.num_vertices == 20
    assert mesh.num_cells == 24
    ys = np.unique(np.round(mesh.vertices[:, 1], 12))
    assert np.allclose(ys, [0, 1 / 3, 2 / 3, 1.0])
    assert len(mesh.interior_vertices()) == 3 * 2
    # a hanging vertex would add boundary facets
    assert len(mesh.boundary_facets) == 2 * (4 + 3)


def test_structured_tri_single_cell_pair():
    mesh = gen_structured_tri(1, 1)
    assert mesh.num_cells == 2


def test_structured_tri_interior_valence():
    mesh = gen_structured_tri(5, 4)
    counts = np.zeros(mesh.num_vertices, dtype=int)
    for cell in mesh.cells:
        counts[list(cell)] += 1
    interior = mesh.interior_vertices()
    assert len(interior) == 4 * 3
    assert np.all(counts[interior] == 6)


def test_zigzag_smallest_case():
    mesh = gen_zigzag(2, 2)
    assert mesh.num_cells == 8
    assert len(mesh.interior_vertices()) == 1
    assert len(mesh.boundary_facets) == 2 * (2 + 2)


def test_hanging_vertex_shows_in_the_boundary_count():
    # the unit square with a vertex hanging on the diagonal of one cell:
    # conforming facet by facet, so the constructor takes it, but the
    # diagonal's two halves and the whole diagonal each bound one cell
    mesh = Mesh(2, "triangle", [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)],
                [(0, 1, 2), (0, 4, 3), (4, 2, 3)])
    assert len(mesh.boundary_facets) == 7    # the unit square has 2 * (1 + 1)


def test_zigzag_15x15_size():
    mesh = gen_zigzag(15, 15)
    h = mesh.metrics().h
    # cells live in 1/15-size grid boxes stretched by the +-dy/4 shifts
    assert 1 / 15 < h < 2 / 15
    assert mesh.metrics().min_area > 0


def test_zigzag_no_horizontal_alignment_interior():
    mesh = gen_zigzag(6, 6)
    v = mesh.vertices
    adj = {}
    for cell in mesh.cells:
        c = [int(x) for x in cell]
        for i in range(3):
            a, b = c[i], c[(i + 1) % 3]
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    for q0 in mesh.interior_vertices():
        dys = [abs(v[q][1] - v[q0][1]) for q in adj[int(q0)]]
        aligned = sum(1 for d in dys if d < 1e-12)
        assert aligned == 0
        vert = sum(1 for q in adj[int(q0)] if abs(v[q][0] - v[q0][0]) < 1e-12)
        assert vert == 2


def test_perturbed_zero_amplitude_identity():
    base = gen_zigzag(4, 4)
    out = gen_perturbed(base, 0.0, seed=1)
    assert np.array_equal(out.vertices, base.vertices)


def test_perturbed_deterministic_and_boundary_fixed():
    base = gen_structured_tri(6, 6)
    a = gen_perturbed(base, 0.05, seed=42)
    b = gen_perturbed(base, 0.05, seed=42)
    assert np.array_equal(a.vertices, b.vertices)
    c = gen_perturbed(base, 0.05, seed=43)
    assert not np.array_equal(a.vertices, c.vertices)
    bnd = base.boundary_vertex_mask()
    assert np.array_equal(a.vertices[bnd], base.vertices[bnd])
    iv = base.interior_vertices()
    assert np.array_equal(a.vertices[iv, 1], base.vertices[iv, 1])
    assert np.array_equal(gen_perturbed(base, 0.05, np.int64(42)).vertices,
                          a.vertices)


def test_perturbed_clipping_keeps_positive_cells():
    base = gen_structured_tri(5, 5)
    out = gen_perturbed(base, 10.0, seed=7)  # silly amplitude, must clip
    assert out.cell_measures().min() > 0


@pytest.mark.parametrize("amplitude", [np.nan, np.inf, -np.inf, -0.1,
                                       1e308, np.finfo(float).max])
def test_perturbed_rejects_amplitudes_it_cannot_draw(amplitude):
    # uniform(-a, a) needs 2a finite: 1e308 and the largest float overflow
    with pytest.raises(MeshError, match=re.escape(f"got {amplitude}") + "$"):
        gen_perturbed(gen_zigzag(4, 4), amplitude, seed=1)


def test_perturbed_moves_interior_vertices_along_the_axis_it_is_given():
    base = gen_structured_tri(6, 6)
    iv = base.interior_vertices()
    x = gen_perturbed(base, 0.05, 42)
    assert gen_perturbed(base, 0.05, 42, axis=0).vertices.tobytes() == \
        x.vertices.tobytes()
    y = gen_perturbed(base, 0.05, 42, axis=1)
    bnd = base.boundary_vertex_mask()
    assert np.array_equal(y.vertices[:, 0], base.vertices[:, 0])
    assert np.array_equal(y.vertices[bnd], base.vertices[bnd])
    assert np.any(y.vertices[iv, 1] != base.vertices[iv, 1])


@pytest.mark.parametrize("axis", [2, -1, 1.0, True, "y", None])
def test_perturbed_rejects_an_axis_other_than_0_or_1(axis):
    with pytest.raises(MeshError, match=re.escape(f"got {axis!r}") + "$"):
        gen_perturbed(gen_zigzag(4, 4), 0.05, 1, axis=axis)


@pytest.mark.parametrize("seed", [-3, -1, 2.5, 2.0, None, True, "7"])
def test_perturbed_rejects_seeds_that_are_not_non_negative_integers(seed):
    with pytest.raises(MeshError, match=re.escape(f"got {seed!r}") + "$"):
        gen_perturbed(gen_zigzag(4, 4), 0.05, seed)


@pytest.mark.parametrize("seed", [-1, -50])
def test_unstructured_family_checks_the_seed_it_is_given(seed):
    # level 3 draws with seed + 3, but the seed itself is what is checked
    with pytest.raises(MeshError, match=re.escape(f"got {seed}") + "$"):
        unstructured_family_mesh(3, seed)


@pytest.mark.parametrize("level, seed", [(2, -1), (3, -50), (5, -1)])
def test_decay_family_checks_the_seed_it_is_given(level, seed):
    # level 5 is the grid itself and draws nothing
    with pytest.raises(MeshError, match=re.escape(f"got {seed}") + "$"):
        decay_family_mesh(level, seed)


def test_decay_family_keeps_the_rectangle_tags():
    for level in range(1, 6):
        mesh = decay_family_mesh(level)
        tags = mesh.boundary_tags
        assert np.array_equal(tags, _tag_rectangle(mesh, (0.0, 0.0),
                                                   (1.0, 1.0)).boundary_tags)


@pytest.mark.parametrize("level", [0, 6, -1, 2.0])
def test_decay_family_rejects_levels_outside_1_to_5(level):
    # level 0 used to wrap round to level 5 and level 6 to raise IndexError
    with pytest.raises(StokestabError, match="levels are 1-5"):
        decay_family_mesh(level)


def test_extruded_tet_counts():
    mesh = gen_extruded_tet(unit_square_two_tri(), 1, 1.0)
    assert mesh.num_cells == 6
    assert mesh.cell_kind == "tetrahedron"
    assert np.isclose(mesh.cell_measures().sum(), 1.0)


def test_extruded_tags():
    mesh = gen_extruded_tet(gen_structured_tri(2, 2), 2, 1.0)
    assert {BOTTOM, TOP}.issubset(mesh.boundary_tags.tolist())
    assert np.isclose(mesh.cell_measures().sum(), 1.0)


def test_structured_cube_kuhn():
    mesh = gen_structured_cube(2, 2, 2)
    assert mesh.num_cells == 6 * 8
    assert np.isclose(mesh.cell_measures().sum(), 1.0)
    assert len(mesh.interior_vertices()) == 1


@pytest.mark.parametrize("sizes", [(0, 2, 2), (2, -1, 2), (2, 2, 0)])
def test_structured_cube_rejects_empty_sizes(sizes):
    with pytest.raises(MeshError, match="^nx, ny, nz must be >= 1$"):
        gen_structured_cube(*sizes)


def test_quad_macro():
    mesh = gen_quad_macro()
    assert mesh.num_vertices == 9
    assert mesh.num_cells == 4
    center = np.flatnonzero(np.all(np.abs(mesh.vertices) < 1e-14, axis=1))
    assert len(center) == 1
    assert np.isclose(mesh.cell_measures().sum(), 4.0)


def test_quad_macro_asymmetric():
    mesh = gen_quad_macro((0.5, 1.5), (2.0, 0.25))
    assert np.isclose(mesh.cell_measures().sum(), 2.0 * 2.25)


def test_metrics():
    mesh = gen_structured_tri(2, 2)
    m = mesh.metrics()
    assert np.isclose(m.h, np.sqrt(2) / 2)
    assert np.isclose(m.min_area, 0.125)
    assert m.shape_ratio > 0


def test_generators_conform():
    # the boundary facets cover the domain's boundary once: a gap or a
    # hanging vertex adds facets, and with them length or area
    for mesh, size in [(gen_structured_tri(3, 3), 4.0), (gen_zigzag(4, 3), 4.0),
                       (gen_quad_macro(), 8.0),
                       (gen_structured_cube(1, 1, 1), 6.0)]:
        p = mesh.vertices[mesh.boundary_facets]
        if mesh.dim == 2:
            measure = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
        else:
            measure = 0.5 * np.linalg.norm(
                np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
        assert np.isclose(measure.sum(), size)


def test_mesh_accepts_read_only_cells():
    base = gen_structured_tri(2, 2)
    assert not base.cells.flags.writeable
    again = Mesh(2, "triangle", base.vertices, base.cells)
    assert np.array_equal(again.cells, base.cells)


def test_mesh_orients_a_copy_of_the_cells():
    cells = np.array([[0, 2, 1]], dtype=np.int64)
    mesh = Mesh(2, "triangle", [(0, 0), (1, 0), (0, 1)], cells)
    assert mesh.cells.tolist() == [[0, 1, 2]]
    assert cells.tolist() == [[0, 2, 1]]


def reference_topology(mesh):
    """Per-cell Python scans of the cells: sorted edge set, facet -> cells
    dict (insertion order), vertex -> cells, vertex -> neighbour set, and
    each cell's sorted local edges and facets."""
    edge_set, fmap, v2c, adj = set(), {}, {}, {}
    cell_edges, cell_facets = [], []
    for ci, cell in enumerate(mesh.cells):
        c = [int(v) for v in cell]
        if mesh.cell_kind == "tetrahedron":
            pairs = [(c[i], c[j]) for i in range(4) for j in range(i + 1, 4)]
            facets = [(c[0], c[1], c[2]), (c[0], c[1], c[3]),
                      (c[0], c[2], c[3]), (c[1], c[2], c[3])]
        else:
            pairs = [(c[i], c[(i + 1) % len(c)]) for i in range(len(c))]
            facets = pairs
        for a, b in pairs:
            edge_set.add(tuple(sorted((a, b))))
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        for f in facets:
            fmap.setdefault(tuple(sorted(f)), []).append(ci)
        for v in c:
            v2c.setdefault(v, []).append(ci)
        cell_edges.append([tuple(sorted(p)) for p in pairs])
        cell_facets.append([tuple(sorted(f)) for f in facets])
    return sorted(edge_set), fmap, v2c, adj, cell_edges, cell_facets


TOPOLOGY_MESHES = {
    "structured": lambda: gen_structured_tri(4, 3),
    "zigzag": lambda: gen_zigzag(5, 4),
    "perturbed": lambda: gen_perturbed(gen_structured_tri(5, 5), 0.05, seed=3),
    "extruded-tet": lambda: gen_extruded_tet(gen_zigzag(3, 3), 2, 1.0),
    "kuhn-cube": lambda: gen_structured_cube(2, 2, 2),
    "quad-macro": lambda: gen_quad_macro((0.5, 1.5), (2.0, 0.25)),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGY_MESHES))
def test_topology_matches_reference_scan(name):
    mesh = TOPOLOGY_MESHES[name]()
    edges, fmap, v2c, adj, cell_edges, cell_facets = reference_topology(mesh)
    n = mesh.num_vertices

    assert [tuple(e) for e in mesh.edges().tolist()] == edges
    assert [[tuple(e) for e in mesh.edges()[row].tolist()]
            for row in mesh.cell_edges] == cell_edges
    e = mesh.edges()
    assert mesh.edge_index(e[:, 1], e[:, 0]).tolist() == list(range(len(e)))
    far = min(set(range(1, n)) - adj[0])
    with pytest.raises(MeshError, match="not mesh edges"):
        mesh.edge_index(0, far)

    assert [tuple(f) for f in mesh.boundary_facets.tolist()] == \
        [f for f, cs in fmap.items() if len(cs) == 1]
    assert [tuple(f) for f in mesh.facets.tolist()] == sorted(fmap)
    assert mesh.facet_cells.tolist() == \
        [fmap[f] + [-1] * (2 - len(fmap[f])) for f in sorted(fmap)]
    assert [[tuple(f) for f in mesh.facets[row].tolist()]
            for row in mesh.cell_facets] == cell_facets

    offsets, cells = mesh.vertex_cells
    assert [cells[offsets[v]:offsets[v + 1]].tolist() for v in range(n)] == \
        [v2c.get(v, []) for v in range(n)]
    offsets, nbrs = mesh.vertex_neighbours
    assert [nbrs[offsets[v]:offsets[v + 1]].tolist() for v in range(n)] == \
        [sorted(adj.get(v, ())) for v in range(n)]

    if mesh.dim == 2:
        for v in mesh.interior_vertices():
            nbrs = np.array(sorted(adj[int(v)]))
            rel = mesh.vertices[nbrs] - mesh.vertices[v]
            ang = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2 * np.pi)
            ring, angles = ccw_ring(mesh, v)
            assert ring.tolist() == \
                [w for _, w in sorted(zip(ang.tolist(), nbrs.tolist()))]
            assert angles.tolist() == sorted(ang.tolist())


def _rectangle_tag(lo, hi):
    """The tag of a facet of the rectangle [lo, hi] from its midpoint."""
    def tag(points):
        x, y = points.mean(axis=0)
        for off, t in [(y - lo[1], BOTTOM), (x - hi[0], RIGHT),
                       (y - hi[1], TOP), (x - lo[0], LEFT)]:
            if abs(off) < 1e-12:
                return t
        return 0
    return tag


def _layer_tag(height):
    """The tag of a facet of a mesh extruded to `height`."""
    def tag(points):
        z = points[:, 2]
        if np.all(np.abs(z) < 1e-12):
            return BOTTOM
        return TOP if np.all(np.abs(z - height) < 1e-12) else RIGHT
    return tag


def _untagged(points):
    return 0


UNIT = _rectangle_tag((0, 0), (1, 1))
BOUNDARY_MESHES = {
    "structured": (lambda: gen_structured_tri(4, 3), UNIT),
    "zigzag": (lambda: gen_zigzag(5, 4), UNIT),
    "perturbed": (lambda: gen_perturbed(gen_structured_tri(5, 5), 0.05, 3),
                  UNIT),
    "quad-macro": (lambda: gen_quad_macro((0.5, 1.5), (2.0, 0.25)),
                   _rectangle_tag((-0.5, -2.0), (1.5, 0.25))),
    "extruded-tet": (lambda: gen_extruded_tet(gen_zigzag(3, 3), 2, 1.5),
                     _layer_tag(1.5)),
    "kuhn-cube": (lambda: gen_structured_cube(2, 3, 2), _untagged),
    "unstructured-family": (lambda: unstructured_family_mesh(3), UNIT),
    "decay-family": (lambda: decay_family_mesh(1), UNIT),
    "extruded-repaired": (lambda: gen_extruded_tet(apply_algorithm1(
        unstructured_family_mesh(3), UnstructureConfig(r=0.15, axis="x")),
        4, 1.0), _layer_tag(1.0)),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_MESHES))
def test_boundary_rows_match_the_per_facet_reference(name):
    make, tag = BOUNDARY_MESHES[name]
    mesh = make()
    fmap = reference_topology(mesh)[1]
    want = [(f, tag(mesh.vertices[list(f)])) for f, cs in fmap.items()
            if len(cs) == 1]
    got = list(zip(map(tuple, mesh.boundary_facets.tolist()),
                   mesh.boundary_tags.tolist()))
    assert got == want
    for a in (mesh.boundary_facets, mesh.boundary_tags):
        assert a.dtype == np.int64 and not a.flags.writeable


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_given_facets_only_tag_the_derived_boundary(tmp_path_factory, data):
    n = data.draw(st.integers(2, 5), label="n")
    mesh = gen_perturbed(gen_structured_tri(n, n + 1), 0.2 / n,
                         data.draw(st.integers(0, 99), label="seed"))
    layers = data.draw(st.integers(0, 2), label="layers")
    if layers:
        mesh = gen_extruded_tet(mesh, layers)
    nb = len(mesh.boundary_facets)
    # a shuffled selection of the facets, some listed twice, vertices
    # reversed, with tags of their own
    picks = data.draw(st.lists(st.integers(0, nb - 1), max_size=nb + 5),
                      label="picks")
    tags = data.draw(st.lists(st.integers(-2, 9), min_size=len(picks),
                              max_size=len(picks)), label="tags")
    out = Mesh(mesh.dim, mesh.cell_kind, mesh.vertices, mesh.cells,
               mesh.boundary_facets[picks][:, ::-1], tags)
    want = [0] * nb
    for i, t in zip(picks, tags):
        want[i] = t
    assert np.array_equal(out.boundary_facets, mesh.boundary_facets)
    assert out.boundary_tags.tolist() == want

    p = tmp_path_factory.mktemp("tagged") / "m.msh"
    save_msh(out, p)
    back = load_msh(p)
    assert back.vertices.tobytes() == out.vertices.tobytes()
    assert np.array_equal(back.cells, out.cells)
    assert np.array_equal(back.boundary_facets, out.boundary_facets)
    assert np.array_equal(back.boundary_tags, out.boundary_tags)


def _counting_passes(calls):
    """Two kept passes that record each build and return their count."""
    @kept_on_mesh
    def first(mesh, key):
        calls.append(("first", key))
        return len(calls)

    @kept_on_mesh
    def second(mesh, key):
        calls.append(("second", key))
        return len(calls)

    return first, second


def test_derived_data_is_built_once_per_mesh():
    calls = []
    first, _ = _counting_passes(calls)
    mesh = gen_structured_tri(2, 2)
    assert first(mesh, "k") == 1
    assert first(mesh, "k") == 1
    assert first(mesh, "other") == 2
    assert first(gen_structured_tri(2, 2), "k") == 3  # an equal mesh
    assert calls == [("first", "k"), ("first", "other"), ("first", "k")]
    assert first.__name__ == "first" and first.build is not first


def test_kept_passes_with_equal_arguments_keep_separate_entries():
    calls = []
    first, second = _counting_passes(calls)
    mesh = gen_structured_tri(2, 2)
    assert (first(mesh, 0), second(mesh, 0)) == (1, 2)
    assert (first(mesh, 0), second(mesh, 0)) == (1, 2)
    assert calls == [("first", 0), ("second", 0)]


def test_a_replaced_mesh_starts_with_nothing_kept():
    calls = []
    first, _ = _counting_passes(calls)
    mesh = gen_structured_tri(2, 2)
    assert first(mesh, "k") == 1
    # the same cells, and (mirrored) cells turned over and built anew
    for coords in (mesh.vertices * 2.0, mesh.vertices * [-1.0, 1.0]):
        moved = mesh.replace_vertices(coords)
        assert first(moved, "k") == len(calls)
        assert first(moved, "k") == len(calls)
    assert calls == [("first", "k")] * 3
    assert first(mesh, "k") == 1


def test_a_build_that_raises_is_retried_on_the_next_call():
    calls = []

    @kept_on_mesh
    def flaky(mesh):
        calls.append(1)
        if len(calls) == 1:
            raise MeshError("first build fails")
        return len(calls)

    mesh = gen_structured_tri(2, 2)
    with pytest.raises(MeshError, match="first build fails"):
        flaky(mesh)
    assert flaky(mesh) == 2
    assert flaky(mesh) == 2
    assert len(calls) == 2


def test_ragged_boundary_facet_is_a_mesh_error():
    base = gen_structured_tri(2, 2)
    with pytest.raises(MeshError, match=r"boundary facet \(0, 1, 4\) has 3"):
        Mesh(2, "triangle", base.vertices, base.cells, [(0, 1, 4)])
    with pytest.raises(MeshError, match="malformed mesh array"):
        Mesh(2, "triangle", base.vertices, base.cells, [(0, 1), (0, 1, 4)])
    # (0, 11) has the facet key of the boundary edge (1, 2) on 9 vertices
    facets = base.boundary_facets.copy()
    facets[2] = (0, 11)
    with pytest.raises(MeshError, match=r"\(0, 11\) has a vertex index out"):
        Mesh(2, "triangle", base.vertices, base.cells, facets)
    # the interior edge (0, 4)
    with pytest.raises(MeshError, match=r"boundary facet \(4, 0\) does not "
                                        "bound exactly one cell"):
        Mesh(2, "triangle", base.vertices, base.cells, [(0, 1), (4, 0)])
    with pytest.raises(MeshError, match="malformed mesh array"):
        Mesh(2, "triangle", base.vertices, base.cells, [(0, 1)], [1, 2])


def test_load_msh_rejects_a_line_element_with_three_nodes(tmp_path):
    p = tmp_path / "ragged.msh"
    p.write_text(TWO_TRI_MSH.replace("\n1 1 2 1 1 1 2\n", "\n1 1 2 1 1 1 2 3\n"))
    with pytest.raises(MeshError, match=r"boundary facet \(0, 1, 2\) has 3"):
        load_msh(p)


def test_load_msh_rejects_a_triangle_element_with_four_nodes(tmp_path):
    p = tmp_path / "ragged.msh"
    p.write_text(TWO_TRI_MSH.replace("\n6 2 2 0 0 1 3 4\n",
                                     "\n6 2 2 0 0 1 3 4 2\n"))
    with pytest.raises(MeshError, match=r"ragged.msh: cell \(0, 2, 3, 1\) has "
                                        "4 vertices; triangle cells have 3"):
        load_msh(p)


def test_boundary_vertex_mask_matches_per_facet_loop():
    def reference(mesh):
        mask = np.zeros(mesh.num_vertices, dtype=bool)
        for f in mesh.boundary_facets.tolist():
            mask[f] = True
        return mask

    base = gen_zigzag(4, 3)
    # a subset of the facets only tags the boundary; it stays complete
    subset = Mesh(2, "triangle", base.vertices, base.cells,
                  base.boundary_facets[::3], base.boundary_tags[::3])
    for mesh in [*(make() for make in TOPOLOGY_MESHES.values()), subset]:
        assert np.array_equal(mesh.boundary_vertex_mask(), reference(mesh))
    assert np.array_equal(reference(subset), reference(base))


def _cached_topology(mesh):
    arrays = {"cells": mesh.cells, "vertex_cells": mesh.vertex_cells,
              "vertex_neighbours": mesh.vertex_neighbours,
              "interior_waves": mesh.interior_waves}
    for name in ("_facet_topology", "_edge_topology"):
        arrays.update({f"{name}.{k}": v for k, v in
                       getattr(mesh, name)._asdict().items()})
    return arrays


@pytest.mark.parametrize("flip", [False, True])
def test_replace_vertices_topology_equals_a_fresh_mesh(flip):
    base = gen_perturbed(gen_structured_tri(6, 5), 0.05, seed=2)
    _cached_topology(base)
    moved = base.vertices * 1.5
    if flip:  # a mirror image turns every cell over
        moved[:, 0] *= -1
    out = base.replace_vertices(moved)
    fresh = Mesh(2, "triangle", moved, base.cells, base.boundary_facets,
                 base.boundary_tags)
    assert (out._facet_topology is base._facet_topology) is not flip
    assert np.array_equal(out.boundary_facets, fresh.boundary_facets)
    assert np.array_equal(out.boundary_tags, fresh.boundary_tags)

    def tag_of(mesh):
        return dict(zip(map(tuple, mesh.boundary_facets.tolist()),
                        mesh.boundary_tags.tolist()))

    assert tag_of(out) == tag_of(base)
    got, want = _cached_topology(out), _cached_topology(fresh)
    assert got.keys() == want.keys()
    for key in want:
        assert len(got[key]) == len(want[key]), key
        for a, b in zip(got[key], want[key]):
            assert np.array_equal(a, b), key


def test_replace_vertices_still_rejects_bad_coordinates():
    base = gen_structured_tri(2, 2)
    flat = base.vertices.copy()
    flat[:, 1] = 0.0
    with pytest.raises(MeshError, match="degenerate cell"):
        base.replace_vertices(flat)
    # two triangles apart, then translated onto a shared corner point
    apart = Mesh(2, "triangle", [(0, 0), (1, 0), (0, 1), (-0.5, -0.5),
                                 (-1.5, -0.5), (-0.5, -1.5)],
                 [(0, 1, 2), (3, 4, 5)])
    touching = apart.vertices.copy()
    touching[3:] += 0.5
    with pytest.raises(MeshError, match="duplicate vertex coordinates at "
                                        "indices 0 and 3"):
        apart.replace_vertices(touching)


def test_vertex_of_no_cell_is_a_mesh_error():
    base = gen_structured_tri(2, 2)
    verts = np.vstack([base.vertices, [(0.5, 2.0)]])
    with pytest.raises(MeshError, match="^vertex 9 belongs to no cell$"):
        Mesh(2, "triangle", verts, base.cells)
