import dataclasses
import itertools
import math

import numpy as np
import pytest
from helpers_mesh import (
    INITIAL_MESHES,
    between_ids,
    draw_branches,
    draw_marking,
    off_grid,
    write_mesh_per_line,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from triafem import mesh as mesh_module
from triafem.driver import run_afem
from triafem.mesh import (
    Mesh,
    MeshError,
    _close,
    _reject_overlaps,
    audit_refinement,
    closure_audit,
    load_initial_mesh,
    lshape_mesh,
    overlay,
    refine_nvb,
    shape_regularity,
    uniform_refine,
    unit_square_mesh,
    write_mesh,
)
from triafem.problems import builtin_problem

SQUARE_VERTICES = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
SQUARE_TRIANGLES = [(0, 1, 2), (0, 2, 3)]


def single_triangle():
    return load_initial_mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])


def test_unit_square_counts():
    mesh = unit_square_mesh()
    assert mesh.n_vertices == 4
    assert mesh.n_elements == 2
    mesh.validate()


def test_lshape_counts():
    mesh = lshape_mesh()
    assert mesh.n_vertices == 8
    assert mesh.n_elements == 6
    assert mesh.areas.sum() == pytest.approx(3.0)
    mesh.validate()


def test_duplicated_triangle_rejected():
    with pytest.raises(MeshError, match="duplicated"):
        load_initial_mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2), (0, 2, 1)])


def test_zero_area_rejected():
    with pytest.raises(MeshError, match="degenerate"):
        load_initial_mesh([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [(0, 1, 2)])


def test_overused_edge_rejected():
    vertices = SQUARE_VERTICES + [(2.0, 0.5)]
    with pytest.raises(MeshError, match="non-conforming"):
        load_initial_mesh(vertices, [(0, 1, 2), (0, 2, 3), (0, 2, 4)])


def test_unused_vertex_rejected():
    with pytest.raises(MeshError, match="unused"):
        load_initial_mesh(SQUARE_VERTICES + [(5.0, 5.0)], SQUARE_TRIANGLES)


def test_repeated_vertex_coordinates_rejected():
    # the unit square cut along its diagonal, with the corner (1, 1) given
    # twice, so that no vertex is interior
    with pytest.raises(MeshError, match="repeated vertex coordinates"):
        load_initial_mesh(SQUARE_VERTICES + [(1.0, 1.0)], [(0, 1, 2), (0, 4, 3)])


def test_folded_triangles_rejected():
    # the third triangle covers the other two and lies on their side of the
    # edge (0, 1): a total area of 1.5 over the unit square
    vertices = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    with pytest.raises(MeshError, match="folded"):
        load_initial_mesh(vertices, [(0, 1, 2), (1, 3, 2), (0, 1, 3)])


def test_overlapping_triangles_without_a_shared_vertex_rejected():
    # the second triangle lies inside the first: a total area of 2.125 over
    # a domain of area 2, and no edge or vertex is shared
    vertices = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (0.5, 0.25), (1.0, 0.25), (0.5, 0.75)]
    with pytest.raises(MeshError, match="vertex 3 lies in triangle 0"):
        load_initial_mesh(vertices, [(0, 1, 2), (3, 4, 5)])


def test_hanging_node_rejected():
    # vertex 4 is the midpoint of the edge (0, 1) of the upper triangle,
    # which the two lower triangles split: all five vertices on the boundary
    vertices = [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (1.0, -1.0), (1.0, 0.0)]
    with pytest.raises(MeshError, match="vertex 4 lies in triangle 0"):
        load_initial_mesh(vertices, [(0, 1, 2), (0, 4, 3), (4, 1, 3)])


def test_crossing_edges_rejected():
    # a hexagram: no vertex lies in the other triangle, but the edges cross
    r = math.sqrt(3.0)
    vertices = [(0.0, 0.0), (2.0, 0.0), (1.0, r), (0.0, 2.0 / r), (2.0, 2.0 / r), (1.0, -1.0 / r)]
    with pytest.raises(MeshError, match=r"edges \[0, 1\] and \[3, 5\] cross"):
        load_initial_mesh(vertices, [(0, 1, 2), (3, 5, 4)])


def _overlaps_by_every_pair(coords, triangles, edges):
    """The overlap test of ``load_initial_mesh`` over every pair, with
    scalar arithmetic and no bounding boxes."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    for tri in triangles:
        for v, x in enumerate(coords):
            if v not in tri and all(
                    orient(coords[tri[k]], coords[tri[k - 2]], x) >= 0.0 for k in range(3)):
                return True
    for (a, b), (c, d) in itertools.product(coords[edges], repeat=2):
        if (np.sign(orient(a, b, c)) * np.sign(orient(a, b, d)) < 0.0
                and np.sign(orient(c, d, a)) * np.sign(orient(c, d, b)) < 0.0):
            return True
    return False


def test_overlap_test_sees_every_pair():
    # triangles on a 4 x 4 grid of points, so that vertices meet edges and
    # edges overlap on a line; the bounding-box pairs must find every
    # overlap that the test over all pairs finds
    rng = np.random.default_rng(11)
    coords = np.array([(i, j) for i in range(4) for j in range(4)], dtype=float)
    outcomes = set()
    for _ in range(300):
        triangles = rng.choice(16, size=(int(rng.integers(1, 5)), 3))
        e1, e2 = (coords[triangles[:, k]] - coords[triangles[:, 0]] for k in (1, 2))
        area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        # positively oriented, as load_initial_mesh leaves them
        triangles = np.where((area2 < 0.0)[:, None], triangles[:, [0, 2, 1]], triangles)
        triangles = triangles[area2 != 0.0]
        pairs = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        edges = np.unique(pairs, axis=0)
        expected = _overlaps_by_every_pair(coords, triangles, edges)
        try:
            _reject_overlaps(coords, triangles, edges)
            found = False
        except MeshError:
            found = True
        assert found == expected
        outcomes.add(found)
    assert outcomes == {False, True}


def test_strip_along_y_tests_as_many_pairs_as_along_x(monkeypatch):
    # a 1 x 1000 strip of unit squares, two triangles each: swept along its
    # width, every box would start in the range of every other
    n = 1000
    coords = np.array([(i, j) for i in range(n + 1) for j in range(2)], dtype=float)
    k = 2 * np.arange(n)
    triangles = np.concatenate([np.column_stack([k, k + 2, k + 3]),
                                np.column_stack([k, k + 3, k + 1])])
    box_pairs = mesh_module._box_pairs
    counts = []

    def counted(*args):
        pairs = box_pairs(*args)
        counts[-1] += pairs[0].size
        return pairs

    monkeypatch.setattr(mesh_module, "_box_pairs", counted)
    for laid in (coords, coords[:, ::-1]):
        counts.append(0)
        assert load_initial_mesh(laid, triangles).n_elements == 2 * n
    assert counts[0] == counts[1]


def test_negative_orientation_is_fixed():
    triangles = np.array([(0, 2, 1), (0, 2, 3)])
    mesh = load_initial_mesh(SQUARE_VERTICES, triangles)
    assert np.all(mesh.areas > 0)
    # the caller's array is left as it was
    assert triangles.tolist() == [[0, 2, 1], [0, 2, 3]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_coordinate_rejected(bad):
    vertices = SQUARE_VERTICES[:3] + [(0.0, bad)]
    with pytest.raises(MeshError, match="non-finite"):
        load_initial_mesh(vertices, SQUARE_TRIANGLES)


@pytest.mark.parametrize("triangles", [
    np.array([(0, 1.9, 2), (0, 2, 3.2)]),
    np.array([(0, 1, 2), (0, 2, 3)], dtype=float),
    np.array([(False, True, True), (False, True, True)]),
], ids=["fractional", "whole-floats", "bool"])
def test_non_integer_triangle_indices_rejected(triangles):
    # a cast would read 1.9 as 1 and True as 1
    with pytest.raises(MeshError, match="must be integers, got dtype"):
        load_initial_mesh(SQUARE_VERTICES, triangles)


@pytest.mark.parametrize("vertices, triangles, fault", [
    ([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], [(0, 1, 2)], "vertex array must have shape"),
    ([0.0, 1.0, 0.5], [(0, 1, 2)], "vertex array must have shape"),
    (SQUARE_VERTICES, [(0, 1, 2, 0), (0, 2, 3, 0)], "triangle array must have shape"),
    (SQUARE_VERTICES, [(0, 1), (2, 3)], "triangle array must have shape"),
    (SQUARE_VERTICES, [0, 1, 2, 3], "triangle array must have shape"),
    (SQUARE_VERTICES, [], "triangle array must have shape"),
    (SQUARE_VERTICES, [(0, 1, 2), (0, 2, 4)], "out of range"),
    (SQUARE_VERTICES, [(0, 1, 2), (0, 2, -1)], "out of range"),
    (SQUARE_VERTICES, [("0", "1", "2"), ("0", "2", "3")], "must be integers, got dtype"),
    # a mesh of no elements loaded, and a run on it failed in a bare numpy reduction
    (np.zeros((0, 2)), np.zeros((0, 3), dtype=int), "empty triangle array"),
    (SQUARE_VERTICES, np.zeros((0, 3), dtype=int), "empty triangle array"),
], ids=["vertex-3-columns", "vertex-flat", "triangle-4-columns", "triangle-2-columns",
        "triangle-flat", "no-triangles", "index-past-the-end", "index-negative", "index-strings",
        "no-vertices-no-triangles", "vertices-no-triangles"])
def test_malformed_initial_arrays_rejected(vertices, triangles, fault):
    # the array forms of a malformed line of a mesh file
    with pytest.raises(MeshError, match=fault):
        load_initial_mesh(vertices, triangles)


def test_reference_edge_is_longest_edge():
    mesh = unit_square_mesh()
    p = mesh.vertices
    for tri in mesh.triangles:
        ref = np.linalg.norm(p[tri[1]] - p[tri[0]])
        others = [np.linalg.norm(p[tri[(k + 1) % 3]] - p[tri[k]]) for k in (1, 2)]
        assert ref >= max(others)


def test_refine_empty_is_noop():
    mesh = unit_square_mesh()
    refined, record = refine_nvb(mesh, [])
    assert refined is mesh
    assert record.marked.dtype == record.refined.dtype == np.int64
    assert record.marked.size == record.refined.size == record.sons_of.size == 0
    assert record.nt_before == record.nt_after == 2


def test_refine_single_triangle():
    mesh = single_triangle()
    refined, record = refine_nvb(mesh, [0])
    assert refined.n_elements == 2
    # the new vertex is the midpoint of the reference edge (the hypotenuse)
    new_gid = np.setdiff1d(refined.vertex_gids, mesh.vertex_gids)
    assert new_gid.shape[0] == 1
    mid = refined.forest.coords[new_gid[0]]
    assert mid == pytest.approx([0.5, 0.5])
    assert record.refined.tolist() == [0]
    assert record.sons_of.tolist() == [2]
    assert np.all(refined.forest.gen[refined.node_ids] == 1)
    refined.validate()


def test_refine_closure_on_shared_diagonal():
    # both triangles of the square have the diagonal as reference edge, so
    # marking one bisects both
    mesh = unit_square_mesh()
    refined, record = refine_nvb(mesh, [0])
    assert record.marked.tolist() == [0]
    assert record.refined.tolist() == [0, 1]
    assert refined.n_elements == 4
    assert refined.n_vertices == 5
    refined.validate()
    audit_refinement(mesh, refined, record)


def test_refine_out_of_range():
    with pytest.raises(MeshError, match="out of range"):
        refine_nvb(unit_square_mesh(), [5])


@pytest.mark.parametrize("marked", [[0.7], [True, False], np.ones(6, dtype=bool), {1.0}, {0}],
                         ids=["float", "bool-list", "mask", "float-set", "int-set"])
def test_refine_rejects_marks_that_are_not_indices(marked):
    # a mask or a float would be read as the indices {0, 1} or [0]; a set
    # is an object array, not an index array
    with pytest.raises(MeshError, match="integer indices"):
        refine_nvb(lshape_mesh(), marked)
    assert refine_nvb(lshape_mesh(), [])[1].marked.size == 0


def test_two_sons_inequality_and_area_halving():
    rng = np.random.default_rng(7)
    mesh = lshape_mesh()
    for _ in range(6):
        marked = rng.choice(mesh.n_elements, size=max(1, mesh.n_elements // 4), replace=False)
        refined, record = refine_nvb(mesh, marked)
        assert len(record.refined) <= record.nt_after - record.nt_before
        assert np.all(np.diff(record.refined) > 0)
        assert np.all(np.isin(record.marked, record.refined))
        assert np.all((record.sons_of >= 2) & (record.sons_of <= 4))
        assert record.sons_of.sum() == record.nt_after - record.nt_before + len(record.refined)
        audit_refinement(mesh, refined, record)
        mesh = refined


def test_vertex_nestedness():
    mesh = unit_square_mesh(cross=True)
    refined, _ = refine_nvb(mesh, [0, 2])
    assert np.all(np.isin(mesh.vertex_gids, refined.vertex_gids))


def test_generation_increments():
    mesh = single_triangle()
    m1, _ = refine_nvb(mesh, [0])
    m2, _ = refine_nvb(m1, [0, 1])
    assert set(m2.forest.gen[m2.node_ids]) <= {2, 3}


def test_overlay_idempotent():
    mesh = uniform_refine(lshape_mesh(), 2)
    ov = overlay(mesh, mesh)
    assert np.array_equal(ov.node_ids, mesh.node_ids)


def test_overlay_with_refinement_of_itself():
    coarse = lshape_mesh()
    fine = uniform_refine(coarse, 1)
    ov = overlay(coarse, fine)
    assert ov.same_elements(fine)


def test_overlay_of_distinct_refinements():
    # cross mesh: every reference edge is a boundary edge, so single
    # markings bisect exactly one triangle and produce distinct meshes
    base = unit_square_mesh(cross=True)
    m1, _ = refine_nvb(base, [0])
    m2, _ = refine_nvb(base, [1])
    assert not m1.same_elements(m2)
    ov = overlay(m1, m2)
    ov.validate()
    assert ov.n_elements == 6
    assert ov.n_elements <= m1.n_elements + m2.n_elements - base.n_elements
    assert ov.areas.sum() == pytest.approx(1.0)
    # the overlay refines both inputs
    assert overlay(ov, m1).same_elements(ov)
    assert overlay(ov, m2).same_elements(ov)


def test_same_elements_compares_counts_before_sorting(monkeypatch):
    coarse = lshape_mesh()
    fine, _ = refine_nvb(coarse, [0])

    def no_sort(*args, **kwargs):
        raise AssertionError("sorted the node ids of meshes of different sizes")

    monkeypatch.setattr(np, "sort", no_sort)
    assert not coarse.same_elements(fine)


def test_overlay_cardinality_bound_random():
    rng = np.random.default_rng(3)
    base = lshape_mesh()
    meshes = []
    for seed_mesh in (base, base):
        mesh = seed_mesh
        for _ in range(4):
            marked = rng.choice(mesh.n_elements, size=max(1, mesh.n_elements // 3), replace=False)
            mesh, _ = refine_nvb(mesh, marked)
        meshes.append(mesh)
    m1, m2 = meshes
    ov = overlay(m1, m2)
    ov.validate()
    assert ov.n_elements <= m1.n_elements + m2.n_elements - base.n_elements
    assert ov.areas.sum() == pytest.approx(3.0)


def test_overlay_genealogy_mismatch():
    with pytest.raises(MeshError, match="genealogy"):
        overlay(unit_square_mesh(), unit_square_mesh())


def test_shape_regularity_right_isosceles():
    # legs 1, hypotenuse sqrt(2), area 1/2: diam / sqrt(area) = 2
    mesh = unit_square_mesh()
    assert shape_regularity(mesh) == pytest.approx(2.0)
    # NVB reproduces the same similarity class here
    assert shape_regularity(uniform_refine(mesh, 4)) == pytest.approx(2.0)


def test_shape_regularity_equilateral():
    mesh = load_initial_mesh(
        [(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3.0) / 2.0)], [(0, 1, 2)]
    )
    assert shape_regularity(mesh) == pytest.approx((np.sqrt(3.0) / 4.0) ** -0.5)


def test_shape_regularity_bounded_along_refinement():
    rng = np.random.default_rng(11)
    mesh = lshape_mesh()
    gamma0 = shape_regularity(mesh)
    for _ in range(7):
        marked = rng.choice(mesh.n_elements, size=max(1, mesh.n_elements // 5), replace=False)
        mesh, _ = refine_nvb(mesh, marked)
        assert shape_regularity(mesh) <= 2.0 * gamma0


def test_closure_audit_single_step():
    mesh = unit_square_mesh(cross=True)
    _, record = refine_nvb(mesh, [0])
    c = closure_audit([record])
    assert c == pytest.approx((record.nt_after - record.nt_before) / 1)


def test_closure_audit_closure_free_bound():
    # every reference edge of the cross mesh is on the boundary: no closure
    mesh = unit_square_mesh(cross=True)
    refined, record = refine_nvb(mesh, [0, 1, 2, 3])
    assert np.array_equal(record.refined, record.marked)
    assert closure_audit([record]) <= 4.0


def test_closure_audit_run():
    rng = np.random.default_rng(5)
    mesh = lshape_mesh()
    records = []
    for _ in range(10):
        marked = rng.choice(mesh.n_elements, size=max(1, mesh.n_elements // 4), replace=False)
        mesh, rec = refine_nvb(mesh, marked)
        records.append(rec)
    assert closure_audit(records) <= 20.0
    # the same bits as the loop over the records
    marked_sum, best = 0, 0.0
    for rec in records:
        marked_sum += len(rec.marked)
        best = max(best, (rec.nt_after - records[0].nt_before) / marked_sum)
    assert closure_audit(records) == best


def test_closure_audit_empty():
    with pytest.raises(MeshError):
        closure_audit([])


def _awkward_mesh():
    """Negative, tiny and inexact coordinates, refined once more."""
    third = 0.1 + 0.2
    vertices = [(-1e-17, 1e-17), (third, -1e-17), (third, 0.7), (-third, 0.7)]
    return uniform_refine(load_initial_mesh(vertices, [(0, 1, 2), (0, 2, 3)]), 2)


def _random_lshape_refinement(seed):
    rng = np.random.default_rng(seed)
    mesh = lshape_mesh()
    for _ in range(6):
        marked = rng.choice(mesh.n_elements, size=max(1, mesh.n_elements // 4), replace=False)
        mesh, _ = refine_nvb(mesh, marked)
    return mesh


def _adaptive_mesh(name, initial=None):
    """Final mesh of a short adaptive run of a built-in problem."""
    return run_afem(builtin_problem(name), 0.5, max_elements=600, keep_history=False,
                    initial_mesh=initial).final_solution.mesh


# meshes written to file: built-in, uniformly, randomly and adaptively refined
WRITTEN_MESHES = [
    lshape_mesh, unit_square_mesh, lambda: unit_square_mesh(cross=True), _awkward_mesh,
    lambda: uniform_refine(lshape_mesh(), 2),
    lambda: _random_lshape_refinement(0), lambda: _random_lshape_refinement(1),
    lambda: _adaptive_mesh("lshape_poisson"), lambda: _adaptive_mesh("convection_diffusion"),
    lambda: _adaptive_mesh("square_smooth", _awkward_mesh()),
]
WRITTEN_MESH_IDS = ["lshape", "square", "cross", "awkward", "lshape-uniform-2",
                    "lshape-refined-0", "lshape-refined-1", "lshape-adaptive",
                    "convection-adaptive", "awkward-adaptive"]


@pytest.mark.parametrize("make", WRITTEN_MESHES, ids=WRITTEN_MESH_IDS)
def test_mesh_file_roundtrip(make, tmp_path):
    mesh = make()
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    rows = [line.split() for line in path.read_text().splitlines()]
    nv, nt = map(int, rows[0])
    assert (nv, nt) == (mesh.n_vertices, mesh.n_elements)
    vertex_rows, triangle_rows = rows[1: 1 + nv], rows[1 + nv: 1 + nv + nt]
    boundary_rows = rows[1 + nv + nt:]
    # %r writes the shortest form that reads back as the same float
    vertices = np.array([[float(v) for v in row] for row in vertex_rows])
    assert np.array_equal(vertices, mesh.vertices)
    triangles = np.array([[int(v) for v in row] for row in triangle_rows])
    assert np.array_equal(triangles[:, :3], mesh.triangles)
    assert np.all(triangles[:, 3] == 0)  # the reference edge is in slot 0
    boundary = np.array([[int(v) for v in row] for row in boundary_rows])
    assert np.array_equal(boundary[:, :2], mesh.boundary_edges)
    assert np.all(boundary[:, 2] == 1)  # homogeneous Dirichlet, the only marker


@pytest.mark.parametrize("make", WRITTEN_MESHES, ids=WRITTEN_MESH_IDS)
def test_write_mesh_matches_per_line_writer(make, tmp_path):
    mesh = make()
    write_mesh(mesh, tmp_path / "block.mesh")
    write_mesh_per_line(mesh, tmp_path / "lines.mesh")
    assert (tmp_path / "block.mesh").read_bytes() == (tmp_path / "lines.mesh").read_bytes()


def test_boundary_flags_propagate():
    mesh = uniform_refine(unit_square_mesh(), 3)
    mesh.validate()
    on_x_axis = np.isclose(mesh.vertices[:, 1], 0.0)
    assert np.all(mesh.is_boundary_vertex[on_x_axis])


def test_random_refinements_stay_conforming():
    rng = np.random.default_rng(2)
    pts = np.array([[i / 3, j / 3] for i in range(4) for j in range(4)])
    pts[5] += 0.04  # break symmetry
    from scipy.spatial import Delaunay

    tri = Delaunay(pts)
    mesh = load_initial_mesh(pts, tri.simplices)
    area0 = mesh.areas.sum()
    for _ in range(5):
        marked = rng.choice(mesh.n_elements, size=max(1, mesh.n_elements // 6), replace=False)
        new_mesh, record = refine_nvb(mesh, marked)
        audit_refinement(mesh, new_mesh, record)
        mesh = new_mesh
    assert mesh.areas.sum() == pytest.approx(area0)


def _refined_single_triangle():
    mesh = single_triangle()
    refined, record = refine_nvb(mesh, [0])
    audit_refinement(mesh, refined, record)
    return mesh, refined, record


def test_audit_rejects_unhalved_area():
    mesh, refined, record = _refined_single_triangle()
    fresh_mesh = Mesh(refined.forest, refined.node_ids)  # no cached geometry
    new_gid = np.setdiff1d(refined.vertex_gids, mesh.vertex_gids)[0]
    # slide the midpoint along the hypotenuse: still conforming, areas 0.255 / 0.245
    refined.forest.coords[new_gid] += (0.01, -0.01)
    with pytest.raises(MeshError, match="halve"):
        audit_refinement(mesh, fresh_mesh, record)


def test_audit_rejects_generation_jump():
    mesh, refined, record = _refined_single_triangle()
    refined.forest.gen[refined.node_ids[0]] += 1
    with pytest.raises(MeshError, match="generation"):
        audit_refinement(mesh, refined, record)


def test_audit_rejects_refined_beyond_growth():
    mesh, refined, record = _refined_single_triangle()
    inflated = dataclasses.replace(record, refined=np.array([0, 1]))
    with pytest.raises(MeshError, match="growth"):
        audit_refinement(mesh, refined, inflated)


def test_audit_rejects_single_son():
    mesh, refined, record = _refined_single_triangle()
    one_son = dataclasses.replace(record, sons_of=np.array([1]))
    with pytest.raises(MeshError, match="fewer than two sons"):
        audit_refinement(mesh, refined, one_son)


def test_audit_checks_the_nodes_between_old_and_new_leaves():
    # marking element 6 bisects one triangle twice, so one node of the new
    # genealogy is neither an old nor a new leaf; a generation jump above
    # it, with its sons shifted along, shows only there
    mesh, _ = refine_nvb(uniform_refine(unit_square_mesh(cross=True), 1), [0])
    refined, record = refine_nvb(mesh, [6])
    forest = refined.forest
    new = np.setdiff1d(refined.node_ids, mesh.node_ids)
    between = np.setdiff1d(forest.parent[new], mesh.node_ids)
    assert between.size == 1
    audit_refinement(mesh, refined, record)
    forest.gen[between] += 1
    forest.gen[forest.sons[between[0]]] += 1
    with pytest.raises(MeshError, match="generation"):
        audit_refinement(mesh, refined, record)


@settings(max_examples=50)
@given(data=st.data(), name=st.sampled_from(sorted(INITIAL_MESHES)), steps=st.integers(1, 6))
def test_audit_on_a_shared_forest_examines_only_the_nodes_between_old_and_new_leaves(
        data, name, steps):
    # a refinement of a mesh on one of several branches of a forest: the
    # other branches may have made nodes below its new leaves, which the
    # audit must leave alone
    meshes = draw_branches(data, name, steps)
    mesh = meshes[data.draw(st.integers(0, len(meshes) - 1), label="old")]
    refined, record = refine_nvb(mesh, draw_marking(data, mesh))
    forest = refined.forest
    examined = []
    node_area = forest.node_area

    def spy(nids):
        examined.append(np.asarray(nids).copy())
        return node_area(nids)

    forest.node_area = spy
    audit_refinement(mesh, refined, record)
    parents, nodes = examined
    assert sorted(nodes.tolist()) == sorted(between_ids(mesh, refined))
    assert np.array_equal(parents, forest.parent[nodes])


@settings(max_examples=50)
@given(data=st.data(), name=st.sampled_from(sorted(INITIAL_MESHES)), steps=st.integers(1, 6),
       dyadic=st.booleans())
def test_interior_vertices_are_the_non_boundary_vertices_by_coordinates(data, name, steps, dyadic):
    # every system numbers its unknowns in this order, and the factor takes
    # it as it is: x first, then y
    mesh = draw_branches(data, name, steps)[-1]
    if not dyadic:
        mesh = off_grid(mesh)
    interior = mesh.interior_vertices
    assert np.array_equal(np.sort(interior), np.flatnonzero(~mesh.is_boundary_vertex))
    x, y = mesh.vertices[interior].T
    assert np.all((x[:-1] < x[1:]) | ((x[:-1] == x[1:]) & (y[:-1] < y[1:])))


def test_audit_rejects_a_coarser_mesh():
    mesh = uniform_refine(unit_square_mesh(cross=True), 2)
    refined, record = refine_nvb(mesh, [0, 5])
    audit_refinement(mesh, refined, record)
    with pytest.raises(MeshError, match="does not refine"):
        audit_refinement(refined, mesh, record)


def test_audit_rejects_a_sibling_branch():
    # two refinements of one mesh share its forest, but neither refines
    # the other
    mesh = uniform_refine(unit_square_mesh(cross=True), 2)
    left, _ = refine_nvb(mesh, [0])
    right, record = refine_nvb(mesh, [9])
    audit_refinement(mesh, right, record)
    with pytest.raises(MeshError, match="does not refine"):
        audit_refinement(left, right, record)
    with pytest.raises(MeshError, match="genealogy"):
        audit_refinement(uniform_refine(unit_square_mesh(cross=True), 2), right, record)


def test_closure_pass_bound():
    mesh = uniform_refine(unit_square_mesh(), 1)
    mesh, _ = refine_nvb(mesh, [0])
    # the reference edge of triangle 3 forces one more edge: two passes
    _, tri_edges, edge_tris, _ = mesh._edge_data
    ref_edge = tri_edges[:, 0]
    seeded = np.zeros(mesh.edges.shape[0], dtype=bool)
    seeded[ref_edge[3]] = True
    closed = seeded.copy()
    _close(closed, ref_edge, edge_tris, max_passes=2)
    assert closed.sum() == 2
    with pytest.raises(MeshError, match="step budget"):
        _close(seeded, ref_edge, edge_tris, max_passes=1)
