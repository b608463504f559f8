"""The array mesh core against the scalar oracle in ``helpers_mesh``.

Random markings drive two forests built from the same initial mesh, one
refined by :func:`refine_nvb` and one by the oracle, through two branches
of refinements; the second branch starts from an earlier mesh, so it
reuses sons and midpoints the first branch created. Node ids, every
forest array, the refinement records, the edge tables and the overlays
must agree exactly, and the triangle geometry and quadrature points of
every mesh must have the bits of the per-use loops and broadcast forms
they were folded from.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers_mesh as oracle
from helpers_fem import edge_points_broadcast, triangle_points_broadcast
from helpers_mesh import INITIAL_MESHES, draw_branches, draw_marking
from triafem import quadrature
from triafem.mesh import (
    Mesh,
    _assign_reference_edges,
    _corner_geometry,
    element_maps,
    load_initial_mesh,
    lshape_mesh,
    overlay,
    refine_nvb,
    refines,
    shape_regularity,
)


def assert_same_geometry(mesh):
    p = mesh.vertices[mesh.triangles]
    points = triangle_points_broadcast(p[:, 0], p[:, 1], p[:, 2])
    assert np.array_equal(mesh.quadrature_points(), points)
    assert np.array_equal(mesh.quadrature_points(slice(1, None)), points[1:])
    pa, pb = mesh.vertices[mesh.edges[:, 0]], mesh.vertices[mesh.edges[:, 1]]
    assert np.array_equal(quadrature.edge_points(pa, pb), edge_points_broadcast(pa, pb))
    assert np.array_equal(mesh.areas, oracle.signed_areas(mesh))
    assert np.array_equal(mesh.basis_gradients, oracle.basis_gradients(mesh))
    assert shape_regularity(mesh) == oracle.shape_regularity(mesh)
    nids = np.arange(mesh.forest.n_nodes)
    assert np.array_equal(mesh.forest.node_area(nids), oracle.node_area(mesh.forest, nids))
    # every rotation of the triples, in both orientations
    for shift in range(3):
        rolled = np.roll(mesh.triangles, shift, axis=1)
        for tris in (rolled, rolled[:, ::-1]):
            assert np.array_equal(_corner_geometry(mesh.vertices, tris)[0],
                                  oracle.orientation(mesh.vertices, tris))
            assert np.array_equal(_assign_reference_edges(mesh.vertices, tris),
                                  oracle.assign_reference_edges(mesh.vertices, tris))


def assert_same(bulk, scalar):
    for a, b in zip(oracle.edge_data(bulk), bulk._edge_data):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert np.array_equal(bulk.node_ids, scalar.node_ids)
    mine = oracle.forest_arrays(bulk.forest)
    ref = oracle.forest_arrays(scalar.forest)
    for name in ref:
        assert np.array_equal(mine[name], ref[name]), name
    assert_same_geometry(oracle.off_grid(bulk))


@settings(max_examples=100)
@given(data=st.data(), name=st.sampled_from(sorted(INITIAL_MESHES)),
       steps=st.integers(1, 5), branch_from=st.integers(0, 4), branch_steps=st.integers(1, 3))
def test_bulk_refine_matches_scalar_oracle(data, name, steps, branch_from, branch_steps):
    bulk = INITIAL_MESHES[name]()
    scalar_forest = oracle.ScalarForest(INITIAL_MESHES[name]().forest)
    scalar = Mesh(scalar_forest.forest, bulk.node_ids)
    history = [(bulk, scalar)]
    for _ in range(steps):
        marked = draw_marking(data, bulk)
        bulk, record = refine_nvb(bulk, marked)
        scalar, scalar_record = oracle.refine(scalar_forest, scalar, marked)
        oracle.assert_same_record(record, scalar_record)
        assert_same(bulk, scalar)
        history.append((bulk, scalar))

    bulk, scalar = history[min(branch_from, len(history) - 1)]
    for _ in range(branch_steps):
        marked = draw_marking(data, bulk)
        bulk, record = refine_nvb(bulk, marked)
        scalar, scalar_record = oracle.refine(scalar_forest, scalar, marked)
        oracle.assert_same_record(record, scalar_record)
        assert_same(bulk, scalar)

    first = history[-1][0]
    assert np.array_equal(overlay(first, bulk).node_ids, oracle.overlay_ids(first, bulk))
    assert np.array_equal(overlay(bulk, first).node_ids, oracle.overlay_ids(bulk, first))
    for coarse, fine in ((history[0][0], first), (first, bulk), (bulk, first)):
        assert (refines(fine, [coarse]) is not None) == nested(fine, coarse)


def nested(fine, coarse):
    """Does every leaf of ``fine`` lie in (or equal) a leaf of ``coarse``?
    By the scalar oracle's per-node walk."""
    leaves = set(coarse.node_ids.tolist())
    return len(oracle.covered(fine.node_ids, leaves, fine.forest)) == fine.n_elements


@settings(max_examples=50)
@given(data=st.data(), name=st.sampled_from(sorted(INITIAL_MESHES)), steps=st.integers(1, 6))
def test_ancestors_match_a_walk_up_the_parents(data, name, steps):
    # the leaves of meshes on several branches of one forest, and a random
    # node set that may hold a node together with its ancestors
    meshes = draw_branches(data, name, steps)
    forest = meshes[0].forest
    random_set = data.draw(st.lists(st.integers(0, forest.n_nodes - 1), max_size=20, unique=True),
                           label="node set")

    def walk_up(nids):
        seen = set()
        for nid in nids:
            while nid >= 0 and nid not in seen:
                seen.add(nid)
                nid = int(forest.parent[nid])
        return seen

    # a walk stops at the leaves of a mesh; only the marks of their strict
    # ancestors may then differ
    stop_mesh = meshes[data.draw(st.integers(0, len(meshes) - 1), label="stop")]
    stop = np.zeros(forest.n_nodes, dtype=bool)
    stop[stop_mesh.node_ids] = True
    defined = np.ones(forest.n_nodes, dtype=bool)
    defined[list(walk_up(forest.parent[stop_mesh.node_ids].tolist()))] = False
    for leaves in [m.node_ids for m in meshes] + [np.array(random_set, dtype=np.int64)]:
        expected = np.zeros(forest.n_nodes, dtype=bool)
        expected[list(walk_up(leaves.tolist()))] = True
        assert np.array_equal(forest.ancestors(leaves), expected)
        assert np.array_equal(forest.ancestors(leaves, stop)[defined], expected[defined])


@settings(max_examples=50)
@given(data=st.data(), name=st.sampled_from(sorted(INITIAL_MESHES)), steps=st.integers(1, 6))
def test_refines_matches_scalar_oracle(data, name, steps):
    # meshes on several branches of one forest: every ordered pair, then
    # random sets of two or more meshes, where the walk stops at the leaves
    # they all share; one set is drawn from the meshes that a drawn mesh
    # refines, so that its verdict is yes
    meshes = draw_branches(data, name, steps)
    for fine in meshes:
        for coarse in meshes:
            assert (refines(fine, [coarse]) is not None) == nested(fine, coarse)
    indices = st.integers(0, len(meshes) - 1)
    for _ in range(3):
        fine = meshes[data.draw(indices, label="fine")]
        coarser = [mesh for mesh in meshes if nested(fine, mesh)]
        for pool in (meshes, coarser):
            if len(pool) < 2:
                continue
            picked = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=len(pool),
                                        unique=True),
                               label="meshes")
            expected = all(nested(fine, mesh) for mesh in picked)
            assert (refines(fine, picked) is not None) == expected


def skewed_lshape():
    """The L-shape moved off the dyadic grid by an affine map, so that its
    refinements round in the geometry's arithmetic."""
    base = lshape_mesh()
    coords = base.vertices @ np.array([[0.7, 0.1], [0.2, 0.9]]) + np.array([0.1, 0.3])
    return load_initial_mesh(coords, base.triangles)


@settings(max_examples=30)
@given(data=st.data(), steps=st.integers(1, 6))
def test_carried_geometry_equals_fresh_geometry(data, steps):
    # a refinement copies the kept rows from the coarse mesh and computes the
    # sons' rows on their own; every row must hold the bits of a fresh mesh,
    # and the driver's max over new elements must be the max over all
    mesh = skewed_lshape()
    gamma_max = gamma_all = shape_regularity(mesh)
    for _ in range(steps):
        mesh.areas, mesh.basis_gradients  # held by the coarse mesh, so carried
        refined, record = refine_nvb(mesh, draw_marking(data, mesh))
        for name in ("areas", "basis_gradients"):
            assert (name in vars(refined)) == (record.kept.size > 0)
        fresh = Mesh(refined.forest, refined.node_ids)
        assert np.array_equal(refined.areas, fresh.areas)
        assert np.array_equal(refined.basis_gradients, fresh.basis_gradients)
        assert np.array_equal(refined.areas, oracle.signed_areas(fresh))
        assert np.array_equal(refined.basis_gradients, oracle.basis_gradients(fresh))
        assert not refined.basis_gradients.flags.writeable
        gamma_max = max(gamma_max, shape_regularity(refined, slice(record.kept.size, None)))
        gamma_all = max(gamma_all, oracle.shape_regularity(fresh))
        assert gamma_max == gamma_all
        mesh = refined


@settings(max_examples=50)
@given(data=st.data(), name=st.sampled_from(sorted(INITIAL_MESHES)), steps=st.integers(1, 5))
def test_record_carries_rows_through_the_refined_layout(data, name, steps):
    # the refined mesh holds the kept elements, then the sons: carry takes
    # an array over the coarse mesh to the fine one, random markings and
    # one step that marks every element
    mesh = INITIAL_MESHES[name]()
    all_marked = data.draw(st.integers(0, steps - 1), label="all_marked")
    rng = np.random.default_rng(0)
    for k in range(steps):
        marked = np.arange(mesh.n_elements) if k == all_marked else draw_marking(data, mesh)
        fine, record = refine_nvb(mesh, marked)
        kept, sons = record.kept, record.new_elements
        assert sons.start == kept.size and sons.stop is None
        assert np.array_equal(record.parents[sons], np.repeat(record.refined, record.sons_of))
        n_sons = fine.n_elements - kept.size
        for tail in ((), (3, 2)):
            rows, new = rng.random((mesh.n_elements, *tail)), rng.random((n_sons, *tail))
            assert np.array_equal(record.carry(rows, new), np.concatenate([rows[kept], new]))
        for bad_rows, bad_new in ((rows[1:], new), (rows, new[1:]),
                                  (np.concatenate([rows, rows[:1]]), new),
                                  (rows, np.concatenate([new, new[:1]]))):
            with pytest.raises(ValueError, match="element counts"):
                record.carry(bad_rows, bad_new)
        mesh = fine


@settings(max_examples=50)
@given(data=st.data(), name=st.sampled_from(sorted(INITIAL_MESHES)), steps=st.integers(1, 5))
def test_element_maps_match_a_walk_up_the_parents(data, name, steps):
    # every record's map and their compositions against a walk up
    # forest.parent: random markings with one step that marks every
    # element, then a second branch from an earlier mesh, which reuses sons
    # the first branch created
    meshes = [INITIAL_MESHES[name]()]
    records = []
    all_marked = data.draw(st.integers(0, steps - 1), label="all_marked")
    for k in range(steps):
        mesh = meshes[-1]
        marked = np.arange(mesh.n_elements) if k == all_marked else draw_marking(data, mesh)
        fine, record = refine_nvb(mesh, marked)
        assert record.parents.dtype == np.int64
        assert np.array_equal(record.parents, oracle.parents_by_walk(mesh, fine))
        assert record.joins(mesh, fine)
        meshes.append(fine)
        records.append(record)
    maps = element_maps(records, np.arange(meshes[-1].n_elements))
    assert len(maps) == len(meshes)
    for coarse, parents in zip(meshes, maps):
        assert np.array_equal(parents, oracle.parents_by_walk(coarse, meshes[-1]))
    base = data.draw(st.integers(0, steps - 1), label="branch_from")
    branch, record = refine_nvb(meshes[base], draw_marking(data, meshes[base]))
    assert np.array_equal(record.parents, oracle.parents_by_walk(meshes[base], branch))
    assert not record.joins(meshes[base + 1], branch)
