"""Scalar reference implementation of the mesh core, kept as a test oracle.

This is the element-by-element refinement the array code in
``triafem.mesh`` replaced: a worklist closure, per-element bisection and a
Python dict of midpoints; plus the pairwise edge table, the cached
per-node ancestry walk and the triangle geometry as one loop or formula
per use. The oracle mutates its own forest, which must not be refined by
the array code as well (its midpoint table stays empty). The hypothesis
draws of random markings and of meshes on several branches of one forest,
which the mesh tests share, live here too.
"""

import copy

import numpy as np
from hypothesis import strategies as st

from triafem.mesh import (
    Mesh,
    MeshError,
    RefinementRecord,
    lshape_mesh,
    refine_nvb,
    unit_square_mesh,
)

INITIAL_MESHES = {
    "square": unit_square_mesh,
    "cross": lambda: unit_square_mesh(cross=True),
    "lshape": lshape_mesh,
}


def draw_marking(data, mesh):
    """A hypothesis draw of a non-empty marking of at most a third of ``mesh``."""
    nt = mesh.n_elements
    size = data.draw(st.integers(1, max(1, nt // 3)), label="n_marked")
    return data.draw(
        st.lists(st.integers(0, nt - 1), min_size=1, max_size=size, unique=True),
        label="marked",
    )


def draw_branches(data, name, steps):
    """The initial mesh ``name`` and ``steps`` refinements, each of a drawn
    earlier mesh: meshes on several branches of one forest."""
    meshes = [INITIAL_MESHES[name]()]
    for _ in range(steps):
        base = meshes[data.draw(st.integers(0, len(meshes) - 1), label="base")]
        meshes.append(refine_nvb(base, draw_marking(data, base))[0])
    return meshes


class ScalarForest:
    """Scalar bisection on a :class:`MeshForest`, midpoints in a dict."""

    def __init__(self, forest):
        self.forest = forest
        self.midpoint_of = {}

    def midpoint(self, ga, gb, on_boundary):
        f = self.forest
        key = (ga, gb) if ga < gb else (gb, ga)
        gid = self.midpoint_of.get(key)
        if gid is not None:
            return gid
        gid = f.n_vertices
        f.coords = np.vstack([f.coords, 0.5 * (f.coords[ga] + f.coords[gb])])
        f.vparent = np.vstack([f.vparent, key])
        f.vboundary = np.append(f.vboundary, on_boundary)
        self.midpoint_of[key] = gid
        return gid

    def _add_node(self, triple, parent):
        f = self.forest
        nid = f.n_nodes
        f.tri = np.vstack([f.tri, triple])
        f.parent = np.append(f.parent, parent)
        f.gen = np.append(f.gen, f.gen[parent] + 1)
        f.sons = np.vstack([f.sons, (-1, -1)])
        return nid

    def bisect(self, nid, ref_on_boundary):
        f = self.forest
        sons = f.sons[nid]
        if sons[0] >= 0:
            return int(sons[0]), int(sons[1])
        a, b, c = (int(v) for v in f.tri[nid])
        m = self.midpoint(a, b, ref_on_boundary)
        son_a = self._add_node((c, a, m), nid)
        son_b = self._add_node((b, c, m), nid)
        f.sons[nid, 0] = son_a
        f.sons[nid, 1] = son_b
        return son_a, son_b


def edge_data(mesh):
    """Edge table from a pairwise ``np.unique(axis=0)``."""
    t = mesh.triangles
    pairs = np.stack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]], axis=1).reshape(-1, 2)
    pairs = np.sort(pairs, axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    tri_edges = inverse.reshape(-1, 3)
    counts = np.bincount(inverse, minlength=edges.shape[0])
    order = np.argsort(inverse, kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts)])
    edge_tris = np.full((edges.shape[0], 2), -1, dtype=np.int64)
    edge_tris[:, 0] = order[starts[:-1]] // 3
    has_two = counts == 2
    edge_tris[has_two, 1] = order[starts[:-1][has_two] + 1] // 3
    return edges, tri_edges, edge_tris, counts


def refine(scalar, mesh, marked):
    """Worklist closure and per-element bisection on ``scalar``'s forest."""
    assert mesh.forest is scalar.forest
    nt = mesh.n_elements
    marked = np.unique(np.asarray(sorted(marked), dtype=np.int64))
    if marked.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return mesh, RefinementRecord(empty, empty, empty, nt_before=nt, nt_after=nt)
    edges, tri_edges, edge_tris, counts = edge_data(mesh)
    ref_edge = tri_edges[:, 0]
    edge_marked = np.zeros(edges.shape[0], dtype=bool)
    stack = []

    def _mark(e):
        if not edge_marked[e]:
            edge_marked[e] = True
            stack.append(e)

    for t in marked:
        _mark(ref_edge[t])
    steps = 0
    while stack:
        steps += 1
        if steps > 4 * nt:
            raise MeshError("closure exceeded its step budget; refinement logic error")
        e = stack.pop()
        for t in edge_tris[e]:
            if t >= 0:
                _mark(ref_edge[t])

    pattern = edge_marked[tri_edges]
    any_marked = pattern.any(axis=1)
    refined_idx = np.nonzero(any_marked)[0]
    new_ids = list(mesh.node_ids[~any_marked])
    sons_of = []
    for t in refined_idx:
        e0, e1, e2 = tri_edges[t]
        first = len(new_ids)
        son_a, son_b = scalar.bisect(int(mesh.node_ids[t]), counts[e0] == 1)
        if pattern[t, 2]:
            new_ids.extend(scalar.bisect(son_a, counts[e2] == 1))
        else:
            new_ids.append(son_a)
        if pattern[t, 1]:
            new_ids.extend(scalar.bisect(son_b, counts[e1] == 1))
        else:
            new_ids.append(son_b)
        sons_of.append(len(new_ids) - first)

    refined_mesh = Mesh(scalar.forest, np.array(new_ids, dtype=np.int64))
    record = RefinementRecord(
        marked=marked,
        refined=refined_idx.astype(np.int64),
        sons_of=np.array(sons_of, dtype=np.int64),
        nt_before=nt,
        nt_after=refined_mesh.n_elements,
    )
    return refined_mesh, record


def assert_same_record(bulk, scalar):
    """Field by field: the record's arrays compare by value and dtype."""
    for name in ("marked", "refined", "sons_of"):
        a, b = getattr(bulk, name), getattr(scalar, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (bulk.nt_before, bulk.nt_after) == (scalar.nt_before, scalar.nt_after)


def covered(source, target_leafset, forest):
    """Leaves of ``source`` that lie inside (or equal) a leaf of the target set."""
    out = []
    cache = {}
    parent = forest.parent
    for nid in source:
        nid = int(nid)
        path = []
        cur = nid
        while True:
            hit = cache.get(cur)
            if hit is not None:
                break
            if cur in target_leafset:
                hit = True
                break
            path.append(cur)
            nxt = int(parent[cur])
            if nxt < 0:
                hit = False
                break
            cur = nxt
        for n in path:
            cache[n] = hit
        if hit:
            out.append(nid)
    return out


def between_ids(old, new):
    """Nodes met on the walk up from each leaf of ``new`` to the leaf of
    ``old`` above it, the old leaves left out; ``new`` refines ``old``."""
    leaves = set(old.node_ids.tolist())
    found = set()
    for nid in new.node_ids.tolist():
        while nid not in leaves:
            found.add(nid)
            nid = int(new.forest.parent[nid])
    return found


def parents_by_walk(coarse, fine):
    """Per element of ``fine``, the index of the element of ``coarse`` that
    holds it, by a walk up ``forest.parent`` from each leaf of ``fine``;
    ``fine`` refines ``coarse``."""
    index = {nid: k for k, nid in enumerate(coarse.node_ids.tolist())}
    out = []
    for nid in fine.node_ids.tolist():
        while nid not in index:
            assert nid >= 0, "fine does not refine coarse"
            nid = int(fine.forest.parent[nid])
        out.append(index[nid])
    return np.array(out, dtype=np.int64)


def overlay_ids(m1, m2):
    """Node ids of the overlay, by the per-node walk of :func:`covered`."""
    set1 = set(int(n) for n in m1.node_ids)
    set2 = set(int(n) for n in m2.node_ids)
    ids = covered(m1.node_ids, set2, m1.forest)
    seen = set(ids)
    for nid in covered(m2.node_ids, set1, m1.forest):
        if nid not in seen:
            ids.append(nid)
            seen.add(nid)
    return np.array(ids, dtype=np.int64)


def forest_arrays(forest):
    """Every ledger array of the forest."""
    names = ("tri", "parent", "gen", "sons", "coords", "vparent", "vboundary")
    return {name: getattr(forest, name) for name in names}


def write_mesh_per_line(mesh, path):
    """The mesh file format written one formatted line per row, the way
    ``triafem.mesh.write_mesh`` did before it formatted whole blocks."""
    lines = [f"{mesh.n_vertices} {mesh.n_elements}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for a, b, c in mesh.triangles:
        lines.append(f"{a} {b} {c} 0")
    for a, b in mesh.boundary_edges:
        lines.append(f"{a} {b} 1")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- the triangle geometry as first written, one loop or formula per use ------

def prolong_per_vertex(sol, finer):
    """Nodal values of ``sol`` prolonged to ``finer``, vertex by vertex: a
    vertex of the solution's mesh keeps its value, a new one gets
    ``0.5 * (a + b)`` of its edge endpoints' values."""
    forest = finer.forest
    values = dict(zip(sol.mesh.vertex_gids.tolist(), sol.values.tolist()))

    def value(gid):
        if gid not in values:
            a, b = forest.vparent[gid].tolist()
            values[gid] = 0.5 * (value(a) + value(b))
        return values[gid]

    return np.array([value(gid) for gid in finer.vertex_gids.tolist()])


def off_grid(mesh):
    """The mesh on a copy of its forest whose vertices are moved by an
    affine map off the dyadic grid: refinement of the built-in meshes keeps
    every vertex on it, where any formula for an area or an edge is exact."""
    forest = copy.copy(mesh.forest)
    forest.coords = forest.coords @ np.array([[0.7, 0.1], [0.2, 0.9]]) + np.array([0.1, 0.3])
    return Mesh(forest, mesh.node_ids)


def node_area(forest, nids):
    """Areas of forest nodes from three gathered corners."""
    tri = forest.tri[nids]
    p0 = forest.coords[tri[..., 0]]
    p1 = forest.coords[tri[..., 1]]
    p2 = forest.coords[tri[..., 2]]
    return 0.5 * np.abs(
        (p1[..., 0] - p0[..., 0]) * (p2[..., 1] - p0[..., 1])
        - (p1[..., 1] - p0[..., 1]) * (p2[..., 0] - p0[..., 0])
    )


def signed_areas(mesh):
    p = mesh.vertices
    t = mesh.triangles
    d1 = p[t[:, 1]] - p[t[:, 0]]
    d2 = p[t[:, 2]] - p[t[:, 0]]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def basis_gradients(mesh):
    p = mesh.vertices[mesh.triangles]
    s2 = 2.0 * signed_areas(mesh)
    grads = np.empty((mesh.n_elements, 3, 2))
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        edge = p[:, k] - p[:, j]
        grads[:, i, 0] = -edge[:, 1] / s2
        grads[:, i, 1] = edge[:, 0] / s2
    return grads


def shape_regularity(mesh):
    t = mesh.triangles
    p = mesh.vertices
    diam = np.zeros(mesh.n_elements)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        d = p[t[:, j]] - p[t[:, i]]
        diam = np.maximum(diam, np.hypot(d[:, 0], d[:, 1]))
    root_area = np.sqrt(np.abs(signed_areas(mesh)))
    return float(np.max(np.maximum(diam / root_area, root_area / diam)))


def assign_reference_edges(coords, triangles):
    """Triples rotated so the longest edge sits in slot (0, 1), ties to the
    smallest opposite vertex, by a loop over slots."""
    p = coords[triangles]
    sq = np.empty((triangles.shape[0], 3))
    for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        d = p[:, j] - p[:, i]
        sq[:, k] = d[:, 0] ** 2 + d[:, 1] ** 2
    opposite = triangles[:, [2, 0, 1]]
    best = np.where(sq == sq.max(axis=1, keepdims=True), opposite, np.iinfo(np.int64).max)
    slot = np.argmin(best, axis=1)
    rotated = np.empty_like(triangles)
    for r in range(3):
        rows = slot == r
        rotated[rows] = triangles[np.ix_(np.nonzero(rows)[0], [(r + k) % 3 for k in range(3)])]
    return rotated


def orientation(coords, triangles):
    """Twice the signed areas of raw triples, as the initial-mesh checks
    of ``load_initial_mesh`` form them."""
    d1 = coords[triangles[:, 1]] - coords[triangles[:, 0]]
    d2 = coords[triangles[:, 2]] - coords[triangles[:, 0]]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
