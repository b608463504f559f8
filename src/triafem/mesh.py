"""Conforming 2D triangulations with newest-vertex bisection.

A triangle is stored as a vertex triple ``(a, b, c)`` whose reference edge
is always the edge ``(a, b)``; ``c`` is the newest vertex. Bisecting a
triangle inserts the midpoint ``m`` of its reference edge and produces the
sons ``(c, a, m)`` and ``(b, c, m)``, so the sons' reference edges are the
former non-reference edges and the new vertex is the sons' newest vertex.

Every mesh obtained by refinement keeps a handle to a shared
:class:`MeshForest`, the genealogy of all bisections performed since the
initial triangulation, held as plain exact-size arrays that each
refinement extends. The forest makes three things exact and cheap:
overlays (coarsest common refinements) are computed on the binary trees
instead of by geometric intersection, nodal prolongation between nested
meshes follows midpoint creation records, and structural audits (son areas,
generations, boundary flags) can be checked for every node ever created.

Refinement and ancestry are array operations (``notes/decisions.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import quadrature


# midpoint table key of edge (lo, hi): lo * _KEY_BASE + hi; vertex ids stay below it
_KEY_BASE = np.int64(2**31)


class MeshError(ValueError):
    """Raised for invalid triangulations or refusal of a mesh operation."""


def _corner_geometry(coords, triangles):
    """Twice the signed area (n,) and the edge vectors (n, 3, 2) of the
    triangles with vertex triples ``triangles`` (n, 3) into ``coords``.

    Edge i lies opposite corner i and runs from corner i + 1 to corner
    i + 2 (mod 3); the area is e1 x e2 = (p0 - p2) x (p1 - p0), the same
    products as (p1 - p0) x (p2 - p0).
    """
    p = np.take(coords, triangles, axis=0)
    edges = np.take(p, [2, 0, 1], axis=1) - np.take(p, [1, 2, 0], axis=1)
    area2 = edges[:, 1, 0] * edges[:, 2, 1] - edges[:, 1, 1] * edges[:, 2, 0]
    return area2, edges


def _basis_gradients(area2, edges):
    """Basis gradients (n, 3, 2) of n triangles from their :func:`_corner_geometry`."""
    return np.stack([-edges[..., 1], edges[..., 0]], axis=-1) / area2[:, None, None]


def _read_only(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RefinementRecord:
    """Bookkeeping of one refinement call.

    ``marked`` and ``refined`` are sorted int64 arrays of old-mesh triangle
    indices; ``refined`` includes the triangles forced by the conformity
    closure. ``sons_of`` holds, per refined triangle, the number of new-mesh
    triangles covering it (2, 3 or 4); they follow the kept triangles in
    the new mesh, in the order of ``refined``. The record owns that layout:
    :meth:`carry` takes a per-element array to the new mesh,
    :attr:`new_elements` selects the sons and :attr:`parents` is the element
    map, composed over a chain of records by :func:`element_maps`.
    """

    marked: np.ndarray
    refined: np.ndarray
    sons_of: np.ndarray = field(repr=False)
    nt_before: int = 0
    nt_after: int = 0

    @property
    def kept(self):
        """Sorted old-mesh indices of the triangles left whole; they are the
        first ``len(kept)`` triangles of the new mesh, in this order."""
        keep = np.ones(self.nt_before, dtype=bool)
        keep[self.refined] = False
        return np.flatnonzero(keep)

    @property
    def new_elements(self):
        """The sons in the new mesh, the slice after the kept elements."""
        return slice(self.nt_before - self.refined.size, None)

    def carry(self, old_rows, new_rows):
        """Rows over the new mesh: the kept rows of ``old_rows``, an array
        over the old mesh, then ``new_rows``, one per son. Raises
        ``ValueError`` when either has the wrong number of rows."""
        kept = self.kept
        if len(old_rows) != self.nt_before or len(new_rows) != self.nt_after - kept.size:
            raise ValueError("carried rows do not match the element counts of the refinement")
        return np.concatenate([np.take(old_rows, kept, axis=0), new_rows])

    @property
    def parents(self):
        """Old-mesh index of the element holding each new-mesh element,
        (nt_after,): the kept elements, then each refined one once per son."""
        return self.carry(np.arange(self.nt_before), np.repeat(self.refined, self.sons_of))

    def joins(self, coarse, fine):
        """Whether this records the refinement of ``coarse`` into ``fine``:
        the element counts agree and ``fine`` starts with the kept elements
        of ``coarse``, in their order."""
        kept = self.kept
        return (self.nt_before == coarse.n_elements and self.nt_after == fine.n_elements
                and np.array_equal(fine.node_ids[:kept.size], coarse.node_ids[kept]))


class MeshForest:
    """Genealogy ledger shared by all meshes refined from one initial mesh.

    A record of exact-size arrays: per vertex ``coords``, ``vparent`` (the
    edge whose midpoint it is, ``-1`` for initial vertices) and
    ``vboundary``; per node ``tri``, ``parent``, ``gen`` and ``sons``
    (``-1`` until bisected). Refinement appends rows and fills in the sons
    of the nodes it bisects, so node ids and vertex ids are stable and a
    mesh is just a selection of leaf node ids. Midpoint vertices are found
    through one sorted table of int64 edge keys ``lo * 2**31 + hi``
    (``mid_keys``, with the vertex ids in ``mid_gids``), shared by every
    mesh of the forest.
    """

    def __init__(self, coords, triangles):
        self.coords = np.asarray(coords, dtype=float)
        self.vparent = np.full((self.coords.shape[0], 2), -1, dtype=np.int64)
        self.vboundary = np.zeros(self.coords.shape[0], dtype=bool)
        self.tri = np.asarray(triangles, dtype=np.int64)
        self.parent = np.full(self.tri.shape[0], -1, dtype=np.int64)
        self.gen = np.zeros(self.tri.shape[0], dtype=np.int64)
        self.sons = np.full((self.tri.shape[0], 2), -1, dtype=np.int64)
        self.mid_keys = np.empty(0, dtype=np.int64)
        self.mid_gids = np.empty(0, dtype=np.int64)

    @property
    def n_vertices(self):
        return self.coords.shape[0]

    @property
    def n_nodes(self):
        return self.tri.shape[0]

    def node_area(self, nids):
        return 0.5 * np.abs(_corner_geometry(self.coords, self.tri[nids])[0])

    def ancestors(self, leaves, stop=None):
        """Per node of the forest: is it in ``leaves`` (distinct node ids)
        or an ancestor of one of them?

        Marks ``leaves``, then walks up through ``parent`` one pass per
        generation. A walk stops at a marked node, and of two sons in one
        front only the first son's walk goes on, so no node is visited
        twice. A walk also stops at the nodes that the mask ``stop`` sets;
        the marks of their ancestors are then undefined, so a caller that
        reads none of them saves the walk above.
        """
        marked = np.zeros(self.n_nodes, dtype=bool)
        front = np.asarray(leaves, dtype=np.int64)
        while front.size:
            marked[front] = True
            if stop is not None:
                front = front[~stop[front]]
            up = self.parent[front]
            keep = up >= 0
            keep[keep] = ~marked[up[keep]]
            front, up = front[keep], up[keep]
            first = self.sons[up, 0]
            # a first son marked in an earlier pass has marked its parent
            # already, or is a stop node
            front = up[(first == front) | ~marked[first]]
        return marked

    # -- mutation (refinement only) ---------------------------------------

    def midpoints(self, pairs, on_boundary):
        """Vertex ids of the midpoints of edges ``pairs`` (rows ``lo < hi``).

        Missing midpoints are created, with ids in order of their first
        row; ``on_boundary`` flags each row's edge. The key table is
        shared across all meshes of the forest, so two meshes bisecting
        the same edge agree on the new vertex.
        """
        keys = pairs[:, 0] * _KEY_BASE + pairs[:, 1]
        table = self.mid_keys
        pos = np.searchsorted(table, keys)
        found = pos < table.size
        found[found] = table[pos[found]] == keys[found]
        out = np.empty(keys.size, dtype=np.int64)
        out[found] = self.mid_gids[pos[found]]
        missing = np.flatnonzero(~found)
        new_keys, first, inverse = np.unique(
            keys[missing], return_index=True, return_inverse=True
        )
        n = new_keys.size
        if n == 0:
            return out
        order = np.argsort(first)
        new_gids = np.empty(n, dtype=np.int64)
        new_gids[order] = self.n_vertices + np.arange(n)
        out[missing] = new_gids[inverse]

        rows = missing[first[order]]
        lo, hi = pairs[rows, 0], pairs[rows, 1]
        self.coords = np.concatenate([self.coords, 0.5 * (self.coords[lo] + self.coords[hi])])
        self.vparent = np.concatenate([self.vparent, pairs[rows]])
        self.vboundary = np.concatenate([self.vboundary, on_boundary[rows]])
        at = np.searchsorted(table, new_keys)
        self.mid_keys = np.insert(table, at, new_keys)
        self.mid_gids = np.insert(self.mid_gids, at, new_gids)
        return out

    def split(self, targets, triples, gens, mids):
        """Append the sons ``(c, a, m)`` and ``(b, c, m)`` of every target.

        ``triples`` holds each target's ``(a, b, c)``, ``gens`` its
        generation and ``mids`` the midpoint ``m`` of its reference edge.
        The sons of the k-th target get ids ``n_nodes + 2k`` and
        ``n_nodes + 2k + 1``, so a target may be a son made by this call.
        """
        k = targets.size
        first = self.n_nodes
        a, b, c = triples.T
        sons = np.stack([np.column_stack([c, a, mids]), np.column_stack([b, c, mids])], axis=1)
        self.tri = np.concatenate([self.tri, sons.reshape(-1, 3)])
        self.parent = np.concatenate([self.parent, np.repeat(targets, 2)])
        self.gen = np.concatenate([self.gen, np.repeat(gens + 1, 2)])
        self.sons = np.concatenate([self.sons, np.full((2 * k, 2), -1, dtype=np.int64)])
        self.sons[targets] = np.arange(first, first + 2 * k).reshape(k, 2)


class Mesh:
    """Immutable view of a set of forest leaves forming a conforming mesh.

    Vertices are numbered locally (0..NV-1) in increasing order of their
    forest vertex id, which makes vertex sets of nested meshes comparable.
    Derived structures (edge table, areas, basis gradients, boundary data)
    are computed lazily and cached; :func:`refine_nvb` carries the cached
    geometry of the elements it keeps.
    """

    def __init__(self, forest, node_ids):
        self.forest = forest
        node_ids = np.asarray(node_ids, dtype=np.int64)
        node_ids.setflags(write=False)
        self.node_ids = node_ids

    # -- basic geometry ----------------------------------------------------

    @property
    def n_elements(self):
        return int(self.node_ids.shape[0])

    @property
    def n_vertices(self):
        return int(self.vertex_gids.shape[0])

    @cached_property
    def tri_gids(self):
        return _read_only(self.forest.tri[self.node_ids])

    @cached_property
    def vertex_gids(self):
        used = np.zeros(self.forest.n_vertices, dtype=bool)
        used[self.tri_gids] = True
        return _read_only(np.flatnonzero(used))

    @cached_property
    def triangles(self):
        local = np.empty(self.forest.n_vertices, dtype=np.int64)
        local[self.vertex_gids] = np.arange(self.vertex_gids.size)
        return _read_only(local[self.tri_gids])

    @cached_property
    def vertices(self):
        return _read_only(np.take(self.forest.coords, self.vertex_gids, axis=0))

    @cached_property
    def areas(self):
        """Signed element areas, positive on a valid mesh: initial meshes
        are oriented and bisection keeps the orientation."""
        return _read_only(0.5 * _corner_geometry(self.vertices, self.triangles)[0])

    @cached_property
    def basis_gradients(self):
        """Gradients of the three nodal basis functions per element, (NT, 3, 2)."""
        return _read_only(_basis_gradients(*_corner_geometry(self.vertices, self.triangles)))

    def quadrature_points(self, elements=slice(None)):
        """Physical volume quadrature points of ``elements`` (default: all),
        (n, 7, 2). Not cached: at 112 bytes per element they would be the
        largest cached array, and a run that keeps its history keeps every
        mesh; :func:`triafem.assembly.volume_samples` samples at them."""
        p = np.take(self.vertices, self.triangles[elements].T, axis=0)
        return quadrature.triangle_points(p[0], p[1], p[2])

    # -- edge table ---------------------------------------------------------

    @cached_property
    def _edge_data(self):
        t = self.triangles
        nv = self.n_vertices
        pairs = t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys = np.minimum(pairs[:, 0], pairs[:, 1]) * nv + np.maximum(pairs[:, 0], pairs[:, 1])
        # one stable sort of the 1-D edge keys groups the three slots of
        # every triangle by edge, in triangle order
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(first)
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(first) - 1
        edges = np.column_stack([keys[starts] // nv, keys[starts] % nv])
        tri_edges = inverse.reshape(-1, 3)
        counts = np.diff(starts, append=keys.size)
        if np.any(counts > 2):
            raise MeshError("non-conforming mesh: edge shared by more than two triangles")
        edge_tris = np.full((edges.shape[0], 2), -1, dtype=np.int64)
        edge_tris[:, 0] = order[starts] // 3
        has_two = counts == 2
        edge_tris[has_two, 1] = order[starts[has_two] + 1] // 3
        return edges, tri_edges, edge_tris, counts

    @property
    def edges(self):
        """Unique undirected edges as sorted local vertex pairs, shape (NE, 2)."""
        return self._edge_data[0]

    @property
    def edge_counts(self):
        return self._edge_data[3]

    @cached_property
    def boundary_edges(self):
        """Boundary edges as sorted local vertex pairs."""
        return _read_only(self.edges[self.edge_counts == 1])

    @cached_property
    def is_boundary_vertex(self):
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.boundary_edges.ravel()] = True
        return _read_only(mask)

    @cached_property
    def interior_vertices(self):
        """The interior vertices sorted by coordinates (x, then y): the
        unknowns of every system on the mesh, in this order. Minimum degree
        is slow on the vertex numbering of newest-vertex bisection and fast
        on this one (``notes/decisions.md``), so the factor takes the
        assembled systems as they are."""
        interior = np.flatnonzero(~self.is_boundary_vertex)
        coords = self.vertices[interior]
        return _read_only(interior[np.lexsort((coords[:, 1], coords[:, 0]))])

    def same_elements(self, other):
        if other is self:
            return True
        return (self.forest is other.forest and self.n_elements == other.n_elements
                and np.array_equal(np.sort(self.node_ids), np.sort(other.node_ids)))

    def validate(self):
        """Check the structural invariants; raises :class:`MeshError` on failure."""
        if np.any(self.areas <= 0.0):
            raise MeshError("triangle with non-positive area")
        incidence_boundary = self.is_boundary_vertex
        ledger_boundary = self.forest.vboundary[self.vertex_gids]
        if not np.array_equal(incidence_boundary, ledger_boundary):
            raise MeshError("incidence-1 edges do not match the domain boundary")


def _assign_reference_edges(coords, triangles):
    """Rotate triples so the longest edge sits in slot (0, 1).

    Ties are broken by the smallest opposite-vertex index, using exact
    comparisons of squared lengths so the choice is deterministic.
    """
    edges = _corner_geometry(coords, triangles)[1]
    sq = edges[..., 0] ** 2 + edges[..., 1] ** 2
    best = np.where(sq == sq.max(axis=1, keepdims=True), triangles, np.iinfo(np.int64).max)
    # the corner opposite the chosen edge becomes the newest vertex, slot 2
    corner = np.argmin(best, axis=1)
    return np.take_along_axis(triangles, (corner[:, None] + [1, 2, 3]) % 3, axis=1)


def _validate_initial(coords, triangles):
    # copies: the orientation fix below writes to ``triangles``
    coords = np.array(coords, dtype=float)
    triangles = np.asarray(triangles)
    if triangles.size and not np.issubdtype(triangles.dtype, np.integer):
        raise MeshError(f"triangle vertex indices must be integers, got dtype {triangles.dtype}")
    triangles = triangles.astype(np.int64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise MeshError("vertex array must have shape (NV, 2)")
    if not np.isfinite(coords).all():
        raise MeshError("non-finite vertex coordinate")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError("triangle array must have shape (NT, 3)")
    if not triangles.shape[0]:
        raise MeshError("empty triangle array: a mesh needs at least one triangle")
    nv = coords.shape[0]
    if triangles.min() < 0 or triangles.max() >= nv:
        raise MeshError("triangle vertex index out of range")
    if np.unique(triangles).shape[0] != nv:
        raise MeshError("non-conforming mesh: unused vertex")

    # positive orientation; a zero area is a degenerate input
    area2 = _corner_geometry(coords, triangles)[0]
    if np.any(area2 == 0.0):
        raise MeshError("degenerate triangle with zero area")
    flip = area2 < 0.0
    triangles[flip] = triangles[np.ix_(np.nonzero(flip)[0], [0, 2, 1])]

    key = np.sort(triangles, axis=1)
    if np.unique(key, axis=0).shape[0] != triangles.shape[0]:
        raise MeshError("non-conforming mesh: duplicated triangle")
    return coords, triangles


def load_initial_mesh(vertex_array, triangle_array):
    """Build an initial mesh from raw arrays, assigning reference edges.

    The boundary is homogeneous Dirichlet throughout, derived from the edge
    table. Every vertex is used, so local vertex numbers are the forest's ids.
    Raises :class:`MeshError` for malformed arrays and for a mesh that is
    not a conforming triangulation: an unused vertex, a degenerate or
    duplicated triangle, an edge of three triangles, two vertices at one
    point, a fold, a vertex in a triangle it is not a corner of, or two
    crossing edges.
    """
    coords, triangles = _validate_initial(vertex_array, triangle_array)
    triangles = _assign_reference_edges(coords, triangles)
    forest = MeshForest(coords, triangles)
    mesh = Mesh(forest, np.arange(triangles.shape[0], dtype=np.int64))
    forest.vboundary = mesh.is_boundary_vertex.copy()
    mesh.validate()
    # after the conformity checks, which name an edge of three triangles
    # first: two positively oriented triangles on one side of an edge run
    # it in the same direction
    if np.unique(coords, axis=0).shape[0] != coords.shape[0]:
        raise MeshError("repeated vertex coordinates")
    directed = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    if np.unique(directed, axis=0).shape[0] != directed.shape[0]:
        raise MeshError("folded mesh: two triangles on one side of an edge")
    _reject_overlaps(coords, triangles, mesh.edges)
    return mesh


def _orient(a, b, c):
    """Twice the signed area of the triangles (a, b, c), points (..., 2)."""
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def _box_pairs(lo, hi, lo2, hi2, axis):
    """Index pairs (i, j) of the boxes ``[lo, hi]`` (n, 2) and ``[lo2, hi2]``
    (m, 2) where box j starts in the range of box i along ``axis`` and the
    ranges along the other axis meet."""
    other = 1 - axis
    order = np.argsort(lo2[:, axis], kind="stable")
    starts = lo2[order, axis]
    first = np.searchsorted(starts, lo[:, axis], "left")
    counts = np.searchsorted(starts, hi[:, axis], "right") - first
    i = np.repeat(np.arange(lo.shape[0]), counts)
    j = order[np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(i.size)]
    meet = (lo2[j, other] <= hi[i, other]) & (lo[i, other] <= hi2[j, other])
    return i[meet], j[meet]


def _reject_overlaps(coords, triangles, edges):
    """Raise :class:`MeshError` when a vertex lies in a closed triangle it
    is not a corner of, or two edges cross in their interiors, naming the
    pair with the smallest indices. Triangles are positively oriented;
    every pair with meeting bounding boxes is tested, swept along the axis
    on which the vertices spread more (x on a tie), so that the boxes of a
    long strip do not all start in the range of every other."""
    axis = int(np.ptp(coords[:, 1]) > np.ptp(coords[:, 0]))
    p = coords[triangles]
    t, v = _box_pairs(p.min(axis=1), p.max(axis=1), coords, coords, axis)
    keep = (triangles[t] != v[:, None]).all(axis=1)
    t, v = t[keep], v[keep]
    q, x = p[t], coords[v]
    inside = ((_orient(q[:, 0], q[:, 1], x) >= 0.0) & (_orient(q[:, 1], q[:, 2], x) >= 0.0)
              & (_orient(q[:, 2], q[:, 0], x) >= 0.0))
    if inside.any():
        t, v = t[inside], v[inside]
        k = np.lexsort((v, t))[0]
        raise MeshError(f"overlapping triangles: vertex {v[k]} lies in triangle {t[k]}")
    a, b = coords[edges[:, 0]], coords[edges[:, 1]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    i, j = _box_pairs(lo, hi, lo, hi, axis)
    ai, bi, aj, bj = a[i], b[i], a[j], b[j]
    cross = ((np.sign(_orient(ai, bi, aj)) * np.sign(_orient(ai, bi, bj)) < 0.0)
             & (np.sign(_orient(aj, bj, ai)) * np.sign(_orient(aj, bj, bi)) < 0.0))
    if cross.any():
        e, f = np.minimum(i, j)[cross], np.maximum(i, j)[cross]
        k = np.lexsort((f, e))[0]
        raise MeshError(f"overlapping triangles: edges {edges[e[k]].tolist()} and "
                        f"{edges[f[k]].tolist()} cross")


def _close(edge_marked, ref_edge, edge_tris, max_passes):
    """Close the edge marks to conformity, in place.

    Every triangle touching a marked edge gets its reference edge marked,
    one frontier of newly marked edges per pass. Each pass marks the
    reference edge of at least one more triangle, so with ``max_passes``
    set to the triangle count a closure that needs more passes is a logic
    error; it fails loudly instead of looping.
    """
    frontier = np.flatnonzero(edge_marked)
    passes = 0
    while frontier.size:
        passes += 1
        if passes > max_passes:
            raise MeshError("closure exceeded its step budget; refinement logic error")
        tris = edge_tris[frontier].ravel()
        reached = ref_edge[tris[tris >= 0]]
        frontier = np.unique(reached[~edge_marked[reached]])
        edge_marked[frontier] = True


def refine_nvb(mesh, marked):
    """Bisect the marked triangles and close the mesh to conformity.

    Marked triangles are bisected at their reference edge; the closure
    marks the reference edge of every triangle that received a marked edge
    until the edge set is compatible, then all triangles are split in one
    pass (into 2, 3 or 4 sons depending on how many of their edges are
    marked). ``marked`` is an array or list of integer triangle indices;
    a boolean mask, floats or a set raise :class:`MeshError`. Returns the
    refined mesh and a :class:`RefinementRecord`.

    Nodes and vertices are created in bulk, in the order of bisection
    events per refined triangle (ascending): the triangle itself, then son
    A if its edge 2 is marked, then son B if its edge 1 is marked. Sons
    and midpoints that already exist in the forest are reused.
    """
    nt = mesh.n_elements
    marked = np.asarray(marked)
    if marked.size and not np.issubdtype(marked.dtype, np.integer):
        raise MeshError(f"marked triangles must be integer indices, got dtype {marked.dtype}")
    marked = np.unique(marked.astype(np.int64))
    if marked.size and (marked[0] < 0 or marked[-1] >= nt):
        raise MeshError("marked triangle index out of range")
    if marked.size == 0:
        return mesh, RefinementRecord(
            marked=marked, refined=marked, sons_of=marked, nt_before=nt, nt_after=nt
        )

    edges, tri_edges, edge_tris, counts = mesh._edge_data
    ref_edge = tri_edges[:, 0]
    edge_marked = np.zeros(edges.shape[0], dtype=bool)
    edge_marked[ref_edge[marked]] = True
    _close(edge_marked, ref_edge, edge_tris, max_passes=nt)

    pattern = edge_marked[tri_edges]
    refined_idx = np.flatnonzero(pattern.any(axis=1))
    split_a = pattern[refined_idx, 2]
    split_b = pattern[refined_idx, 1]
    forest = mesh.forest
    nid = mesh.node_ids[refined_idx]
    tri = forest.tri[nid]
    a, b, c = tri.T

    # bisection events, in order: (element, kind) with kind 0 = the element
    # at edge 0, 1 = son A = (c, a, m) at edge 2, 2 = son B = (b, c, m) at edge 1
    ev_t, ev_kind = np.nonzero(np.column_stack([np.ones_like(split_a), split_a, split_b]))
    ev_edge = tri_edges[refined_idx[ev_t], np.array([0, 2, 1])[ev_kind]]
    mids = forest.midpoints(mesh.vertex_gids[edges[ev_edge]], counts[ev_edge] == 1)
    m0 = mids[ev_kind == 0]

    # an event creates two sons unless its target node already has them;
    # a son of an element without sons does not exist yet (id -1)
    old_sons = forest.sons[nid]
    known = np.column_stack([nid, old_sons])[ev_t, ev_kind]
    creating = (known < 0) | (forest.sons[known, 0] < 0)
    first_new = forest.n_nodes + 2 * (np.cumsum(creating) - 1)
    sons = old_sons.copy()
    fresh = (ev_kind == 0) & creating
    sons[ev_t[fresh]] = first_new[fresh, None] + np.array([0, 1])
    targets = np.column_stack([nid, sons])[ev_t, ev_kind]
    target_tri = np.stack(
        [tri, np.column_stack([c, a, m0]), np.column_stack([b, c, m0])], axis=1
    )[ev_t, ev_kind]
    target_gen = forest.gen[nid][ev_t] + (ev_kind > 0)
    forest.split(targets[creating], target_tri[creating], target_gen[creating], mids[creating])

    # leaves per refined element: son A or its two sons, then son B or its two sons
    leaves = np.full((refined_idx.size, 2, 2), -1, dtype=np.int64)
    for side, split in ((0, split_a), (1, split_b)):
        leaves[:, side, 0] = sons[:, side]
        leaves[split, side] = forest.sons[sons[split, side]]
    leaves = leaves[leaves >= 0]
    record = RefinementRecord(marked=marked, refined=refined_idx, sons_of=2 + split_a + split_b,
                              nt_before=nt, nt_after=nt - refined_idx.size + leaves.size)
    # the kept elements, then the sons: the record's layout
    refined_mesh = Mesh(forest, record.carry(mesh.node_ids, leaves))
    # carry the geometry the coarse mesh holds; only the sons' is computed
    held = [name for name in ("areas", "basis_gradients") if name in vars(mesh)]
    if refined_idx.size < nt and held:
        area2, edges = _corner_geometry(forest.coords, forest.tri[leaves])
        sons = {"areas": 0.5 * area2, "basis_gradients": _basis_gradients(area2, edges)}
        for name in held:
            setattr(refined_mesh, name, _read_only(record.carry(vars(mesh)[name], sons[name])))
    return refined_mesh, record


def element_maps(records, cover):
    """Per mesh of a chain of refinements, the index of its element that
    holds each element of a finer mesh: ``len(records) + 1`` arrays, the
    first mesh's first and ``cover`` last. ``records[k]`` refines mesh
    ``k`` into mesh ``k + 1``, and ``cover`` maps the finer mesh to the
    last mesh of the chain (``arange`` for that mesh itself); the maps are
    composed from the records' :attr:`~RefinementRecord.parents`."""
    maps = [cover]
    for record in reversed(records):
        maps.append(record.parents[maps[-1]])
    return maps[::-1]


def uniform_refine(mesh, times=1):
    """Bisect every triangle, ``times`` rounds."""
    for _ in range(times):
        mesh, _ = refine_nvb(mesh, np.arange(mesh.n_elements))
    return mesh


def refines(fine, meshes):
    """The marks of one :meth:`MeshForest.ancestors` walk up from the
    leaves of ``fine`` when ``fine`` refines every mesh of ``meshes``;
    ``None`` otherwise, also when a mesh belongs to another forest.

    ``fine`` refines a mesh when every leaf of that mesh is a leaf of
    ``fine`` or an ancestor of one. The walk stops at the leaves that all
    ``meshes`` share, since no ancestor of such a leaf is a leaf of any of
    them. For one mesh it then marks exactly the nodes from its leaves down
    to the leaves of ``fine``.
    """
    forest = fine.forest
    if any(mesh.forest is not forest for mesh in meshes):
        return None
    shared = np.bincount(np.concatenate([mesh.node_ids for mesh in meshes]),
                         minlength=forest.n_nodes) == len(meshes)
    marks = forest.ancestors(fine.node_ids, stop=shared)
    if all(marks[mesh.node_ids].all() for mesh in meshes):
        return marks
    return None


def overlay(m1, m2):
    """Coarsest common refinement of two meshes from the same initial mesh.

    Computed on the genealogy: per region the deeper of the two leaves
    wins, so a leaf stays unless it is a strict ancestor of a leaf of the
    other mesh; one walk up from the parents of both leaf sets marks those.
    The result refines both inputs and satisfies
    ``#(m1 + m2) <= #m1 + #m2 - #initial``.
    """
    if m1.forest is not m2.forest:
        raise MeshError("genealogy mismatch: meshes do not share an initial triangulation")
    forest = m1.forest
    up = forest.parent[np.concatenate([m1.node_ids, m2.node_ids])]
    skip = forest.ancestors(np.unique(up[up >= 0]))
    from_m1 = m1.node_ids[~skip[m1.node_ids]]
    skip[m1.node_ids] = True  # a leaf of both meshes is taken once
    from_m2 = m2.node_ids[~skip[m2.node_ids]]
    return Mesh(forest, np.concatenate([from_m1, from_m2]))


def shape_regularity(mesh, elements=slice(None)):
    """Smallest gamma with gamma^-1 sqrt(|T|) <= diam(T) <= gamma sqrt(|T|)
    for all T of ``elements`` (default: all)."""
    edges = _corner_geometry(mesh.vertices, mesh.triangles[elements])[1]
    diam = np.hypot(edges[..., 0], edges[..., 1]).max(axis=1)
    root_area = np.sqrt(mesh.areas[elements])
    return float(np.max(np.maximum(diam / root_area, root_area / diam)))


def closure_audit(records):
    """Smallest C with #T_l - #T_0 <= C * sum of #marked over earlier steps."""
    if not records:
        raise MeshError("closure audit needs at least one refinement record")
    marked = np.cumsum([len(rec.marked) for rec in records])
    growth = np.array([rec.nt_after for rec in records]) - records[0].nt_before
    return float(np.max(growth[marked > 0] / marked[marked > 0], initial=0.0))


def audit_refinement(old_mesh, new_mesh, record):
    """Structural checks after one refinement step; raises on violation.

    Verifies conformity of the result, the two-sons inequality
    ``#refined <= #new - #old``, that every new leaf lies in an old leaf,
    exact area halving at every node below the old leaves down to the new
    leaves, and generation increments of one per bisection. Once the new
    mesh refines the old one, the marks of :func:`refines` are exactly the
    old leaves and those nodes, whatever other meshes of a shared forest
    refined below the new leaves (``notes/decisions.md``).
    """
    new_mesh.validate()
    if len(record.refined) > record.nt_after - record.nt_before:
        raise MeshError("refined elements exceed the element-count growth")
    forest = new_mesh.forest
    if old_mesh.forest is not forest:
        raise MeshError("new mesh does not share the old mesh's genealogy")
    between = refines(new_mesh, [old_mesh])
    if between is None:
        raise MeshError("new mesh does not refine the old mesh")
    between[old_mesh.node_ids] = False
    nodes = np.flatnonzero(between)
    parents = forest.parent[nodes]
    a_parent = forest.node_area(parents)
    if np.any(np.abs(forest.node_area(nodes) - 0.5 * a_parent) > 1e-12 * a_parent):
        raise MeshError("bisection did not halve the element area")
    if np.any(forest.gen[nodes] != forest.gen[parents] + 1):
        raise MeshError("son generation is not parent generation + 1")
    if np.any(record.sons_of < 2):
        raise MeshError("refined triangle with fewer than two sons")


# -- plain-text mesh files --------------------------------------------------

def _text_rows(array, row_format):
    """Rows of a 2-D array as lines ``row_format % row``, in one format
    call; ``%r`` gives a float its shortest round-trip form."""
    if len(array) == 0:
        return []
    return ["\n".join([row_format] * len(array)) % tuple(array.ravel().tolist())]


def write_mesh(mesh, path):
    """Write the line-oriented mesh format: header ``NV NT``, vertices,
    triangles as ``v0 v1 v2 ref_slot``, then boundary edges ``va vb 1`` (the
    marker 1 is homogeneous Dirichlet, the only kind).

    Triples are stored with their reference edge normalised to slot 0.
    """
    lines = [f"{mesh.n_vertices} {mesh.n_elements}",
             *_text_rows(mesh.vertices, "%r %r"),
             *_text_rows(mesh.triangles, "%d %d %d 0"),
             *_text_rows(mesh.boundary_edges, "%d %d 1")]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- builtin initial meshes ---------------------------------------------------

def unit_square_mesh(cross=False):
    """Unit square as 2 triangles, or as the 4-triangle cross mesh with a
    centre vertex (the smallest mesh with an interior degree of freedom)."""
    if cross:
        vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]
        triangles = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    else:
        vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        triangles = [(0, 1, 2), (0, 2, 3)]
    return load_initial_mesh(vertices, triangles)


def lshape_mesh():
    """L-shaped domain (-1,1)^2 minus [0,1]x[-1,0] as 6 triangles.

    All diagonals meet in the reentrant corner at the origin.
    """
    vertices = [
        (-1.0, -1.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 0.0),
        (1.0, 0.0), (-1.0, 1.0), (0.0, 1.0), (1.0, 1.0),
    ]
    triangles = [(0, 1, 3), (0, 3, 2), (2, 3, 5), (3, 6, 5), (3, 4, 7), (3, 7, 6)]
    return load_initial_mesh(vertices, triangles)
