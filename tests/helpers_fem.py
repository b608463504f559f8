"""Per-point and per-vertex oracles for P1 functions (test scale only)."""

import numpy as np


def restrict_functional(fine_mesh, coarse_mesh, fine_vector):
    """Adjoint of the prolongation: maps a fine nodal functional to coarse.

    Given r with r_i = <R, phi_i^fine>, returns the vector of
    <R, phi_j^coarse> for the coarse nodal basis prolongated to the fine
    mesh.
    """
    forest = fine_mesh.forest
    buf = np.zeros(forest.n_vertices)
    buf[fine_mesh.vertex_gids] = fine_vector
    coarse_gids = coarse_mesh.vertex_gids
    coarse_set = set(int(g) for g in coarse_gids)
    parents = forest.vertex_parents()
    for g in fine_mesh.vertex_gids[::-1]:
        g = int(g)
        if g in coarse_set or buf[g] == 0.0:
            continue
        pa, pb = parents[g]
        buf[pa] += 0.5 * buf[g]
        buf[pb] += 0.5 * buf[g]
        buf[g] = 0.0
    return buf[coarse_gids]


def evaluate(sol, points):
    """Point evaluation of a P1 function (test-scale: linear scan per point)."""
    mesh = sol.mesh
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    p = mesh.vertices
    t = mesh.triangles
    p0, p1, p2 = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    s2 = 2.0 * mesh.signed_areas
    out = np.empty(pts.shape[0])
    for k, x in enumerate(pts):
        d = x - p0
        lam2 = ((p1[:, 0] - p0[:, 0]) * d[:, 1] - (p1[:, 1] - p0[:, 1]) * d[:, 0]) / s2
        lam1 = (d[:, 0] * (p2[:, 1] - p0[:, 1]) - d[:, 1] * (p2[:, 0] - p0[:, 0])) / s2
        lam0 = 1.0 - lam1 - lam2
        inside = (lam0 >= -1e-12) & (lam1 >= -1e-12) & (lam2 >= -1e-12)
        hits = np.nonzero(inside)[0]
        if hits.size == 0:
            raise ValueError(f"point {x} lies outside the mesh")
        i = hits[0]
        vals = sol.values[t[i]]
        out[k] = lam0[i] * vals[0] + lam1[i] * vals[1] + lam2[i] * vals[2]
    return out if np.asarray(points).ndim > 1 else float(out[0])
