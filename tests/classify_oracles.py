"""The classification and basis-search paths ewaldkit ran before it read
one scaled inverse per vertex, the presorted E(P) and the row-side vertex
masks, kept as differential-test references.

Edge directions come from a scan over the other vertices for those sharing
n − 1 tight rows, smoothness from the determinant of those directions, deep
smoothness from testing every corner of every vertex with contains or from
the margins and slopes of every vertex's chart (polytope._vertex_chart),
each a dot product with the chart's edge rays, each unimodular-basis search
re-sorts its candidate set first, and a 2-face's vertices come from a scan
of every vertex's tight rows.  A lower-dimensional slice region is tested
for UT-freeness on a chart of its own span, hulled there.
"""

from itertools import combinations
from math import gcd

from ewaldkit.classify import _ut_free_region
from ewaldkit.ewald import ewald_set
from ewaldkit.intlinalg import _extend_saturated, _identity, det, kernel_basis
from ewaldkit.polytope import _integerize, _point, _vertex_chart, convex_hull, dot
from incidence_oracles import mask_adjacent_vertex_indices, two_faces
from lattice_oracles import basis_coordinates, chart_vertices, points_affine_rank


def adjacency_edge_directions(p, vi):
    """Primitive edge directions at vertex vi, from the adjacent vertices."""
    verts = p.vertices()
    dirs = []
    for wj in mask_adjacent_vertex_indices(p, vi):
        diff = [a - b for a, b in zip(verts[wj], verts[vi])]
        dirs.append(_integerize(diff))
    return tuple(sorted(dirs))


def determinant_smooth(p):
    """is_smooth: (flag, first vertex whose edge directions are no basis)."""
    if p.dim == 0:
        return True, None
    verts = p.vertices()
    if not p.is_simple():
        return False, next(v for v, t in zip(verts, p.vertex_tight_sets()) if len(t) != p.dim)
    for i, v in enumerate(verts):
        dirs = adjacency_edge_directions(p, i)
        if len(dirs) != p.dim or abs(det(dirs)) != 1:
            return False, v
    return True, None


def corner_scan_deeply_smooth(p):
    """is_deeply_smooth: (flag, first corner point outside P)."""
    if not determinant_smooth(p)[0] or not p.is_lattice():
        raise ValueError("deep smoothness is defined for lattice smooth polytopes")
    for i, v in enumerate(p.vertices()):
        dirs = adjacency_edge_directions(p, i)
        for r in range(2, len(dirs) + 1):
            for subset in combinations(dirs, r):
                corner = tuple(x + sum(d[j] for d in subset) for j, x in enumerate(v))
                if not p.contains(corner):
                    return False, corner
    return True, None


def chart_deeply_smooth(p):
    """is_deeply_smooth by the margin test on every vertex's chart: row j
    holds at every corner of v iff its margin c_j − u_j·v is at least the
    sum of its positive slopes u_j·d_t over the chart's edge rays d_t, each
    its own dot product; the corners are listed at the first vertex that
    fails."""
    if not determinant_smooth(p)[0] or not p.is_lattice():
        raise ValueError("deep smoothness is defined for lattice smooth polytopes")
    for i, v in enumerate(p.vertices()):
        rays = _vertex_chart(p, i)[1]
        rows = [(c - dot(u, v), [dot(u, d) for d in rays]) for u, c in zip(p.normals, p.offsets)]
        if all(margin >= sum(a for a in slopes if a > 0) for margin, slopes in rows):
            continue
        dirs = adjacency_edge_directions(p, i)
        for r in range(2, len(dirs) + 1):
            for subset in combinations(dirs, r):
                corner = tuple(x + sum(d[j] for d in subset) for j, x in enumerate(v))
                if not p.contains(corner):
                    return False, corner
    return True, None


def missing_corners_at_first_failure(p):
    """How many corners the first vertex with a missing corner misses."""
    for i, v in enumerate(p.vertices()):
        dirs = adjacency_edge_directions(p, i)
        missing = sum(
            1
            for r in range(2, len(dirs) + 1)
            for subset in combinations(dirs, r)
            if not p.contains(tuple(x + sum(d[j] for d in subset) for j, x in enumerate(v)))
        )
        if missing:
            return missing
    return 0


def sorted_basis_search(points, n):
    """find_unimodular_basis: sort the candidates by max-norm then lex, then
    search depth-first with the saturation echelon of each prefix."""
    if n <= 0:
        raise ValueError("dimension must be positive")
    cands = sorted(
        {tuple(int(x) for x in p) for p in points if any(p)},
        key=lambda p: (max(abs(x) for x in p), p),
    )
    cands = [p for p in cands if len(p) == n]
    chosen = []

    def extend(start, dual):
        if len(chosen) == n:
            return True
        for idx in range(start, len(cands)):
            rest = _extend_saturated(dual, cands[idx])
            if rest is not None:
                chosen.append(cands[idx])
                if extend(idx + 1, rest):
                    return True
                chosen.pop()
        return False

    if extend(0, _identity(n)):
        return tuple(chosen)
    return None


def sorted_weak_basis(p):
    """weak_ewald's basis: the search over the unsorted set E(P)."""
    return sorted_basis_search(ewald_set(p).points, p.dim)


def sorted_strong_bases(p):
    """strong_ewald's bases: per facet, filter E(P) and search it, up to and
    including the first facet without a basis."""
    e = ewald_set(p).ordered()
    bases = []
    for u, c in zip(p.normals, p.offsets):
        bases.append(sorted_basis_search([lam for lam in e if dot(u, lam) == c], p.dim))
        if bases[-1] is None:
            break
    return tuple(bases)


def scanned_unimodular_triangle(p, face):
    """Whether the 2-face with facet mask face is a unimodular triangle,
    its vertices found by a scan of every vertex's tight rows."""
    vs = [v for v, t in zip(p.vertices(), p.vertex_masks()) if t & face == face]
    if len(vs) != 3:
        return False
    if not all(all(isinstance(x, int) for x in v) for v in vs):
        return False
    a, b, c = vs
    e, f = [x - y for x, y in zip(b, a)], [x - y for x, y in zip(c, a)]
    return gcd(*(e[i] * f[j] - e[j] * f[i] for i, j in combinations(range(len(a)), 2))) == 1


def scanned_ut_free(p):
    """(flag, facets of the first unimodular-triangle 2-face) over the
    2-faces of incidence_oracles.two_faces, each scanned as above: the
    verdict of is_ut_free and _ut_free_region, and on a simple polytope the
    witness of is_ut_free."""
    if p.dim < 2:
        return True, None
    for tight in two_faces(p):
        if scanned_unimodular_triangle(p, sum(1 << i for i in tight)):
            return False, tight
    return True, None


def _project_to_span(pts, p0):
    """Exact coordinates of pts in a lattice basis of the saturated lattice
    of their affine span, from the integer point p0 of that span: lattice
    points of the span get integer coordinates and no others do."""
    diffs = [_integerize([a - b for a, b in zip(p, p0)]) for p in pts if p != p0]
    # the span is a proper subspace (the region is lower-dimensional), so
    # its annihilator is nonzero
    basis = kernel_basis(kernel_basis(diffs))
    return [_point(basis_coordinates(basis, [x - y for x, y in zip(p, p0)])) for p in pts]


def recharted_slice_ut_free(s):
    """UT-freeness of a lower-dimensional slice region, re-charted: its
    vertices in a lattice basis of their span's saturated lattice, from an
    integer vertex, and the hull of those coordinates tested as a
    full-dimensional polytope.  A unimodular triangle has lattice vertices,
    so a region of rank below 2 or with no integer vertex has none."""
    verts = chart_vertices(s)
    p0 = next((v for v in verts if all(isinstance(x, int) for x in v)), None)
    if points_affine_rank(s) < 2 or p0 is None:
        return True
    return _ut_free_region(convex_hull(_project_to_span(verts, p0), points_affine_rank(s)))
