"""Polytope class predicates: simple, smooth, reflexive, monotone, UT-free,
deeply smooth/monotone, quasi-smooth polygons.

Every negative answer carries a witness (offending vertex, face, or corner
point) so callers can explain failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import gcd

from .intlinalg import kernel_basis, primitive_part, scaled_inverse, solve_rational
from .polytope import (
    FaceRef,
    HPolytope,
    Slice,
    convex_hull,
    dot,
    face_slice,
    normally_isomorphic,
    per_polytope,
)
from .polytope import _bits, _face_facets, _integerize, _point, _row_vertex_masks

__all__ = [
    "ClassReport",
    "classify",
    "is_smooth",
    "is_reflexive",
    "is_monotone",
    "is_ut_free",
    "is_deeply_smooth",
    "deeply_smooth_characterizations_agree",
    "is_quasi_smooth_polygon",
    "vertex_edge_directions",
]


@per_polytope
def _vertex_cone(p: HPolytope, vi: int) -> tuple:
    """(d, dirs) at vertex vi: dirs are the sorted primitive edge
    directions.  When exactly n rows are tight (a simple vertex), d = ±
    their determinant and dirs come from one scaled inverse: the edge
    leaving facet k is the primitive part of −(column k of A^-1), since
    A d_k = −e_k; for d = ±1 that column is already primitive.  Otherwise d
    is None and dirs come from the adjacency scan."""
    tight = _bits(p.vertex_masks()[vi])
    if len(tight) == p.dim:
        d, e = scaled_inverse([p.normals[i] for i in tight])
        s = -1 if d > 0 else 1
        dirs = [tuple(s * x for x in col) for col in zip(*e)]
        if d not in (1, -1):
            dirs = [primitive_part(col) for col in dirs]
    else:
        d, verts = None, p.vertices()
        dirs = [
            _integerize([a - b for a, b in zip(verts[wj], verts[vi])])
            for wj in p.adjacent_vertex_indices(vi)
        ]
    return d, tuple(sorted(dirs))


def vertex_edge_directions(p: HPolytope, vi: int) -> tuple:
    """Primitive edge directions at vertex vi of a simple polytope, sorted."""
    return _vertex_cone(p, vi)[1]


@per_polytope
def is_smooth(p: HPolytope):
    """(flag, witness): at every vertex the primitive edge directions must
    form a lattice basis; the witness is the first offending vertex.  For
    primitive normals that holds exactly when the n tight rows have
    determinant ±1."""
    if p.dim == 0:
        return True, None
    verts = p.vertices()
    if not p.is_simple():
        bad = next(v for v, t in zip(verts, p.vertex_masks()) if t.bit_count() != p.dim)
        return False, bad
    for i, v in enumerate(verts):
        if abs(_vertex_cone(p, i)[0]) != 1:
            return False, v
    return True, None


@per_polytope
def is_reflexive(p: HPolytope) -> bool:
    """Lattice polytope, origin interior, every facet inequality u·x <= 1."""
    return (
        p.dim > 0
        and p.origin_interior()
        and all(c == 1 for c in p.offsets)
        and p.is_lattice()
    )


def is_monotone(p: HPolytope) -> bool:
    return is_smooth(p)[0] and is_reflexive(p)


def _two_faces(p: HPolytope):
    """The 2-faces as tight tuples.  Non-simple polytopes, which show up in
    displacement slices, take n − 2 facet steps down from the full vertex
    set; a face's tight tuple is then the rows whose vertex set contains it."""
    if p.is_simple():
        return tuple(f.tight for f in p.faces(p.dim - 2))
    on_row = _row_vertex_masks(p.vertex_masks(), p.nfacets)
    level = {(1 << len(p.vertices())) - 1}
    for _ in range(p.dim - 2):
        level = {g for f in level for g in _face_facets(f, on_row)}
    return tuple(sorted(tuple(i for i, r in enumerate(on_row) if r & f == f) for f in level))


def _is_unimodular_triangle_face(p: HPolytope, tight) -> bool:
    vs = p.face_vertices(FaceRef(tight, p.dim - 2))
    if len(vs) != 3:
        return False
    if not all(all(isinstance(x, int) for x in v) for v in vs):
        return False
    a, b, c = vs
    e, f = [x - y for x, y in zip(b, a)], [x - y for x, y in zip(c, a)]
    return gcd(*(e[i] * f[j] - e[j] * f[i] for i, j in combinations(range(len(a)), 2))) == 1


@per_polytope
def is_ut_free(p: HPolytope):
    """(flag, witness 2-face): a 2-face is a unimodular triangle iff it has
    exactly 3 vertices a, b, c, all integer, and the 2x2 minors of
    (b - a, c - a) have gcd 1 (equivalently, exactly 3 lattice points)."""
    if not p.is_simple():
        raise ValueError("UT-freeness requires a simple polytope")
    if p.dim < 2:
        return True, None
    for tight in _two_faces(p):
        if _is_unimodular_triangle_face(p, tight):
            return False, FaceRef(tight, p.dim - 2)
    return True, None


def _ut_free_region(p: HPolytope) -> bool:
    # UT-freeness for arbitrary (possibly non-simple, non-lattice) regions.
    if p.dim < 2:
        return True
    return not any(_is_unimodular_triangle_face(p, t) for t in _two_faces(p))


@per_polytope
def is_deeply_smooth(p: HPolytope):
    """(flag, witness corner): P must contain every vertex's corner
    parallelepiped; the witness is the first missing corner point.

    The corners of v are v + Σ_{i∈S} d_i over the subsets S of its edge
    directions, so row j holds at all of them iff
    u_j·v + Σ_i max(0, u_j·d_i) <= c_j, an O(m·n) test per vertex.  The
    corners v and v + d_i lie in P, so a vertex failing the test misses a
    corner of two or more directions; the corners are listed, in the order
    that fixes the witness, only at the first such vertex."""
    smooth, w = is_smooth(p)
    if not smooth or not p.is_lattice():
        raise ValueError("deep smoothness is defined for lattice smooth polytopes")
    rows = tuple(zip(p.normals, p.offsets))
    for i, v in enumerate(p.vertices()):
        dirs = vertex_edge_directions(p, i)
        if all(dot(u, v) + sum(max(0, dot(u, d)) for d in dirs) <= c for u, c in rows):
            continue
        for r in range(2, len(dirs) + 1):
            for subset in combinations(dirs, r):
                corner = tuple(
                    x + sum(d[j] for d in subset) for j, x in enumerate(v)
                )
                if not p.contains(corner):
                    return False, corner
    return True, None


def _slice_ut_free(s: Slice) -> bool:
    if s.is_empty or len(s.chart_vertices) < 3:
        return True
    if s.polytope is not None:
        return _ut_free_region(s.polytope)
    # degenerate slice: test inside the affine span of its own vertex set.
    # A unimodular triangle has lattice vertices, so with no integer vertex
    # to chart from there is none.
    rank = s.points_affine_rank
    p0 = next((v for v in s.chart_vertices if all(isinstance(x, int) for x in v)), None)
    if rank < 2 or p0 is None:
        return True
    return _ut_free_region(convex_hull(_project_to_span(s.chart_vertices, p0), rank))


def _project_to_span(pts, p0):
    """Exact coordinates of pts in a lattice basis of the saturated lattice
    of their affine span, from the integer point p0 of that span: lattice
    points of the span get integer coordinates and no others do."""
    diffs = [_integerize([a - b for a, b in zip(p, p0)]) for p in pts if p != p0]
    # the span is a proper subspace (the slice is degenerate), so its
    # annihilator is nonzero
    basis = kernel_basis(kernel_basis(diffs))
    gram = [[dot(a, b) for b in basis] for a in basis]
    out = []
    for p in pts:
        rhs = [dot(b, [x - y for x, y in zip(p, p0)]) for b in basis]
        out.append(_point(solve_rational(gram, rhs)))
    return out


def deeply_smooth_characterizations_agree(p: HPolytope):
    """Evaluate the three equivalent descriptions of deep smoothness
    independently: corner parallelepipeds; face displacements keeping the
    face's normal fan; UT-freeness of P and of all face displacements."""
    smooth, _ = is_smooth(p)
    if not smooth or not p.is_lattice():
        raise ValueError("requires a lattice smooth polytope")
    c1 = is_deeply_smooth(p)[0]

    c2 = True
    for codim in range(1, p.dim + 1):
        for f in p.faces(codim):
            sf = face_slice(p, f, inset=0)
            sd = face_slice(p, f, inset=1)
            if sd.is_empty or sd.polytope is None:
                c2 = False
                break
            if sf.chart_dim > 0 and not normally_isomorphic(sf.polytope, sd.polytope):
                c2 = False
                break
        if not c2:
            break

    c3 = is_ut_free(p)[0]
    if c3:
        for codim in range(1, p.dim + 1):
            for f in p.faces(codim):
                if not _slice_ut_free(face_slice(p, f, inset=1)):
                    c3 = False
                    break
            if not c3:
                break
    return c1, c2, c3


def is_quasi_smooth_polygon(p: HPolytope) -> bool:
    """Each vertex must be at lattice distance one from the line through its
    neighbouring boundary lattice points."""
    if p.dim != 2:
        raise ValueError("quasi-smoothness is defined for polygons")
    if not p.is_lattice():
        raise ValueError("quasi-smoothness needs a lattice polygon")
    verts = p.vertices()
    for i, v in enumerate(verts):
        nbrs = []
        for j in p.adjacent_vertex_indices(i):
            d = _integerize([a - b for a, b in zip(verts[j], v)])
            nbrs.append(tuple(a + b for a, b in zip(v, d)))
        if len(nbrs) != 2:
            return False
        direction = [a - b for a, b in zip(nbrs[0], nbrs[1])]
        e = _integerize(direction)
        u = (-e[1], e[0])
        if abs(dot(u, v) - dot(u, nbrs[0])) != 1:
            return False
    return True


@dataclass
class ClassReport:
    """Flags for one polytope; UT/deep flags are None when undefined
    (non-simple, non-lattice, or non-smooth inputs)."""

    simple: bool
    lattice: bool
    smooth: bool
    reflexive: bool
    monotone: bool
    ut_free: bool | None
    deeply_smooth: bool | None
    deeply_monotone: bool | None
    witnesses: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "simple": self.simple,
            "lattice": self.lattice,
            "smooth": self.smooth,
            "reflexive": self.reflexive,
            "monotone": self.monotone,
            "ut_free": self.ut_free,
            "deeply_smooth": self.deeply_smooth,
            "deeply_monotone": self.deeply_monotone,
            "witnesses": {k: list(v) if isinstance(v, tuple) else v for k, v in self.witnesses.items()},
        }


def classify(p: HPolytope) -> ClassReport:
    witnesses = {}
    simple = p.is_simple()
    lattice = p.is_lattice()
    smooth, w = is_smooth(p)
    if w is not None:
        witnesses["smooth"] = w
    reflexive = is_reflexive(p)
    monotone = smooth and reflexive
    ut_free = deeply_smooth = deeply_monotone = None
    if simple and lattice:
        ut_free, wf = is_ut_free(p)
        if wf is not None:
            witnesses["ut_free"] = wf.tight
    if smooth and lattice:
        deeply_smooth, wc = is_deeply_smooth(p)
        if wc is not None:
            witnesses["deeply_smooth"] = wc
        deeply_monotone = deeply_smooth and monotone
    return ClassReport(
        simple=simple,
        lattice=lattice,
        smooth=smooth,
        reflexive=reflexive,
        monotone=monotone,
        ut_free=ut_free,
        deeply_smooth=deeply_smooth,
        deeply_monotone=deeply_monotone,
        witnesses=witnesses,
    )
