"""Polytope class predicates: simple, smooth, reflexive, monotone, UT-free,
deeply smooth/monotone, quasi-smooth polygons.

Every negative answer carries a witness (offending vertex, face, or corner
point) so callers can explain failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import combinations
from math import gcd

from .intlinalg import kernel_basis, primitive_part
from .polytope import (
    FaceRef,
    HPolytope,
    Slice,
    convex_hull,
    face_slice,
    normally_isomorphic,
    per_polytope,
)
from .polytope import _basis_coordinates, _bits, _face_facets, _integerize, _point, _row_masks, _walk_faces
from .polytope import _edges, _margins, _unimodular, _vertex_chart

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
def vertex_edge_directions(p: HPolytope, vi: int) -> tuple:
    """Primitive edge directions at vertex vi, sorted: the primitive part of
    w − v for each neighbour w of v (adjacent_vertex_indices)."""
    verts = p.vertices()
    v = verts[vi]
    return tuple(
        sorted(_integerize([a - b for a, b in zip(verts[w], v)]) for w in p.adjacent_vertex_indices(vi))
    )


@per_polytope
def is_smooth(p: HPolytope):
    """(flag, witness): at every vertex the primitive edge directions must
    form a lattice basis; the witness is the first offending vertex.  For
    primitive normals that holds exactly when the vertex is simple and the
    determinant of its n tight rows is ±1: at vertex 0 when its chart's
    rays are integral (_unimodular), and elsewhere on the edges to earlier
    vertices, with no elimination.  Along the edge (s, u, j) of _edges(p)[v]
    to a vertex u, |det A_v| = |det A_u|·M[u][s] / M[v][j] on the margin
    table M.  Vertices come in lexicographic order, the order of a generic
    linear functional, so every vertex but vertex 0 has an earlier
    neighbour (the simplex method's optimality rule): the first vertex with
    an earlier edge where M[u][s] != M[v][j] is the first whose |det| is
    not 1."""
    verts = p.vertices()
    if not p.is_simple():
        bad = next(v for v, t in zip(verts, p.vertex_masks()) if t.bit_count() != p.dim)
        return False, bad
    if not _unimodular(_vertex_chart(p, 0)[1]):
        return False, verts[0]
    m = _margins(p)
    bad = next((verts[v] for v, e in enumerate(_edges(p)) for s, u, j in e if u < v and m[u][s] != m[v][j]), None)
    return bad is None, bad


def _require_lattice_smooth(p: HPolytope, message: str) -> None:
    """Raise ValueError(message) unless p is a lattice smooth polytope, the
    domain of deep smoothness, first displacements and neatness."""
    if not is_smooth(p)[0] or not p.is_lattice():
        raise ValueError(message)


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
    """The 2-faces as vertex masks, lazily.  A polygon is its own 2-face.
    On a simple polytope they come in the order of faces(n − 2), straight
    off the face walk at depth n − 2; on a non-simple one, as met in
    displacement slices, from n − 2 facet steps (_face_facets) down from the
    full vertex set, in no order."""
    every = (1 << len(p.vertices())) - 1
    if p.dim == 2:
        return (every,)
    if p.is_simple():
        return (verts for codim, _, verts, _ in _walk_faces(p, [p.dim - 2]) if codim == p.dim - 2)
    level = {every}
    for _ in range(p.dim - 2):
        level = {g for f in level for g in _face_facets(f, _row_masks(p))}
    return level


def _is_unimodular_triangle_face(p: HPolytope, face: int) -> bool:
    """Whether the face with vertex mask face is a unimodular triangle:
    exactly 3 vertices a, b, c, all integer, and the 2x2 minors of
    (b − a, c − a) have gcd 1 (equivalently, exactly 3 lattice points)."""
    if face.bit_count() != 3:
        return False
    a, b, c = (p.vertices()[k] for k in _bits(face))
    if not all(isinstance(x, int) for x in a + b + c):
        return False
    e, f = [x - y for x, y in zip(b, a)], [x - y for x, y in zip(c, a)]
    return gcd(*(e[i] * f[j] - e[j] * f[i] for i, j in combinations(range(len(a)), 2))) == 1


def _unimodular_triangle(p: HPolytope) -> int:
    """The vertex mask of the first 2-face of _two_faces(p) that is a
    unimodular triangle, or 0: the one loop of both UT-freeness tests."""
    faces = _two_faces(p) if p.dim >= 2 else ()
    return next((v for v in faces if _is_unimodular_triangle_face(p, v)), 0)


@per_polytope
def is_ut_free(p: HPolytope):
    """(flag, witness 2-face): the witness is the first 2-face, in the order
    of faces(n − 2), that is a unimodular triangle, named by the rows tight
    on all its vertices, which on a simple polytope are its n − 2 facets."""
    if not p.is_simple():
        raise ValueError("UT-freeness requires a simple polytope")
    verts = _unimodular_triangle(p)
    if not verts:
        return True, None
    return False, FaceRef(tuple(i for i, r in enumerate(_row_masks(p)) if r & verts == verts), p.dim - 2)


def _ut_free_region(p: HPolytope) -> bool:
    # UT-freeness for arbitrary (possibly non-simple, non-lattice) regions.
    return not _unimodular_triangle(p)


@per_polytope
def is_deeply_smooth(p: HPolytope):
    """(flag, witness corner): P must contain every vertex's corner
    parallelepiped; the witness is the first missing corner point.

    The corners of v are v + Σ_{t∈S} d_t over the subsets S of its edge
    rays, so row j holds at all of them iff c_j − u_j·v >= Σ_t max(0, u_j·d_t),
    an O(m·n) test per vertex (the rows through v, of margin 0, hold at
    every corner).  On the margin table M and the edge graph, the edge
    leaving row s_t ends at w_t = v + λ_t d_t with λ_t = M[w_t][s_t], so
    u_j·d_t = (M[v][j] − M[w_t][j]) / λ_t, an integer on a lattice smooth P.
    The corners v and v + d_t lie in P, so a vertex failing the test misses
    a corner of two or more directions; the corners are listed, in the
    order that fixes the witness, only at the first such vertex, over the
    sorted edge rays of its chart (polytope._vertex_chart), which are its
    primitive edge directions."""
    _require_lattice_smooth(p, "deep smoothness is defined for lattice smooth polytopes")
    margins = _margins(p)
    for i, (v, edges) in enumerate(zip(p.vertices(), _edges(p))):
        ends = [(margins[w], margins[w][s]) for s, w, _ in edges]
        if all(x >= sum([(x - mw[j]) // lam for mw, lam in ends if mw[j] < x]) for j, x in enumerate(margins[i]) if x):
            continue
        dirs = sorted(_vertex_chart(p, i)[1])
        for r in range(2, len(dirs) + 1):
            for subset in combinations(dirs, r):
                corner = tuple(x + sum(d[j] for d in subset) for j, x in enumerate(v))
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
    return [_point(_basis_coordinates(basis, [x - y for x, y in zip(p, p0)])) for p in pts]


def _displacement_keeps_fan(p: HPolytope, f: FaceRef) -> bool:
    """Whether the first displacement of the face f is a full-dimensional
    polytope in its chart with the normal fan of f (a vertex keeps it
    whenever the displacement is a point)."""
    sd = face_slice(p, f, inset=1)
    if sd.polytope is None:
        return False
    return f.codim == p.dim or normally_isomorphic(face_slice(p, f).polytope, sd.polytope)


def deeply_smooth_characterizations_agree(p: HPolytope):
    """Evaluate the three equivalent descriptions of deep smoothness
    independently, each up to its first failure: corner parallelepipeds;
    face displacements keeping the face's normal fan; UT-freeness of P and
    of all face displacements."""
    _require_lattice_smooth(p, "requires a lattice smooth polytope")
    faces = [f for codim in range(1, p.dim + 1) for f in p.faces(codim)]
    c1 = is_deeply_smooth(p)[0]
    c2 = all(_displacement_keeps_fan(p, f) for f in faces)
    c3 = is_ut_free(p)[0] and all(_slice_ut_free(face_slice(p, f, inset=1)) for f in faces)
    return c1, c2, c3


def is_quasi_smooth_polygon(p: HPolytope) -> bool:
    """Each vertex v must be at lattice distance one from the line through
    its neighbouring boundary lattice points v + a and v + b, for a and b
    its primitive edge directions, the primitive parts of its chart's edge
    rays: |det(e, a)| = 1 for e the primitive part of a − b."""
    if p.dim != 2:
        raise ValueError("quasi-smoothness is defined for polygons")
    if not p.is_lattice():
        raise ValueError("quasi-smoothness needs a lattice polygon")
    for i in range(len(p.vertices())):
        a, b = map(_integerize, _vertex_chart(p, i)[1])
        e = primitive_part([x - y for x, y in zip(a, b)])
        if abs(e[0] * a[1] - e[1] * a[0]) != 1:
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
        """The fields in declaration order, witness tuples as lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["witnesses"] = {k: list(v) if isinstance(v, tuple) else v for k, v in self.witnesses.items()}
        return out


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
