"""Polytope class predicates: simple, smooth, reflexive, monotone, UT-free,
deeply smooth/monotone, quasi-smooth polygons.

Every negative answer carries a witness (offending vertex, face, or corner
point) so callers can explain failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from itertools import combinations
from math import gcd

from .intlinalg import primitive_part
from .polytope import FaceRef, HPolytope, Slice, affine_rank, face_slice, normally_isomorphic, per_polytope
from .polytope import _bits, _face_facets, _integerize, _row_masks
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
]


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


def _two_faces(p: HPolytope) -> set:
    """The 2-faces of any region as vertex masks, in no order: d − 2 facet
    steps (_face_facets) down from the full vertex set, for d the affine
    dimension of its vertices, so a polygon is its own 2-face.  Only the
    vertices and their masks are read, so it serves regions of any kind,
    lower-dimensional ones included, as met in displacement slices
    (polytope.Slice.region); a simple polytope's triangles are read off
    its edge graph instead (_triangles)."""
    level = {(1 << len(p.vertices())) - 1}
    for _ in range(affine_rank(p.vertices()) - 2):
        level = {g for f in level for g in _face_facets(f, _row_masks(p))}
    return level


def _triangles(p: HPolytope):
    """The triangular 2-faces of a simple polytope as (facets, vertex
    mask), lazily, in no order.  At vertex a the edges (s, b, j) and
    (t, c, k) of _edges(p)[a] span the 2-face on the rows T(a) − {s, t},
    and b and c share n − 1 tight rows, so span its third edge, exactly
    when j == k (Ziegler, Lectures on Polytopes, Lecture 3).  Each triangle
    is read once, at its least vertex, off the pairs of edges to later
    vertices that meet the same row."""
    masks = p.vertex_masks()
    for a, edges in enumerate(_edges(p)):
        for (s, b, j), (t, c, k) in combinations([e for e in edges if e[1] > a], 2):
            if j == k:
                yield _bits(masks[a] & ~(1 << s | 1 << t)), 1 << a | 1 << b | 1 << c


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


@per_polytope
def is_ut_free(p: HPolytope):
    """(flag, witness 2-face): the witness is the unimodular triangle with
    the least facet tuple (_triangles), the first in the order of
    faces(n − 2), named by its n − 2 facets, the rows tight on all its
    vertices."""
    if not p.is_simple():
        raise ValueError("UT-freeness requires a simple polytope")
    tight = next((t for t, verts in sorted(_triangles(p)) if _is_unimodular_triangle_face(p, verts)), None)
    return (True, None) if tight is None else (False, FaceRef(tight, p.dim - 2))


def _ut_free_region(p: HPolytope) -> bool:
    # UT-freeness for arbitrary (possibly non-simple, non-lattice) regions.
    return not any(_is_unimodular_triangle_face(p, f) for f in _two_faces(p))


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
    """UT-freeness of a slice: the 2-faces of its region, full-dimensional
    or not, in the chart's lattice.  A lower-dimensional region needs no
    chart of its own span: a basis of the span's saturated lattice extends
    to one of the chart's, which keeps the gcd of the 2×2 minors of two
    integer vectors, and the span's lattice points are the chart's integer
    points in it."""
    return s.region is None or _ut_free_region(s.region)


def _displacement_keeps_fan(p: HPolytope, f: FaceRef, sd: Slice) -> bool:
    """Whether sd, the first displacement of the face f, is a
    full-dimensional polytope in its chart with the normal fan of f (a
    vertex keeps it whenever the displacement is a point)."""
    if sd.polytope is None:
        return False
    return f.codim == p.dim or normally_isomorphic(face_slice(p, f).polytope, sd.polytope)


def deeply_smooth_characterizations_agree(p: HPolytope):
    """Evaluate the three equivalent descriptions of deep smoothness
    independently, each up to its first failure: corner parallelepipeds;
    face displacements keeping the face's normal fan; UT-freeness of P and
    of all face displacements.  The second and third read one chart of
    each face's first displacement, made when either first reads it."""
    _require_lattice_smooth(p, "requires a lattice smooth polytope")
    faces = [f for codim in range(1, p.dim + 1) for f in p.faces(codim)]
    displaced = cache(lambda f: face_slice(p, f, inset=1))
    c1 = is_deeply_smooth(p)[0]
    c2 = all(_displacement_keeps_fan(p, f, displaced(f)) for f in faces)
    c3 = is_ut_free(p)[0] and all(_slice_ut_free(displaced(f)) for f in faces)
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
