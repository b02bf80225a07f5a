"""Exact polytope representations: H-rep, V-rep, faces, duality, lattice points.

Conventions: an HPolytope is {x : N x <= c} with primitive integer normal
rows N and exact rational offsets c, irredundant, bounded, full-dimensional.
Points are tuples of ints / Fractions.  All predicates are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import chain, repeat
from math import ceil, floor, gcd, inf, lcm, prod
from operator import add, mul, neg, sub

from .intlinalg import (
    _as_mat,
    _integer,
    _integer_row,
    _integer_solutions,
    _reduce,
    inverse_unimodular,
    mat_mul,
    primitive_part,
    rank,
    scaled_inverse,
    solve_rational,
)

__all__ = [
    "HPolytope",
    "VPolytope",
    "FaceRef",
    "NormalFanSignature",
    "Slice",
    "vertices",
    "facet_description",
    "convex_hull",
    "dual",
    "lattice_points",
    "faces",
    "normal_fan_signature",
    "normally_isomorphic",
    "minkowski_sum",
    "oda_instance_check",
    "cartesian_product",
    "face_slice",
    "dot",
    "per_polytope",
]


def _exact(x):
    if isinstance(x, int):
        return x
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


def _point(seq) -> tuple:
    return tuple(_exact(x) for x in seq)


def dot(u, x):
    return sum(a * b for a, b in zip(u, x))


def affine_rank(points) -> int:
    """Dimension of the affine hull of a set of points."""
    pts = list(points)
    if not pts:
        return -1
    p0 = pts[0]
    return rank([[a - b for a, b in zip(p, p0)] for p in pts[1:]])


def _integerize(row):
    # scale a rational vector to a primitive integer vector (same direction)
    return primitive_part(_integer_row(row))


def _bits(mask) -> tuple:
    """The indices of the set bits of an incidence mask, ascending: found by
    str.find over the binary digits, lowest first."""
    digits = format(mask, "b")[::-1]
    out, k = [], digits.find("1")
    while k >= 0:
        out.append(k)
        k = digits.find("1", k + 1)
    return tuple(out)


def _require_simple(p):
    if not p.is_simple():
        raise ValueError("face lattice requires simple polytope")


def _require_origin_interior(p):
    if not p.origin_interior():
        raise ValueError("origin is not interior")


def per_polytope(fn):
    """Memoize fn(p, *args) in p._cache under the key (fn, args): data that
    depends only on the polytope (and hashable arguments) is computed once
    per polytope and dropped with it.  An exception is not cached."""

    @wraps(fn)
    def cached(p, *args):
        key = (fn, args)
        if key not in p._cache:
            p._cache[key] = fn(p, *args)
        return p._cache[key]

    return cached


def _ratio(x, y):
    """x / y for ints or Fractions: an int where y divides x, else a Fraction."""
    return x // y if x % y == 0 else Fraction(x, y)


def _row_values(u, cols, size, start=0):
    """start + u·x, lazily, for every point x of the coordinate columns cols
    (size of them): one C-level pass per nonzero entry of u, no dot per
    point.  The one evaluator of a row at many points: the margin table,
    _slab_search's vertex bounds, oda_instance_check's packing, and the
    probes' directions and sample slacks."""
    values = repeat(start, size)
    for a, col in zip(u, cols):
        if a:
            values = map(add, values, map(mul, col, repeat(a)))
    return values


@per_polytope
def _margins(p) -> tuple:
    """The margin table: per vertex v, in vertices() order, the margin
    c_j − u_j·v of every row j in row order, 0 exactly on v's tight rows:
    an int where it is integral, else a Fraction.  Each row's margins at
    every vertex take C-level passes over the vertices' coordinate columns,
    one per nonzero entry of the row; where every offset and coordinate is
    an int, so is every margin, and no entry is normalized."""
    verts = p.vertices()
    cols = tuple(zip(*verts))
    rows = [_row_values(map(neg, u), cols, len(verts), c) for u, c in zip(p.normals, p.offsets)]
    table = zip(*rows) if rows else repeat((), len(verts))
    if set(map(type, chain(p.offsets, *cols))) <= {int}:
        return tuple(table)
    return tuple(tuple(map(_exact, margins)) for margins in table)


@per_polytope
def _edges(p) -> tuple:
    """The edge graph of a simple polytope: per vertex v, one (s, w, j) per
    row s tight at v, ascending in s.  The edge that leaves row s ends at w,
    the one other vertex whose mask contains mask_v − {s}, and j is the row
    that becomes tight there: one dict join over the vertex masks.  Its
    readers: with the margin table, is_smooth (each vertex's edges to
    earlier vertices), is_deeply_smooth's margin test and the fan walls of
    displace._vertex_margin_constraints; alone, is_ut_free's triangles
    (classify._triangles)."""
    masks = p.vertex_masks()
    ends, edges = {}, [[] for _ in masks]
    for v, t in enumerate(masks):
        rest = t
        while rest:
            bit = rest & -rest
            rest ^= bit
            other = ends.pop(t ^ bit, None)
            if other is None:
                ends[t ^ bit] = v, bit  # the edge's first end; the other pops it
            else:
                w, jbit = other
                s, j = bit.bit_length() - 1, jbit.bit_length() - 1
                edges[v].append((s, w, j))
                edges[w].append((j, v, s))
    return tuple(tuple(sorted(e)) for e in edges)


def _cone_rows(p, vi: int) -> tuple:
    """The n independent rows of vertex vi's cone, ascending: every row
    tight at the vertex, or the pivots of one _reduce of them where there
    are more than n.  The vertex charts, and so the lattice-search frame,
    read this one rule."""
    s = _bits(p.vertex_masks()[vi])
    if len(s) > p.dim:
        piv, _, _ = _reduce([list(col) for col in zip(*(p.normals[i] for i in s))], len(s))
        s = tuple(s[k] for k in piv)
    return s


def _unimodular(rays) -> bool:
    """Whether a vertex chart's cone is unimodular: A_s^-1 = −rays is
    integral exactly when |det A_s| = 1."""
    return set(map(type, chain(*rays))) <= {int}


@per_polytope
def _vertex_chart(p, vi: int) -> tuple:
    """(s, rays): the cone of vertex v = vi, the one place where a vertex
    cone is derived.  s holds n independent rows tight at v, ascending, and
    rays[t] is the edge ray d_t of A_s d_t = −e_t, which leaves row s_t: an
    int where it is one, else a Fraction.  A reader takes row j's slope
    along d_t as the dot product u_j·d_t.

    One chart reads vertex vi alone, in one O(V) pass over the vertex
    masks, and builds neither the margin table nor the edge graph: it is
    read at vertex 0 (the lattice frame and smoothness), at one witness or
    origin vertex, and at each vertex of a polygon.  A reader that needs
    every vertex reads _margins and _edges instead.

    On a simple polytope s is every tight row, and two vertices span an
    edge exactly when they share n − 1 tight rows (Ziegler, Lectures on
    Polytopes, 1995): the edge that leaves s_t, the one row of v missing at
    its other end w_t, gives d_t = (w_t − v) / λ_t with λ_t = c_{s_t} −
    u_{s_t}·w_t, with no elimination.  At the vertices of a non-simple
    polytope s is _cone_rows(p, vi), and the rays come from the one scaled
    inverse (d, e) of A_s, d_t = −e_t / d."""
    if p.is_simple():
        verts, masks = p.vertices(), p.vertex_masks()
        v, tight = verts[vi], masks[vi]
        s = _bits(tight)
        ends = {tight & ~t: w for w, t in zip(verts, masks) if (tight & t).bit_count() == p.dim - 1}
        rays = []
        for st in s:
            w = ends[1 << st]  # the other end of the edge that leaves s_t
            lam = p.offsets[st] - dot(p.normals[st], w)
            rays.append(tuple(map(_ratio, map(sub, w, v), repeat(lam))))
        return s, tuple(rays)
    s = _cone_rows(p, vi)
    d, e = scaled_inverse([p.normals[i] for i in s])
    return s, tuple(tuple(_ratio(-x, d) for x in col) for col in zip(*e))


def _walk_faces(p, limit):
    """Every proper face of a simple polytope once, depth first, as
    (codim, facet mask, vertex mask, last row).  A face extends by each
    later row j whose _row_masks entry still meets its vertex mask, so its
    path is its sorted facet tuple: each codimension arrives in the order of
    faces(codim), and a face's parent is the last face yielded one
    codimension up.  limit is a one-item list, the deepest codimension
    walked, which the reader may lower between faces.  The faces are read
    off the incidences (Kaibel–Pfetsch, Comput. Geom. 23, 2002)."""
    rows = _row_masks(p)
    stack = [(0, 0, (1 << len(p.vertices())) - 1, -1)]
    while stack:
        face = codim, facets, verts, last = stack.pop()
        if codim > limit[0]:
            continue
        if codim:
            yield face
        if codim < limit[0]:
            for j in range(len(rows) - 1, last, -1):  # pushed last first, so popped in order
                if meet := verts & rows[j]:
                    stack.append((codim + 1, facets | 1 << j, meet, j))


@per_polytope
def _row_masks(p) -> tuple:
    """Per row, the mask of the vertices it is tight on (bit k for the k-th
    vertex): the incidence read from the row side, once per polytope."""
    return tuple(_row_vertex_masks(p.vertex_masks(), p.nfacets))


def _face_vertex_mask(p, face: int) -> int:
    """The vertices on every row of the facet mask face, as a vertex mask:
    the AND of those rows' _row_masks, starting from all vertices.  0 when
    face names a row past the last."""
    if face >> p.nfacets:
        return 0
    rows, out = _row_masks(p), (1 << len(p.vertices())) - 1
    for i in _bits(face):
        out &= rows[i]
    return out


@dataclass(frozen=True)
class FaceRef:
    """A face of a simple polytope, named by the facets containing it."""

    tight: tuple
    codim: int

    def __post_init__(self):
        object.__setattr__(self, "tight", tuple(sorted(self.tight)))

    @property
    def mask(self) -> int:
        """The face's facets as an incidence mask (bit i for facet i).
        Computed on each read: every reader reads it once per face."""
        return sum(1 << i for i in set(self.tight))


def _checked_face(p, face) -> int:
    """The facet mask of face, a FaceRef or facet indices, once it names a
    face of p: distinct facets in range, tight together at some vertex.
    Raises ValueError otherwise: the one check of every face taken."""
    t = tuple(face.tight if isinstance(face, FaceRef) else face)
    if len(set(t)) != len(t) or not all(0 <= i < p.nfacets for i in t):
        raise ValueError("invalid face")
    mask = sum(1 << i for i in t)
    if not _face_vertex_mask(p, mask):
        raise ValueError("invalid face")
    return mask


@dataclass(frozen=True)
class NormalFanSignature:
    """The vertex cones of the normal fan, each the mask of its rows."""

    cones: frozenset
    nrows: int


class HPolytope:
    """Irredundant facet description {x : normals @ x <= offsets}."""

    __slots__ = ("dim", "normals", "offsets", "_cache")

    def __init__(self, dim, normals, offsets):
        dim = _integer(dim, "dimension")
        normals = _as_mat(normals)
        offsets = tuple(_exact(c) for c in offsets)
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        if len(normals) != len(offsets):
            raise ValueError("normals/offsets length mismatch")
        for row in normals:
            if len(row) != dim:
                raise ValueError("normal row of wrong dimension")
            if dim > 0:
                if not any(row):
                    raise ValueError("zero normal row")
                if gcd(*row) != 1:
                    raise ValueError("normal row %r is not primitive" % (row,))
        self.dim = dim
        self.normals = normals
        self.offsets = offsets
        self._cache = {}

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, HPolytope)
            and self.dim == other.dim
            and self.normals == other.normals
            and self.offsets == other.offsets
        )

    def __hash__(self):
        return hash((self.dim, self.normals, self.offsets))

    def __repr__(self):
        return "HPolytope(dim=%d, facets=%d)" % (self.dim, len(self.normals))

    @property
    def nfacets(self):
        return len(self.normals)

    # -- membership ----------------------------------------------------

    def contains(self, point, strict=False) -> bool:
        if len(point) != self.dim:
            raise ValueError("point of length %d in dimension %d" % (len(point), self.dim))
        if strict:
            return all(dot(u, point) < c for u, c in zip(self.normals, self.offsets))
        return all(dot(u, point) <= c for u, c in zip(self.normals, self.offsets))

    def origin_interior(self) -> bool:
        return all(c > 0 for c in self.offsets)

    # -- vertices ------------------------------------------------------

    def vertices(self) -> tuple:
        """Exact vertex set, sorted lexicographically."""
        if "vertices" not in self._cache:
            verts, tights = enumerate_vertices(self.dim, self.normals, self.offsets)
            if not verts:
                raise ValueError("polytope is empty")
            self._cache["vertices"] = verts
            self._cache["tights"] = tights
        return self._cache["vertices"]

    def vertex_masks(self) -> tuple:
        """Per vertex, in vertices() order, the mask of its tight rows."""
        self.vertices()
        return self._cache["tights"]

    def vertex_tight_sets(self) -> tuple:
        """vertex_masks() as frozensets of row indices."""
        return tuple(frozenset(_bits(t)) for t in self.vertex_masks())

    @per_polytope
    def is_simple(self) -> bool:
        return all(t.bit_count() == self.dim for t in self.vertex_masks())

    def is_lattice(self) -> bool:
        return all(all(isinstance(x, int) for x in v) for v in self.vertices())

    def bounding_box(self) -> tuple:
        verts = self.vertices()
        lo = tuple(min(v[i] for v in verts) for i in range(self.dim))
        hi = tuple(max(v[i] for v in verts) for i in range(self.dim))
        return lo, hi

    # -- faces -----------------------------------------------------------

    @per_polytope
    def faces(self, codim: int) -> tuple:
        """All faces of the given codimension of a simple polytope, ordered
        by their sorted facet tuples: the face walk's faces at codim, and P
        itself at codim 0."""
        _require_simple(self)
        if codim < 0 or codim > self.dim:
            raise ValueError("codimension out of range")
        if not codim:
            return (FaceRef((), 0),)
        return tuple(FaceRef(_bits(f), codim) for c, f, _, _ in _walk_faces(self, [codim]) if c == codim)

    def face_vertices(self, face: FaceRef) -> tuple:
        """The vertices of the face, () where it names no face of p."""
        if min(face.tight, default=0) < 0:
            return ()
        verts = self.vertices()
        return tuple(verts[k] for k in _bits(_face_vertex_mask(self, face.mask)))

    def adjacent_vertex_indices(self, i: int) -> tuple:
        """Indices of the vertices sharing an edge with vertex i, ascending:
        j is one when the rows tight at both hold no third vertex
        (_face_vertex_mask), the combinatorial adjacency test of the double
        description, for simple and non-simple polytopes alike.  Vertex i
        alone is tight on all its rows."""
        masks = self.vertex_masks()
        return tuple(j for j, t in enumerate(masks) if _face_vertex_mask(self, masks[i] & t).bit_count() == 2)

    # -- lattice points --------------------------------------------------

    @per_polytope
    def lattice_points(self) -> frozenset:
        search, centre = _point_search(self)
        points = []
        search(centre, lambda x, e: points.append(x))
        return frozenset(points)

    # -- validation ------------------------------------------------------

    def validate(self):
        """Check boundedness, irredundancy and nonempty interior; raise if violated."""
        if self.dim == 0:
            if any(c < 0 for c in self.offsets):
                raise ValueError("empty polytope")
            return self
        if len(set(self.normals)) != len(self.normals):
            raise ValueError("duplicate facet normals")
        # vertices() raises on an unbounded system, having met a recession ray
        full_dim, facets = _facet_rows(self.vertex_masks(), self.nfacets)
        if not full_dim:
            raise ValueError("polytope is not full-dimensional")
        if len(facets) < self.nfacets:
            raise ValueError("row %d is redundant" % min(set(range(self.nfacets)) - set(facets)))
        return self

    # -- images ----------------------------------------------------------

    def transform(self, m) -> "HPolytope":
        """Image under x -> m @ x for unimodular integer m."""
        return HPolytope(self.dim, mat_mul(self.normals, inverse_unimodular(m)), self.offsets)

    def translate(self, t) -> "HPolytope":
        if len(t) != self.dim:
            raise ValueError("translation of length %d in dimension %d" % (len(t), self.dim))
        return HPolytope(
            self.dim,
            self.normals,
            tuple(c + dot(u, t) for u, c in zip(self.normals, self.offsets)),
        )


def _extreme_rays(rows, d):
    """Extreme rays of the pointed cone {y : r·y <= 0 for every integer row r}.

    Double description (Motzkin; Fukuda-Prodon 1996): start from the simplicial
    cone of the first d independent rows R_B and cut it by the others in input
    order, joining two rays on opposite sides when they are adjacent: they
    share at least d - 2 tight rows and no third ray is tight on all of them.
    One _reduce of [R^T | I_d] gives the first cone: its pivot columns are B,
    and its row operations turn the identity block into q·R_B^-T, whose row
    i, times -sign(q), is the ray tight on every basis row but the i-th.
    Returns (primitive ray, mask) pairs, bit i of mask set iff row i is tight
    on the ray; raises ValueError when the rows have rank below d.
    """
    m = len(rows)
    aug = [[row[k] for row in rows] + [int(k == j) for j in range(d)] for k in range(d)]
    basis, q, _ = _reduce(aug, m)
    if len(basis) < d:
        raise ValueError("cone is not pointed")
    every = sum(1 << i for i in basis)
    rays = []
    for bi, row in zip(basis, aug):
        y = row[m:]
        g = -gcd(*y) if q > 0 else gcd(*y)  # the primitive part, times -sign(q)
        rays.append((tuple(x // g for x in y), every ^ (1 << bi)))
    for i, a in enumerate(rows):
        if every >> i & 1:
            continue
        bit = 1 << i
        pos, neg, kept = [], [], []
        for y, z in rays:
            s = sum(map(mul, a, y))
            if s > 0:
                pos.append((s, y, z))
            else:
                kept.append((y, z | bit if s == 0 else z))
                if s < 0:
                    neg.append((s, y, z))
        masks = [z for _, z in rays]
        for sp, yp, zp in pos:
            for sn, yn, zn in neg:
                common = zp & zn
                if common.bit_count() < d - 2 or sum(z & common == common for z in masks) > 2:
                    continue
                y = [sp * b - sn * c for b, c in zip(yn, yp)]  # a·y = 0
                g = gcd(*y)
                kept.append((tuple(x // g for x in y), common | bit))
        rays = kept
    return rays


def enumerate_vertices(dim, normals, offsets):
    """Vertices of {x : normals @ x <= offsets}; exact, handles non-simple.

    The system is homogenized to the cone of rows (u, -c * scale) and
    (0, ..., 0, -1), with scale the common denominator of the offsets; an
    extreme ray (y, t) of it with t > 0 is the vertex y / (t * scale), and
    one with t = 0 is a recession direction.  Returns (vertices, masks),
    both sorted by vertex, where bit i of a vertex's mask is set iff row i
    is tight there (the ray's mask without the homogenizing row); empty
    when the system is infeasible.  Raises ValueError on a feasible
    unbounded system.

    The cone is pointed iff the normals span R^n.  When they do not, the
    system holds a line wherever it is feasible, and it is feasible iff its
    restriction to the pivot coordinates of the normals is: adding a vector
    of the lineality space moves any solution onto those coordinates.
    """
    offsets = tuple(_exact(c) for c in offsets)
    if dim == 0:
        if all(c >= 0 for c in offsets):
            return ((),), (0,)
        return (), ()
    scale = lcm(1, *(c.denominator for c in offsets))
    rows = [(0,) * dim + (-1,)]
    rows += [tuple(u) + (-int(c * scale),) for u, c in zip(normals, offsets)]
    try:
        rays = _extreme_rays(rows, dim + 1)
    except ValueError:
        piv, _, _ = _reduce([list(u) for u in normals], dim)
        if enumerate_vertices(len(piv), [[u[k] for k in piv] for u in normals], offsets)[0]:
            raise ValueError("unbounded inequality system") from None
        return (), ()
    found, recedes = {}, False
    for y, mask in rays:
        den = y[-1] * scale
        if den == 0:
            recedes = True
            continue
        if den == 1:
            x = y[:-1]
        else:
            x = tuple(v // den if v % den == 0 else Fraction(v, den) for v in y[:-1])
        found[x] = mask >> 1
    if recedes and found:
        raise ValueError("unbounded inequality system")
    verts = tuple(sorted(found))
    return verts, tuple(found[v] for v in verts)


def _row_vertex_masks(masks, nrows):
    """Per row, the mask of the vertices it is tight on (bit k for the k-th
    of the given vertex masks): the incidence read from the row side.  Any
    list of row masks transposes the same way, as E(P)'s masks do in
    ewald._ewald_listing.  Mask k fills bits [k·w, (k+1)·w) of one int, with
    w = 8·⌈nrows/8⌉, so in its binary digits, read from the top, row i is
    every w-th digit from w − 1 − i: linear in the size of the table."""
    if not masks:
        return [0] * nrows
    size = (nrows + 7) // 8
    w = 8 * size
    packed = int.from_bytes(b"".join(t.to_bytes(size, "little") for t in masks), "little")
    digits = format(packed, "0%db" % (w * len(masks)))
    return [int(digits[w - 1 - i :: w], 2) for i in range(nrows)]


def _face_facets(face, on_row):
    """The facets of a face given by the mask of its vertices, as vertex
    masks: the maximal sets among face & r over the rows' vertex masks r,
    other than the face itself and the empty set.  A facet G of the face is
    its meet with any row tight on G but not on all of the face, and every
    other proper face lies in a facet."""
    meets = {face & r for r in on_row} - {face, 0}
    return [g for g in meets if not any(g & h == g != h for h in meets)]


def _facet_rows(masks, nrows):
    """(full_dim, facets) for a system with the given vertex masks: whether
    it is full-dimensional, and the rows whose tight vertex set is a facet of
    the vertex set.  On a full-dimensional polytope these are its
    facet-defining rows.  The affine hull of a polytope is cut out by the
    rows tight at every vertex (its implicit equalities; Schrijver 1986,
    §8.2), so it is full-dimensional iff no row is tight at every vertex.
    With no vertex, every row is, vacuously."""
    on_row = _row_vertex_masks(masks, nrows)
    every = (1 << len(masks)) - 1
    facets = set(_face_facets(every, on_row))
    return every not in on_row, [i for i, f in enumerate(on_row) if f in facets]


def irredundant_rows(dim, normals, offsets):
    """Reduce a system to its facet-defining rows.

    Returns (polytope, dropped_indices, full_dim); raises on an unbounded
    system before dropping any row, and on an empty one.  full_dim tells
    whether the vertices span dimension dim; when it is false the rows kept
    are not a facet description.  The polytope keeps the facet rows in input
    order and arrives with its vertex cache filled: the vertices are
    enumerated once, with duplicate normals collapsed to the binding offset,
    and their tight-row masks are kept as they are, or re-indexed to the kept
    rows when one of the collapsed rows is not a facet.  Dropping
    redundant rows leaves a bounded full-dimensional polytope unchanged, so
    when full_dim holds the cache equals a fresh enumeration and validate()
    passes.  convex_hull keeps its enumeration the same way.  In dimension 0
    the system is the point () or empty, no row is a facet, and every row is
    dropped.
    """
    offsets = [_exact(c) for c in offsets]
    # collapse duplicate normals to the binding offset
    best = {}
    for i, (u, c) in enumerate(zip(normals, offsets)):
        if u not in best or c < best[u][1]:
            best[u] = (i, c)
    keep_idx = [i for i, _ in sorted(best.values())]
    verts, masks = enumerate_vertices(
        dim, [normals[i] for i in keep_idx], [offsets[i] for i in keep_idx]
    )
    if not verts:
        raise ValueError("empty system")
    full_dim, final = _facet_rows(masks, len(keep_idx))
    p = HPolytope(
        dim, [normals[keep_idx[j]] for j in final], [offsets[keep_idx[j]] for j in final]
    )
    p._cache["vertices"] = verts
    if len(final) < len(keep_idx):
        new_index = {j: k for k, j in enumerate(final)}
        masks = tuple(sum(1 << new_index[j] for j in _bits(t) if j in new_index) for t in masks)
    p._cache["tights"] = masks
    final_set = {keep_idx[j] for j in final}
    dropped = tuple(i for i in range(len(normals)) if i not in final_set)
    return p, dropped, full_dim


# -- lattice points of slab systems --------------------------------------


@per_polytope
def _slab_frame(p: HPolytope):
    """(rows, coords, cols) for _lattice_search: p's rows in the coordinates
    y = A x of a unimodular A, the indices of A's n rows, and A^-1's columns.
    Where vertex 0's cone is unimodular (_unimodular), as on every smooth
    polytope and at DP3's and DP5's non-simple vertices, the frame is vertex
    0's chart (_vertex_chart): A is its rows s, A^-1 = −rays, and row j
    reads w_j = u_j A^-1, one dot product u_j·col_t per column, which is
    e_t on row s_t.  Otherwise A is the unit rows, appended after p's rows
    and bounded by its bounding box, and w_j = u_j."""
    n, m = p.dim, p.nfacets
    s, rays = _vertex_chart(p, 0)
    if not _unimodular(rays):
        units = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
        return list(p.normals) + units, list(range(m, m + n)), units
    cols = tuple(tuple(map(neg, ray)) for ray in rays)
    return [tuple(sum(map(mul, u, col)) for col in cols) for u in p.normals], s, cols


class _Passed(Exception):
    """A capped count of _lattice_search passed its cap."""


def _lattice_search(rows, coords, cols, half):
    """The one lattice-point enumerator: depth-first search over a slab
    system with per-level bounds (Fincke–Pohst, Math. Comp. 44, 1985;
    Schnorr–Euchner, Math. Programming 66, 1994).  It lists or counts.

    The system is |u_j·x − d_j| <= h_j on every row j, over integer x, in
    the coordinates y = A x of a unimodular A (_slab_frame): rows holds each
    w_j = u_j A^-1, the unit vector e_t on the rows coords that form A, cols
    the n columns of A^-1, and half the integer half-widths h_j.  Returns
    search.  search(d, visit), for integer centres d, calls visit(x, e) on
    every point x, a tuple, with e a fresh list of every row's residual
    e[j] = d_j − u_j·x in row order.  With halfspace=True, valid only for
    d = 0, it visits 0 and the x whose first nonzero coordinate in y = A x
    is negative: one of each pair ±x of the symmetric system.  search.box,
    the product of 2·h_t + 1 over the coordinate rows t (0 when some slab
    is empty), bounds the number of points at every centre from above.

    search(d, cap=c), cap inf by default, returns (count, True), the number
    of points, listing none, or stops a walk at the first running total
    above c and returns (that total, False).  It walks the listing's level
    tables on a copy of the residuals.  A level is flat when z_k moves no
    row read deeper, as the last level always is: each value of z_k then
    has the same completions, so the level counts last − first + 1 times
    them, walking no range; every other level memoizes its completions on
    its live residuals (the key below).  Every point is tallied once, by a
    leaf, a memo hit or the copies of a flat level, so each running total
    is a lower bound of the count, and a count that walks no level ends.
    So search(d, cap=0)[0] > 0 exactly when the system has a point.

    Write y = d_coords + z: the coordinate rows put z in the box
    |z_t| <= h_coords[t], and every other row says |w_j·z − e_j| <= h_j
    with e_j = d_j − w_j·d_coords.  search.residuals(d) is that list e, 0
    on the coordinate rows: centres with the same residuals have the same
    z, so their point sets are integer translates of one another.  The
    search fixes z_0, z_1, ... in turn, each over the range every slab
    allows, widened by the row's largest reach over the coordinates still
    free; the last coordinate's range is exact.  In the half space, a level's range stops at 0 while every
    coordinate fixed so far is 0.  Level k adds y_k times column k of A^-1
    to the point and subtracts z_k w_j[k] from the residual of each row
    that reads z_k, so a point costs O(n + m) and no matrix product.

    The completions of z_0, ..., z_{k-1} depend only on k and the residuals
    of the rows live at level k, those with w_j[t] != 0 for some t >= k: a
    row leaves the key after its last nonzero entry, whose level range
    already held it to |e_j| <= h_j, and a coordinate row never enters it,
    as the box bounds it.  The memo lives for one count.
    """
    n = len(coords)
    box = [half[i] for i in coords]
    empty = any(h < 0 for h in half)  # some slab is empty, whatever d is
    slabs, levels = [], [[] for _ in range(n)]  # slabs: (j, reach[0])
    moves = [[(j, 1)] for j in coords]  # moves[k]: (j, w_j[k]) where nonzero
    for j, w in enumerate(rows):
        if j in coords:
            continue
        # reach[k] = h_j + sum_{t >= k} |w_t| box_t: how far w·z may stray
        # from e_j while z_k, ..., z_{n-1} are free
        reach = [half[j]] * (n + 1)
        for t in range(n - 1, -1, -1):
            reach[t] = reach[t + 1] + abs(w[t]) * box[t]
            if w[t]:
                levels[t].append((j, w[t], reach[t + 1]))
                moves[t].append((j, w[t]))
        slabs.append((j, reach[0]))
    live = [()] * (n + 1)  # live[k]: the rows read at level k or below, the count's memo key there
    for k in range(n - 1, -1, -1):
        live[k] = tuple(sorted({j for j, _, _ in levels[k]}.union(live[k + 1])))
    # level k is flat when z_k moves no row read deeper, as the last level
    flat = [not {j for j, _ in moves[k]}.intersection(live[k + 1]) for k in range(n)]

    def span(k, bounds, e):
        """z_k's range: the box, narrowed by every (i, w_j[k], reach[k+1])
        of bounds, whose row has residual e[i]; empty when first > last."""
        first, last = -box[k], box[k]
        for i, a, reach in bounds:
            # |e_j − a z_k − rest| <= reach[k+1] covers every free rest
            below, above = e[i] - reach, e[i] + reach
            if a < 0:
                below, above = above, below
            first = max(first, -(-below // a))
            last = min(last, above // a)
            if first > last:
                break
        return first, last

    def count(e, cap):
        memo = [{} for _ in range(n)]
        seen = 0  # the running total: every point is tallied once

        def completions(k, e):
            nonlocal seen
            if k == n:
                seen += 1
                return 1
            if flat[k]:  # every value of z_k has the completions of e
                first, last = span(k, levels[k], e)
                if first > last:
                    return 0
                found = completions(k + 1, e)
                seen += (last - first) * found  # the copies beyond the one tallied below
                return (last - first + 1) * found
            key = tuple([e[j] for j in live[k]])
            total = memo[k].get(key)
            if total is not None:
                seen += total
                return total
            first, last = span(k, levels[k], e)
            total = 0
            for v in range(first, last + 1):
                nxt = e[:]
                for j, a in moves[k]:
                    nxt[j] -= a * v
                total += completions(k + 1, nxt)
                if seen > cap:  # only a walk takes more than one step
                    raise _Passed
            memo[k][key] = total
            return total

        try:
            found = completions(0, e), True
        except _Passed:
            found = seen, False
        del completions  # a closure over itself: free the memo now
        return found

    def residuals(d):
        e = list(d)  # e_j = d_j − w_j·d_coords: 0 on the coordinate rows
        for moved, i in zip(moves, coords):
            if b := d[i]:
                for j, a in moved:
                    e[j] -= a * b
        return e

    def search(d, visit=None, halfspace=False, cap=inf):
        base = [d[i] for i in coords]
        e = residuals(d)
        # the only test of a row with w = 0 (dim 0)
        feasible = not empty and all(abs(e[j]) <= reach for j, reach in slabs)
        if visit is None:
            return count(e, cap) if feasible else (0, True)
        if not feasible:
            return
        if n == 0:
            visit((), e)
            return

        def descend(k, x, e, lead):
            # x = sum_{t < k} y_t col_t; e[j] = e_j − sum_{t < k} w_j[t] z_t;
            # lead: the half space is searched and z_0 = ... = z_{k-1} = 0
            first, last = span(k, levels[k], e)
            if lead:
                last = min(last, 0)
            leaf = k == n - 1
            col, bk = cols[k], base[k]
            for v in range(first, last + 1):
                nxt = e[:]
                for j, a in moves[k]:
                    nxt[j] -= a * v
                y = bk + v
                at = tuple([a + y * c for a, c in zip(x, col)]) if y else x
                if leaf:
                    visit(at, nxt)
                else:
                    descend(k + 1, at, nxt, lead and not v)

        descend(0, (0,) * n, e, halfspace)
        del descend  # a closure over itself: free visit's data now, not at the next collection

    search.residuals = residuals
    search.box = 0 if empty else prod(2 * h + 1 for h in box)
    return search


def _slab_search(p: HPolytope, upper, scale=1):
    """(search, centre): the lattice search over every integer x with
    u_j·x <= upper_j on the rows of p, given that each such x lies in
    scale·P, and the centre to search it at.  search(centre, visit) lists
    those x, and search(centre)[0] counts them.

    The lower bounds, and both bounds of a unit row of _slab_frame, are
    implied by the vertices of scale·P.  A lower bound moves down by one
    where that makes lo + hi even, which leaves the point set unchanged and
    every centre an integer.
    """
    rows, coords, cols = _slab_frame(p)
    upper = list(upper) + [None] * (len(rows) - p.nfacets)
    verts = p.vertices()
    vcols, centre, half = tuple(zip(*verts)), [], []
    for u, hi in zip(chain(p.normals, rows[p.nfacets :]), upper):  # a unit row reads itself
        values = list(_row_values(u, vcols, len(verts)))
        lo = ceil(min(values) * scale)
        hi = floor(max(values) * scale) if hi is None else hi
        lo -= (lo + hi) % 2
        centre.append((lo + hi) // 2)
        half.append((hi - lo) // 2)
    return _lattice_search(rows, coords, cols, half), centre


@per_polytope
def _point_search(p: HPolytope):
    """(search, centre) of P ∩ Z^n, u_j·x <= ⌊c_j⌋ on every row: built
    once per polytope for lattice_points, oda_instance_check's count of
    P + Q and the Oda limit of fileio."""
    return _slab_search(p, [floor(c) for c in p.offsets])


@dataclass(frozen=True)
class VPolytope:
    """Vertex description; points are pairwise distinct extreme points."""

    dim: int
    points: tuple

    @staticmethod
    def from_points(points):
        pts = tuple(sorted({_point(p) for p in points}))
        if not pts:
            raise ValueError("no points")
        return VPolytope(len(pts[0]), pts)

    def is_lattice(self) -> bool:
        return all(all(isinstance(x, int) for x in p) for p in self.points)


def vertices(p: HPolytope) -> VPolytope:
    return VPolytope(p.dim, p.vertices())


def convex_hull(points, dim=None) -> HPolytope:
    """Exact H-rep of the convex hull of a full-dimensional point set.

    The facets are the extreme rays (u, c) of the cone {u·p <= c for every
    point p}, pointed iff the points are full-dimensional.  Rows are sorted
    by normal, descending in dim 1.  The polytope arrives with its vertex
    cache filled from the rays' point masks: a point is a vertex exactly
    when the facets through it meet in that point alone, the AND rule of
    _face_vertex_mask.  The vertices keep sorted point order, which is
    enumerate_vertices' order, and their masks index the sorted rows.
    """
    pts = sorted({_point(p) for p in points})
    if not pts:
        raise ValueError("no points")
    n = len(pts[0]) if dim is None else dim
    if any(len(p) != n for p in pts):
        raise ValueError("mixed dimensions")
    try:
        rays = _extreme_rays([_integer_row(p + (-1,)) for p in pts], n + 1)
    except ValueError:
        raise ValueError("not full-dimensional") from None
    rows = {}
    for y, mask in rays:
        u = primitive_part(y[:n])
        rows[u] = (dot(u, pts[(mask & -mask).bit_length() - 1]), mask)  # c = u·p, p on the facet
    normals = tuple(sorted(rows, reverse=n == 1))
    on_row = [rows[u][1] for u in normals]
    h = HPolytope(n, normals, tuple(rows[u][0] for u in normals))
    verts, tights = [], []
    for k, t in enumerate(_row_vertex_masks(on_row, len(pts))):
        meet = -1
        for j in _bits(t):
            meet &= on_row[j]
        if meet == 1 << k:
            verts.append(pts[k])
            tights.append(t)
    h._cache["vertices"], h._cache["tights"] = tuple(verts), tuple(tights)
    return h


def facet_description(v: VPolytope) -> HPolytope:
    """H-rep of a vertex set; rejects inputs that are not exactly vertex sets.

    The hull's vertices are some of the points, so the points are its
    vertex set exactly when they are as many as its cached vertices.
    """
    h = convex_hull(v.points, v.dim)
    if len(h.vertices()) != len(set(v.points)):
        raise ValueError("input points are not the vertex set of their hull")
    return h


def dual(p: HPolytope) -> VPolytope:
    """Polar dual vertex set u_F / b_F; requires the origin strictly inside."""
    _require_origin_interior(p)
    pts = [tuple(Fraction(x) / Fraction(c) for x in u) for u, c in zip(p.normals, p.offsets)]
    return VPolytope.from_points(pts)


def lattice_points(p: HPolytope) -> frozenset:
    return p.lattice_points()


def faces(p: HPolytope, codim: int) -> tuple:
    return p.faces(codim)


def normal_fan_signature(p: HPolytope) -> NormalFanSignature:
    """The vertex cones of p's normal fan: the set of its vertex masks."""
    return NormalFanSignature(frozenset(p.vertex_masks()), p.nfacets)


def normally_isomorphic(p: HPolytope, q: HPolytope) -> bool:
    """Equal normal fans, for polytopes in the same ambient space.

    Row order may differ; the facet normal sets must coincide exactly.
    """
    if p is q:
        return True
    if p.dim != q.dim:
        return False
    if p.dim == 0:
        return True
    if sorted(p.normals) != sorted(q.normals):
        return False
    row = {u: 1 << i for i, u in enumerate(p.normals)}
    bit = [row[u] for u in q.normals]  # q's rows on p's row bits
    return frozenset(sum(bit[i] for i in _bits(t)) for t in q.vertex_masks()) == normal_fan_signature(p).cones


def minkowski_sum(v: VPolytope, w: VPolytope) -> VPolytope:
    """Vertices of v + w, from the exact hull of all pairwise vertex sums."""
    if v.dim != w.dim:
        raise ValueError("dimension mismatch")
    return VPolytope(v.dim, _sum_hull(v.points, w.points, v.dim).vertices())


def _sum_hull(xs, ys, dim: int) -> HPolytope:
    """The exact hull of every pairwise sum x + y, the Minkowski sum of the
    hulls of xs and ys: the one construction of minkowski_sum and
    oda_instance_check."""
    return convex_hull({tuple(map(add, x, y)) for x in xs for y in ys}, dim)


def oda_instance_check(p: HPolytope, q: HPolytope) -> bool:
    """Instance test of the lattice-point decomposition identity.

    True iff every lattice point of p + q splits as a lattice point of p
    plus a lattice point of q.  Every such sum lies in p + q, so the sums
    cover (p + q) ∩ Z^n exactly when they are as many as its lattice
    points, which the count of its lattice search gives with no listing.
    The sums are ints: a point x of p packs in mixed radix as the digits
    x_i − lo_i over p's bounding box, and likewise for q, where digit i has
    room for both spans, so the packed sum of x and y packs x + y with no
    carry.
    """
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    if not (p.is_lattice() and q.is_lattice()):
        raise ValueError("both polytopes must have integer vertices")
    (plo, phi), (qlo, qhi) = p.bounding_box(), q.bounding_box()
    radix, place = [], 1
    for a, b, c, d in zip(plo, phi, qlo, qhi):
        radix.append(place)
        place *= b - a + d - c + 1

    def packed(r, lo):
        points = r.lattice_points()
        return _row_values(radix, tuple(zip(*points)), len(points), -sum(map(mul, lo, radix)))

    keys, sums = list(packed(q, qlo)), set()
    for k in packed(p, plo):
        sums.update(map(k.__add__, keys))
    search, centre = _point_search(_sum_hull(p.vertices(), q.vertices(), p.dim))
    return len(sums) == search(centre)[0]


def cartesian_product(p: HPolytope, q: HPolytope) -> HPolytope:
    zp = (0,) * q.dim
    zq = (0,) * p.dim
    normals = tuple(u + zp for u in p.normals) + tuple(zq + t for t in q.normals)
    return HPolytope(p.dim + q.dim, normals, p.offsets + q.offsets)


# -- affine slices (faces and their displacements) -----------------------


@dataclass(frozen=True)
class Slice:
    """A polytope slice P ∩ {u_i·x = c_i − inset}, charted onto its own lattice.

    region is the slice in its chart as irredundant_rows built it, with the
    vertices and masks of its one enumeration, full-dimensional or not;
    None when the slice is empty.  Its face lattice is read off those masks
    at its own dimension (Kaibel–Pfetsch, Comput. Geom. 23, 2002); where it
    is lower-dimensional, its rows alone do not describe it.  polytope is
    the region where it is full-dimensional in the chart, else None."""

    parent: HPolytope
    tight: tuple
    inset: int
    chart_dim: int
    basis: tuple  # rows: lattice basis of the direction lattice, in parent coords
    origin: tuple  # chart origin, in parent coords
    region: HPolytope | None
    polytope: HPolytope | None

    @property
    def chart_vertices(self) -> tuple:
        return () if self.region is None else self.region.vertices()

    @property
    def is_empty(self):
        return self.region is None

    @property
    def points_affine_rank(self):
        return affine_rank(self.chart_vertices)

    def to_parent(self, y) -> tuple:
        x = list(self.origin)
        for coef, b in zip(y, self.basis):
            for i, bi in enumerate(b):
                x[i] += coef * bi
        return _point(x)

    def to_chart(self, x) -> tuple:
        y = _basis_coordinates(self.basis, [a - b for a, b in zip(x, self.origin)])
        if y is None or self.to_parent(y) != _point(x):
            raise ValueError("point does not lie on the slice")
        return _point(y)


def _basis_coordinates(basis, v):
    """The exact coordinates y of v in the independent rows basis, for v in
    their span (Σ_k y_k basis_k = v), from one solve of the Gram system
    basis · basis^T y = basis · v; off the span they are those of v's
    orthogonal projection.  None only for a dependent basis."""
    gram = [[dot(a, b) for b in basis] for a in basis]
    return solve_rational(gram, [dot(b, v) for b in basis])


def face_slice(p: HPolytope, face, inset: int = 0) -> Slice:
    """Chart P ∩ {u_i·x = c_i − inset over the face's facets} to its lattice.

    The chart basis is an HNF-derived lattice basis of the direction lattice;
    the chart origin is the parent origin whenever it lies on the slice
    (always the case for monotone P at inset 1), else a deterministic
    integer point when one exists, else a rational one.  One Hermite form
    (_integer_solutions) gives the basis, the independence of the facets
    (n − k basis rows) and the integer origin.  Raises ValueError unless
    the facets name a face of p (_checked_face).
    """
    tight = _bits(_checked_face(p, face))
    k = len(tight)
    n = p.dim
    rows = [p.normals[i] for i in tight]
    targets = [p.offsets[i] - inset for i in tight]
    if k == 0:
        basis = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        origin = (0,) * n
    else:
        integral = all(isinstance(t, int) for t in targets)
        origin, basis = _integer_solutions(rows, targets if integral else [0] * k)
        if len(basis) != n - k:
            raise ValueError("face facets are not independent")
        if not integral or origin is None:
            origin = _rational_particular(rows, targets)
    chart_dim = n - k
    chart_rows = []
    for j in range(p.nfacets):
        if j in tight:
            continue
        u = p.normals[j]
        w = tuple(dot(u, b) for b in basis)
        off = p.offsets[j] - dot(u, origin)
        if not any(w):
            if off < 0:
                return Slice(p, tight, inset, chart_dim, basis, origin, None, None)
            continue
        g = gcd(*w)
        chart_rows.append((tuple(x // g for x in w), _exact(Fraction(off) / g)))
    normals = tuple(r for r, _ in chart_rows)
    offs = tuple(c for _, c in chart_rows)
    try:
        poly, _, full_dim = irredundant_rows(chart_dim, normals, offs)
    except ValueError:  # no vertices: the slice is empty
        return Slice(p, tight, inset, chart_dim, basis, origin, None, None)
    return Slice(p, tight, inset, chart_dim, basis, origin, poly, poly if full_dim else None)


def _rational_particular(rows, targets):
    """The rational solution of rows @ x = targets (rows independent) that is
    0 off the lexicographically first independent columns: one _reduce of the
    augmented rows, whose greedy pivot columns are exactly those columns."""
    n = len(rows[0])
    aug = [_integer_row(tuple(row) + (t,)) for row, t in zip(rows, targets)]
    piv, d, _ = _reduce(aug, n)
    if len(piv) < len(rows):
        raise ValueError("inconsistent slice system")
    x = [0] * n
    for row, col in zip(aug, piv):
        x[col] = Fraction(row[n], d)
    return _point(x)
