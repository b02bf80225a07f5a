"""Exact polytope representations: H-rep, V-rep, faces, duality, lattice points.

Conventions: an HPolytope is {x : N x <= c} with primitive integer normal
rows N and exact rational offsets c, irredundant, bounded, full-dimensional.
Points are tuples of ints / Fractions.  All predicates are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, lcm

from .intlinalg import (
    _integer_row,
    fraction_free_solve,
    inverse_unimodular,
    kernel_basis,
    primitive_part,
    rank,
    solve_integer,
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
    rows = [[a - b for a, b in zip(p, p0)] for p in pts[1:]]
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    return rank(rows)


def _integerize(row):
    # scale a rational vector to a primitive integer vector (same direction)
    return primitive_part(_integer_row(row))


@dataclass(frozen=True)
class FaceRef:
    """A face of a simple polytope, named by the facets containing it."""

    tight: tuple
    codim: int

    def __post_init__(self):
        object.__setattr__(self, "tight", tuple(sorted(self.tight)))


@dataclass(frozen=True)
class NormalFanSignature:
    cones: frozenset
    nrows: int


class HPolytope:
    """Irredundant facet description {x : normals @ x <= offsets}."""

    __slots__ = ("dim", "normals", "offsets", "_cache")

    def __init__(self, dim, normals, offsets):
        dim = int(dim)
        normals = tuple(tuple(int(x) for x in row) for row in normals)
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
                if primitive_part(row) != row:
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
        if strict:
            return all(dot(u, point) < c for u, c in zip(self.normals, self.offsets))
        return all(dot(u, point) <= c for u, c in zip(self.normals, self.offsets))

    def tight_rows_at(self, point) -> frozenset:
        return frozenset(
            i for i, (u, c) in enumerate(zip(self.normals, self.offsets)) if dot(u, point) == c
        )

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

    def vertex_tight_sets(self) -> tuple:
        self.vertices()
        return self._cache["tights"]

    def is_simple(self) -> bool:
        if self.dim == 0:
            return True
        return all(len(t) == self.dim for t in self.vertex_tight_sets())

    def is_lattice(self) -> bool:
        return all(all(isinstance(x, int) for x in v) for v in self.vertices())

    def bounding_box(self) -> tuple:
        verts = self.vertices()
        lo = tuple(min(v[i] for v in verts) for i in range(self.dim))
        hi = tuple(max(v[i] for v in verts) for i in range(self.dim))
        return lo, hi

    # -- faces -----------------------------------------------------------

    def faces(self, codim: int) -> tuple:
        """All faces of the given codimension of a simple polytope."""
        if not self.is_simple():
            raise ValueError("face lattice requires simple polytope")
        if codim < 0 or codim > self.dim:
            raise ValueError("codimension out of range")
        key = ("faces", codim)
        if key not in self._cache:
            seen = set()
            for t in self.vertex_tight_sets():
                for s in combinations(sorted(t), codim):
                    seen.add(s)
            self._cache[key] = tuple(FaceRef(s, codim) for s in sorted(seen))
        return self._cache[key]

    def face_vertices(self, face: FaceRef) -> tuple:
        need = set(face.tight)
        return tuple(
            v
            for v, t in zip(self.vertices(), self.vertex_tight_sets())
            if need <= t
        )

    def adjacent_vertex_indices(self, i: int) -> tuple:
        """Indices of vertices sharing an edge with vertex i (simple polytopes)."""
        tights = self.vertex_tight_sets()
        ti = tights[i]
        out = []
        for j, tj in enumerate(tights):
            if j != i and len(ti & tj) == self.dim - 1:
                out.append(j)
        return tuple(out)

    # -- lattice points --------------------------------------------------

    def lattice_points(self) -> frozenset:
        if "lattice_points" not in self._cache:
            self._cache["lattice_points"] = frozenset(self._scan_lattice())
        return self._cache["lattice_points"]

    def _scan_lattice(self):
        if self.dim == 0:
            yield ()
            return
        lo, hi = self.bounding_box()
        ranges = [range(ceil(a), floor(b) + 1) for a, b in zip(lo, hi)]
        for pt in product(*ranges):
            if self.contains(pt):
                yield pt

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
        verts, tights = self.vertices(), self.vertex_tight_sets()
        full_dim, facets = _facet_rows(self.dim, verts, tights, self.nfacets)
        if not full_dim:
            raise ValueError("polytope is not full-dimensional")
        if len(facets) < self.nfacets:
            raise ValueError("row %d is redundant" % min(set(range(self.nfacets)) - set(facets)))
        return self

    # -- images ----------------------------------------------------------

    def transform(self, m) -> "HPolytope":
        """Image under x -> m @ x for unimodular integer m."""
        minv = inverse_unimodular(m)
        cols = tuple(zip(*minv))
        new_normals = tuple(tuple(dot(u, col) for col in cols) for u in self.normals)
        return HPolytope(self.dim, new_normals, self.offsets)

    def translate(self, t) -> "HPolytope":
        return HPolytope(
            self.dim,
            self.normals,
            tuple(c + dot(u, t) for u, c in zip(self.normals, self.offsets)),
        )


def _extreme_rays(rows, d):
    """Extreme rays of the pointed cone {y : r·y <= 0 for every integer row r}.

    Double description (Motzkin; Fukuda-Prodon 1996): start from the simplicial
    cone of the first d independent rows and cut it by the others in input
    order, joining two rays on opposite sides when they are adjacent: they
    share at least d - 2 tight rows and no third ray is tight on all of them.
    Returns (primitive ray, mask) pairs, bit i of mask set iff row i is tight
    on the ray; raises ValueError when the rows have rank below d.
    """
    basis = []
    for i, r in enumerate(rows):
        if len(basis) < d and rank([rows[j] for j in basis] + [r]) > len(basis):
            basis.append(i)
    if len(basis) < d:
        raise ValueError("cone is not pointed")
    every = sum(1 << i for i in basis)
    rays = []
    for bj in basis:
        # the ray tight on every basis row but bj: A y = -e_j
        _, y = fraction_free_solve([list(rows[i]) + [-(i == bj)] for i in basis])
        rays.append((primitive_part(y), every ^ (1 << bj)))
    for i, a in enumerate(rows):
        if i in basis:
            continue
        bit = 1 << i
        pos, neg, kept = [], [], []
        for y, z in rays:
            s = dot(a, y)
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
                kept.append((primitive_part(y), common | bit))
        rays = kept
    return rays


def enumerate_vertices(dim, normals, offsets):
    """Vertices of {x : normals @ x <= offsets}; exact, handles non-simple.

    The system is homogenized to the cone of rows (u, -c * scale) and
    (0, ..., 0, -1), with scale the common denominator of the offsets; an
    extreme ray (y, t) of it with t > 0 is the vertex y / (t * scale), and
    one with t = 0 is a recession direction.  Returns (vertices,
    tight_sets), both sorted by vertex; empty when the system is
    infeasible.  Raises ValueError on an unbounded system.
    """
    offsets = tuple(_exact(c) for c in offsets)
    if dim == 0:
        if all(c >= 0 for c in offsets):
            return ((),), (frozenset(),)
        return (), ()
    scale = lcm(1, *(c.denominator for c in offsets))
    rows = [(0,) * dim + (-1,)]
    rows += [tuple(u) + (-int(c * scale),) for u, c in zip(normals, offsets)]
    try:
        rays = _extreme_rays(rows, dim + 1)
    except ValueError:
        raise ValueError("unbounded inequality system") from None
    found = {}
    for y, mask in rays:
        den = y[-1] * scale
        if den == 0:
            raise ValueError("unbounded inequality system")
        x = tuple(v // den if v % den == 0 else Fraction(v, den) for v in y[:-1])
        found[x] = frozenset(i for i in range(len(normals)) if mask >> (i + 1) & 1)
    verts = tuple(sorted(found))
    return verts, tuple(found[v] for v in verts)


def _facet_rows(dim, verts, tights, nrows):
    """(full_dim, facets): whether the vertices affinely span dimension dim,
    and the rows whose tight vertex set no other row's strictly contains.  On
    a full-dimensional polytope these are its facet-defining rows: every facet
    is some row's face, and every other face lies in a facet."""
    on_row = [0] * nrows
    for k, t in enumerate(tights):
        for i in t:
            on_row[i] |= 1 << k
    facets = [i for i, f in enumerate(on_row) if not any(f & g == f != g for g in on_row)]
    return affine_rank(verts) == dim, facets


def irredundant_rows(dim, normals, offsets):
    """Reduce a system to its facet-defining rows.

    Returns (polytope, dropped_indices); raises on an unbounded system before
    dropping any row, and on an empty one.  The polytope keeps the facet rows
    in input order and arrives with its vertex cache filled: the vertices are
    enumerated once, with duplicate normals collapsed to the binding offset,
    and their tight sets are re-indexed to the kept rows.  Dropping redundant
    rows leaves a bounded full-dimensional polytope unchanged, so the cache
    equals a fresh enumeration whenever validate() passes.
    """
    offsets = [_exact(c) for c in offsets]
    if dim == 0:
        if any(c < 0 for c in offsets):
            raise ValueError("empty system")
        return HPolytope(0, (), ()), tuple(range(len(offsets)))
    # collapse duplicate normals to the binding offset
    best = {}
    for i, (u, c) in enumerate(zip(normals, offsets)):
        if u not in best or c < best[u][1]:
            best[u] = (i, c)
    keep_idx = [i for i, _ in sorted(best.values())]
    verts, tights = enumerate_vertices(
        dim, [normals[i] for i in keep_idx], [offsets[i] for i in keep_idx]
    )
    if not verts:
        raise ValueError("empty system")
    _, final = _facet_rows(dim, verts, tights, len(keep_idx))
    p = HPolytope(
        dim, [normals[keep_idx[j]] for j in final], [offsets[keep_idx[j]] for j in final]
    )
    new_index = {j: k for k, j in enumerate(final)}
    p._cache["vertices"] = verts
    p._cache["tights"] = tuple(
        frozenset(new_index[j] for j in t if j in new_index) for t in tights
    )
    final_set = {keep_idx[j] for j in final}
    dropped = tuple(i for i in range(len(normals)) if i not in final_set)
    return p, dropped


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
    by normal, descending in dim 1.
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
        rows[u] = dot(u, pts[(mask & -mask).bit_length() - 1])  # c = u·p, p on the facet
    normals = tuple(sorted(rows, reverse=n == 1))
    return HPolytope(n, normals, tuple(rows[u] for u in normals))


def facet_description(v: VPolytope) -> HPolytope:
    """H-rep of a vertex set; rejects inputs that are not exactly vertex sets."""
    h = convex_hull(v.points, v.dim)
    if set(h.vertices()) != set(v.points):
        raise ValueError("input points are not the vertex set of their hull")
    return h


def dual(p: HPolytope) -> VPolytope:
    """Polar dual vertex set u_F / b_F; requires the origin strictly inside."""
    if not p.origin_interior():
        raise ValueError("origin is not interior")
    pts = [tuple(Fraction(x) / Fraction(c) for x in u) for u, c in zip(p.normals, p.offsets)]
    return VPolytope.from_points(pts)


def lattice_points(p: HPolytope) -> frozenset:
    return p.lattice_points()


def faces(p: HPolytope, codim: int) -> tuple:
    return p.faces(codim)


def normal_fan_signature(p: HPolytope) -> NormalFanSignature:
    cones = frozenset(tuple(sorted(t)) for t in p.vertex_tight_sets())
    return NormalFanSignature(cones, p.nfacets)


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
    canon_p = {u: i for i, u in enumerate(sorted(p.normals))}

    def cones(poly):
        idx = [canon_p[u] for u in poly.normals]
        return frozenset(tuple(sorted(idx[i] for i in t)) for t in poly.vertex_tight_sets())

    return cones(p) == cones(q)


def minkowski_sum(v: VPolytope, w: VPolytope) -> VPolytope:
    """Vertices of v + w, from the exact hull of all pairwise vertex sums."""
    if v.dim != w.dim:
        raise ValueError("dimension mismatch")
    sums = {tuple(a + b for a, b in zip(p, q)) for p in v.points for q in w.points}
    h = convex_hull(sums, v.dim)
    return VPolytope(v.dim, h.vertices())


def oda_instance_check(p: HPolytope, q: HPolytope) -> bool:
    """Instance test of the lattice-point decomposition identity.

    True iff every lattice point of p + q splits as a lattice point of p
    plus a lattice point of q (brute force over both point sets).
    """
    if not (p.is_lattice() and q.is_lattice()):
        raise ValueError("both polytopes must have integer vertices")
    lp = p.lattice_points()
    lq = q.lattice_points()
    sums = {tuple(a + b for a, b in zip(x, y)) for x in lp for y in lq}
    hull = convex_hull(
        {tuple(a + b for a, b in zip(x, y)) for x in p.vertices() for y in q.vertices()},
        p.dim,
    )
    return all(pt in sums for pt in hull.lattice_points())


def cartesian_product(p: HPolytope, q: HPolytope) -> HPolytope:
    zp = (0,) * q.dim
    zq = (0,) * p.dim
    normals = tuple(u + zp for u in p.normals) + tuple(zq + t for t in q.normals)
    return HPolytope(p.dim + q.dim, normals, p.offsets + q.offsets)


# -- affine slices (faces and their displacements) -----------------------


@dataclass(frozen=True)
class Slice:
    """A polytope slice P ∩ {u_i·x = c_i − inset}, charted onto its own lattice."""

    parent: HPolytope
    tight: tuple
    inset: int
    chart_dim: int
    basis: tuple  # rows: lattice basis of the direction lattice, in parent coords
    origin: tuple  # chart origin, in parent coords
    chart_vertices: tuple
    polytope: HPolytope | None  # set when the slice is full-dimensional in its chart

    @property
    def is_empty(self):
        return not self.chart_vertices

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
        diff = [a - b for a, b in zip(x, self.origin)]
        gram = [[dot(bi, bj) for bj in self.basis] for bi in self.basis]
        rhs = [dot(bi, diff) for bi in self.basis]
        y = solve_rational(gram, rhs)
        if y is None or self.to_parent(y) != _point(x):
            raise ValueError("point does not lie on the slice")
        return _point(y)


def face_slice(p: HPolytope, face, inset: int = 0) -> Slice:
    """Chart P ∩ {u_i·x = c_i − inset over the face's facets} to its lattice.

    The chart basis is an HNF-derived lattice basis of the direction lattice;
    the chart origin is the parent origin whenever it lies on the slice
    (always the case for monotone P at inset 1), else a deterministic
    integer point when one exists, else a rational one.
    """
    tight = tuple(sorted(face.tight if isinstance(face, FaceRef) else face))
    if any(i < 0 or i >= p.nfacets for i in tight):
        raise ValueError("invalid facet index in face")
    k = len(tight)
    n = p.dim
    rows = [p.normals[i] for i in tight]
    targets = [p.offsets[i] - inset for i in tight]
    if k == 0:
        basis = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        origin = (0,) * n
    else:
        if rank(rows) != k:
            raise ValueError("face facets are not independent")
        basis = kernel_basis(rows)
        if all(t == 0 for t in targets):
            origin = (0,) * n
        else:
            origin = None
            if all(isinstance(t, int) for t in targets):
                origin = solve_integer(rows, targets)
            if origin is None:
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
                return Slice(p, tight, inset, chart_dim, basis, origin, (), None)
            continue
        g = 0
        for x in w:
            g = gcd(g, x)
        chart_rows.append((tuple(x // g for x in w), _exact(Fraction(off) / g)))
    if chart_dim == 0:
        if any(c < 0 for _, c in chart_rows):
            return Slice(p, tight, inset, chart_dim, basis, origin, (), None)
        return Slice(
            p, tight, inset, 0, basis, origin, ((),), HPolytope(0, (), ())
        )
    normals = tuple(r for r, _ in chart_rows)
    offs = tuple(c for _, c in chart_rows)
    try:
        poly, _ = irredundant_rows(chart_dim, normals, offs)
    except ValueError:  # no vertices: the slice is empty
        return Slice(p, tight, inset, chart_dim, basis, origin, (), None)
    verts = poly.vertices()
    if affine_rank(verts) != chart_dim:
        poly = None
    return Slice(p, tight, inset, chart_dim, basis, origin, verts, poly)


def _rational_particular(rows, targets):
    # deterministic rational solution of rows @ x = targets (rows independent)
    k = len(rows)
    n = len(rows[0])
    for cols in combinations(range(n), k):
        sub = [[row[c] for c in cols] for row in rows]
        x = solve_rational(sub, targets)
        if x is not None:
            full = [Fraction(0)] * n
            for c, val in zip(cols, x):
                full[c] = val
            return _point(full)
    raise ValueError("inconsistent slice system")
