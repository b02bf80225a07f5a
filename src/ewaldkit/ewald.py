"""Ewald sets and the weak / strong / star Ewald and FS conditions.

The Ewald set of P is E(P) = Z^n ∩ P ∩ −P, kept negation-closed and
including 0 whenever 0 ∈ P.  (Some authors drop the origin; we do not.)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil, floor
from operator import neg

from .classify import is_deeply_smooth, is_monotone, is_smooth
from .intlinalg import _basis_search, _xgcd, mat_vec, scan_key
from .polytope import (
    FaceRef,
    HPolytope,
    _bits,
    _checked_face,
    _lattice_search,
    _require_origin_interior,
    _require_simple,
    _row_vertex_masks,
    _slab_frame,
    _vertex_chart,
    _walk_faces,
    per_polytope,
)

__all__ = [
    "EwaldSet",
    "ewald_set",
    "weak_ewald",
    "strong_ewald",
    "StrongEwaldResult",
    "StarSets",
    "star_sets",
    "star_ewald_face",
    "star_ewald",
    "fs_property",
    "nill2d_basis",
    "verify_origin_next_to",
    "deeply_smooth_origin_vertex_basis",
    "dim3_origin_edge_basis",
]


@per_polytope
def _ewald_search(p: HPolytope):
    """(search, centre): the lattice search of E(P) and its centre 0.  E(P)
    is the set of integer x with |u_j·x| <= ⌊c_j⌋ on every row, the d = 0
    slab system on _slab_frame(p); a unit row x_i of that frame is bounded
    by min(hi_i, −lo_i) of P's bounding box, as E(P) ⊂ P ∩ −P.  Built once
    per polytope, for the listing, the count, the neat classes of displace
    and the E(P) limit of fileio alike."""
    rows, coords, cols = _slab_frame(p)
    half = [floor(c) for c in p.offsets]
    if len(rows) > p.nfacets:  # the unit frame
        half += [min(floor(hi), -ceil(lo)) for lo, hi in zip(*p.bounding_box())]
    return _lattice_search(rows, coords, cols, half), [0] * len(rows)


@per_polytope
def _ewald_listing(p: HPolytope) -> tuple:
    """(order, on, opp): E(P) in scan order and its facet columns, built
    once per polytope by one lattice search and one transpose.  Bit k of
    on[i] is set when facet i is tight at order[k], and bit k of opp[i] when
    it is tight at −order[k].  EwaldSet lists E(P) from order, and the
    strong, star and FS checks and counting.facet_ewald_split read the
    columns, so none of them walks E(P) per face.

    The system of _ewald_search is symmetric, so the search visits one point
    of each pair ±λ and reads λ's mask t | tn << m off the leaf residuals,
    e[j] = −u_j·λ: t has bit j set when facet j is tight at λ, tn when it is
    tight at −λ, and −λ takes tn | t << m.  Only an
    integral c_j can be tight.  Each entry carries its max-norm from the
    leaf, so the entries sort as plain tuples into the order of scan_key,
    and one polytope._row_vertex_masks over their masks (2m rows) gives
    both sets of columns.
    """
    search, centre = _ewald_search(p)
    m = p.nfacets
    tight = [(j, 1 << j, c) for j, c in enumerate(p.offsets) if isinstance(c, int)]
    table = []

    def visit(lam, e):
        t = tn = 0
        for j, bit, c in tight:  # u_j·λ = −e[j]
            if e[j] == -c:
                t |= bit
            if e[j] == c:
                tn |= bit
        norm = max(map(abs, lam), default=0)
        table.append((norm, lam, t | tn << m))
        if norm:
            table.append((norm, tuple(map(neg, lam)), tn | t << m))

    search(centre, visit, halfspace=True)
    table.sort()  # λ are distinct, so no two entries tie on (norm, λ)
    order, masks = tuple([lam for _, lam, _ in table]), [mask for _, _, mask in table]
    table.clear()  # before the transpose, where the listing's memory peaks
    cols = _row_vertex_masks(masks, 2 * m)
    return order, tuple(cols[:m]), tuple(cols[m:])


_LISTED = (_ewald_listing.__wrapped__, ())  # where a polytope caches its listing


@per_polytope
def _ewald_count(p: HPolytope) -> int:
    """|E(P)|, exactly, from the count of E(P)'s lattice search: no point of
    E(P) is listed."""
    search, centre = _ewald_search(p)
    return search(centre)[0]


@per_polytope
def _point_set(p: HPolytope) -> frozenset:
    return frozenset(_ewald_listing(p)[0])


class EwaldSet:
    """E(P) of one polytope, as a view.  Its size is the length of the
    listing of _ewald_listing once that is built, and the count of
    _ewald_count otherwise, so reading |E(P)| lists nothing; the points,
    their scan order and membership list E(P) the first time one of them is
    read.  The view is not cached: held in the polytope's cache, it would
    make a reference cycle that keeps every polytope alive until the next
    collection."""

    __slots__ = ("_p",)

    def __init__(self, p: HPolytope):
        self._p = p

    @property
    def dim(self) -> int:
        return self._p.dim

    @property
    def size(self) -> int:
        """|E(P)|, an int of any size; len() raises OverflowError above
        sys.maxsize."""
        listed = self._p._cache.get(_LISTED)
        return len(listed[0]) if listed is not None else _ewald_count(self._p)

    def __len__(self):
        return self.size

    def __contains__(self, x):
        return tuple(x) in self.points

    def __repr__(self):
        return "EwaldSet(dim=%d, size=%d)" % (self.dim, self.size)

    @property
    def points(self) -> frozenset:
        return _point_set(self._p)

    def ordered(self) -> tuple:
        """Deterministic scan order, intlinalg.scan_key: max-norm ascending,
        then lexicographic, as one half-space lattice search and one sort
        build it in _ewald_listing."""
        return _ewald_listing(self._p)[0]


def ewald_set(p: HPolytope) -> EwaldSet:
    """Symmetric lattice points of P, computed exactly: the integer x with
    |u_j·x| <= ⌊c_j⌋ on every row, as a view (EwaldSet) that counts them
    or lists them as it is read."""
    return EwaldSet(p)


def weak_ewald(p: HPolytope):
    """(flag, basis): does E(P) contain a unimodular basis of Z^n?"""
    _require_origin_interior(p)
    basis = _basis_search(ewald_set(p).ordered(), p.dim)
    return basis is not None, basis


@dataclass(frozen=True)
class StrongEwaldResult:
    ok: bool
    bases: tuple  # per facet: basis tuple or None
    failing_facet: int | None


def strong_ewald(p: HPolytope) -> StrongEwaldResult:
    """Search a unimodular basis inside E(P) ∩ F for every facet F, over the
    λ of the facet's column in E(P)'s scan order.  Only a facet at height 1
    is searched."""
    _require_origin_interior(p)
    order, on, _ = _ewald_listing(p)
    bases = []
    for i, col in enumerate(on):
        # u_F is primitive, so a unimodular G has u_F as its first column; n
        # points of F stacked as rows Λ give Λ·G the first column c_F·(1, …, 1),
        # so c_F divides det Λ and only a facet with c_F = 1 holds a basis
        basis = _basis_search([order[k] for k in _bits(col)], p.dim) if p.offsets[i] == 1 else None
        bases.append(basis)
        if basis is None:
            return StrongEwaldResult(False, tuple(bases), i)
    return StrongEwaldResult(True, tuple(bases), None)


@dataclass(frozen=True)
class StarSets:
    """Star(f) = union of facets containing f; star(f) = union of ridges
    containing f; Star*(f) = Star(f) \\ star(f)."""

    star_facets: tuple  # the facets containing the face, sorted
    ridges: tuple  # FaceRefs of codim 2 containing the face


def star_sets(p: HPolytope, f) -> StarSets:
    """The star sets of the face f, a FaceRef or facet indices."""
    tight = _bits(_checked_face(p, f))
    ridges = tuple(FaceRef(pair, 2) for pair in combinations(tight, 2))
    return StarSets(tight, ridges)


def _star_step(state, on, opp):
    """One facet's step of the star test.  state is (ones, barred): the scan
    positions of the λ at which some facet is tight, and those barred from
    witnessing, where a second facet is tight at λ or one is tight at −λ.
    The witnesses are ones & ~barred."""
    ones, barred = state
    return ones | on, barred | ones & on | opp


def _star_witnesses(p: HPolytope, face: int) -> int:
    """The scan positions of the λ ∈ E(P) at which exactly one facet of the
    facet mask face is tight and none is tight at −λ, as a bitset."""
    _, on, opp = _ewald_listing(p)
    state = (0, 0)
    for i in _bits(face):
        state = _star_step(state, on[i], opp[i])
    ones, barred = state
    return ones & ~barred


def star_ewald_face(p: HPolytope, f: FaceRef):
    """(flag, λ): does some λ ∈ E(P) lie in Star*(f) with −λ ∉ Star(f)?
    λ is the first such point in E(P)'s scan order."""
    _require_origin_interior(p)
    found = _star_witnesses(p, _checked_face(p, f))
    lam = ewald_set(p).ordered()[(found & -found).bit_length() - 1] if found else None
    return lam is not None, lam


def star_ewald(p: HPolytope):
    """(flag, failing_face): the star condition over every proper face; the
    failing face is the first in the order of increasing codimension, then
    of p.faces(codim).

    One walk of the face lattice (polytope._walk_faces) carries the star
    state per depth, so each face takes one _star_step from its parent's.
    A failing face at codim c lowers the walk's limit to c − 1: a later
    face fails first in that order only at a smaller codimension.  Only the
    failing face becomes a FaceRef."""
    _require_origin_interior(p)
    _require_simple(p)
    _, on, opp = _ewald_listing(p)
    limit, failed = [p.dim], None
    states = [(0, 0)] * (p.dim + 1)
    for codim, face, _, j in _walk_faces(p, limit):
        ones, barred = states[codim] = _star_step(states[codim - 1], on[j], opp[j])
        if (ones | barred) == barred:  # no witness: ones & ~barred is empty
            failed, limit[0] = FaceRef(_bits(face), codim), codim - 1
    return failed is None, failed


def fs_property(p: HPolytope) -> bool:
    """Every facet meets E(P).  Defined for monotone polytopes."""
    if not is_monotone(p):
        raise ValueError("FS property is defined for monotone polytopes")
    return all(_ewald_listing(p)[1])


def nill2d_basis(p: HPolytope):
    """Lattice basis inside E(P) for a lattice polygon with interior origin.

    A shortest nonzero Ewald point q goes to (1, 0) under the unimodular
    map m; the basis is (q, x) for the x ∈ E(P) with (m x)[1] = det(q, x)
    = 1 whose image m x comes first in scan order, or None when E(P) = {0}
    (or no such point exists).
    """
    if p.dim != 2:
        raise ValueError("nill2d_basis expects a polygon")
    if not p.is_lattice():
        raise ValueError("nill2d_basis expects a lattice polygon")
    _require_origin_interior(p)
    points = ewald_set(p).ordered()
    q = next((x for x in points if any(x)), None)
    if q is None:
        return None
    g, a, b = _xgcd(q[0], q[1])
    assert g == 1, "shortest nonzero Ewald point must be primitive"
    m = ((a, b), (-q[1], q[0]))  # m @ q == (1, 0), det m == 1
    unit = [x for x in points if q[0] * x[1] - q[1] * x[0] == 1]  # (m x)[1] = det(q, x) = 1
    return (q, min(unit, key=lambda x: scan_key(mat_vec(m, x)))) if unit else None


def _next_to_origin(p: HPolytope, face: int) -> bool:
    # every facet of the facet mask face is at lattice distance one from 0
    return all(p.offsets[i] == 1 for i in _bits(face))


def verify_origin_next_to(p: HPolytope, f: FaceRef) -> bool:
    """True iff the origin lies in the first displacement of f, i.e. every
    facet through f is at lattice distance one from the origin."""
    _require_origin_interior(p)
    return _next_to_origin(p, _checked_face(p, f))


def deeply_smooth_origin_vertex_basis(p: HPolytope):
    """For deeply smooth P with the origin next to some vertex v, the
    primitive edge vectors at v, the edge rays of v's chart, sorted, form a
    lattice basis inside E(P)."""
    if not is_deeply_smooth(p)[0]:
        return None
    _require_origin_interior(p)
    e = ewald_set(p)
    for i, t in enumerate(p.vertex_masks()):
        if not _next_to_origin(p, t):
            continue
        dirs = tuple(sorted(_vertex_chart(p, i)[1]))
        if all(d in e.points for d in dirs):
            return dirs
        raise AssertionError("edge vectors escaped E(P) with origin next to vertex")
    return None


def dim3_origin_edge_basis(p: HPolytope):
    """For a smooth 3-polytope with the origin next to some edge, E(P)
    contains a lattice basis; returns one, or None when no edge qualifies."""
    if p.dim != 3 or not is_smooth(p)[0]:
        raise ValueError("requires a smooth 3-polytope")
    _require_origin_interior(p)
    if not any(_next_to_origin(p, f.mask) for f in p.faces(2)):
        return None
    basis = _basis_search(ewald_set(p).ordered(), 3)
    if basis is None:
        raise AssertionError("origin next to an edge but no basis in E(P)")
    return basis
