"""Ewald sets and the weak / strong / star Ewald and FS conditions.

The Ewald set of P is E(P) = Z^n ∩ P ∩ −P, kept negation-closed and
including 0 whenever 0 ∈ P.  (Some authors drop the origin; we do not.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import ceil, floor
from operator import neg

from .classify import is_monotone, is_smooth
from .intlinalg import _basis_search, _xgcd, inverse_unimodular, mat_vec, scan_key
from .polytope import (
    FaceRef,
    HPolytope,
    _bits,
    _face_masks,
    _lattice_search,
    _require_simple,
    _slab_frame,
    _vertex_chart,
    dot,
    per_polytope,
)

__all__ = [
    "EwaldSet",
    "ewald_set",
    "cube_normalization",
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


@dataclass(frozen=True)
class EwaldSet:
    dim: int
    points: frozenset
    order: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.order is None:
            object.__setattr__(self, "order", tuple(sorted(self.points, key=scan_key)))

    def __len__(self):
        return len(self.points)

    def __contains__(self, x):
        return tuple(x) in self.points

    def ordered(self) -> tuple:
        """Deterministic scan order, intlinalg.scan_key: max-norm ascending,
        then lexicographic.  ewald_set hands over the order of its one sort;
        an EwaldSet built from points alone sorts them when it is made."""
        return self.order


@per_polytope
def _tight_masks(p: HPolytope) -> tuple:
    """One entry (λ, t, tn) per λ ∈ E(P) in scan order, built once per
    polytope by one lattice search: t has bit i set when facet i is tight at
    λ, tn when it is tight at −λ.  ewald_set and the strong, star and FS
    checks all read this table.

    E(P) is the set of integer x with |u_j·x| <= ⌊c_j⌋ on every row, the
    d = 0 slab system on _slab_frame(p); a unit row of that frame is bounded
    by min(max, −min) of its values at the vertices, as E(P) ⊂ P ∩ −P.  The
    system is symmetric, so the search visits one point of each pair ±λ and
    reads the facet masks off the leaf residuals, e[j] = −u_j·λ.  Only an
    integral c_j can be tight.  Each entry carries its max-norm from the
    leaf, so the table sorts as plain tuples into the order of scan_key.
    """
    rows, coords = _slab_frame(p)
    half = [floor(c) for c in p.offsets]
    for u in rows[p.nfacets:]:
        values = [dot(u, v) for v in p.vertices()]
        half.append(min(floor(max(values)), -ceil(min(values))))
    _, search = _lattice_search(rows, coords, half)
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
        table.append((norm, lam, t, tn))
        if norm:
            table.append((norm, tuple(map(neg, lam)), tn, t))

    search([0] * len(rows), visit, halfspace=True)
    table.sort()  # λ are distinct, so no two entries tie on (norm, λ)
    return tuple([entry[1:] for entry in table])


def cube_normalization(p: HPolytope):
    """Unimodular M sending the lex-smallest vertex cone to the standard
    corner at (−1,…,−1); valid when that vertex is smooth with offsets 1.
    Unimodularity reads d of the vertex's chart."""
    tight = _bits(p.vertex_masks()[0])
    if len(tight) != p.dim:
        raise ValueError("vertex is not simple")
    if any(p.offsets[i] != 1 for i in tight):
        raise ValueError("vertex facets are not at offset 1")
    if abs(_vertex_chart(p, 0)[1]) != 1:
        raise ValueError("vertex cone is not unimodular")
    return tuple(tuple(-x for x in p.normals[i]) for i in tight)


@per_polytope
def ewald_set(p: HPolytope) -> EwaldSet:
    """Symmetric lattice points of P, computed exactly: the integer x with
    |u_j·x| <= ⌊c_j⌋ on every row, read from the table of _tight_masks, which
    one half-space lattice search builds already in scan order."""
    order = tuple(lam for lam, _, _ in _tight_masks(p))
    return EwaldSet(p.dim, frozenset(order), order)


def _require_origin_interior(p: HPolytope):
    if not p.origin_interior():
        raise ValueError("origin is not interior")


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
    """Search a unimodular basis inside E(P) ∩ F for every facet F.  One
    pass over the tight masks lists each facet's λ in E(P)'s scan order."""
    _require_origin_interior(p)
    on_facet = [[] for _ in range(p.nfacets)]
    for lam, t, _ in _tight_masks(p):
        for i in _bits(t):
            on_facet[i].append(lam)
    bases = []
    for i in range(p.nfacets):
        basis = _basis_search(on_facet[i], p.dim)
        bases.append(basis)
        if basis is None:
            return StrongEwaldResult(False, tuple(bases), i)
    return StrongEwaldResult(True, tuple(bases), None)


@dataclass(frozen=True)
class StarSets:
    """Star(f) = union of facets containing f; star(f) = union of ridges
    containing f; Star*(f) = Star(f) \\ star(f)."""

    face: FaceRef
    star_facets: tuple
    ridges: tuple  # FaceRefs of codim 2 containing the face
    parent: HPolytope

    def _tight_count(self, x) -> int:
        p = self.parent
        return sum(
            1 for i in self.star_facets if dot(p.normals[i], x) == p.offsets[i]
        )

    def in_star(self, x) -> bool:
        return self.parent.contains(x) and self._tight_count(x) >= 1

    def in_star_lower(self, x) -> bool:
        return self.parent.contains(x) and self._tight_count(x) >= 2

    def in_star_star(self, x) -> bool:
        return self.parent.contains(x) and self._tight_count(x) == 1


def _checked_face(p: HPolytope, f: FaceRef) -> int:
    """f.mask, once f names a face of p: distinct facet indices in range,
    all tight together at some vertex.  Raises ValueError otherwise."""
    t = f.tight
    if len(set(t)) != len(t) or not all(0 <= i < p.nfacets for i in t):
        raise ValueError("invalid face")
    mask = f.mask
    if not any(v & mask == mask for v in p.vertex_masks()):
        raise ValueError("invalid face")
    return mask


def star_sets(p: HPolytope, f: FaceRef) -> StarSets:
    _checked_face(p, f)
    ridges = tuple(FaceRef(pair, 2) for pair in combinations(f.tight, 2))
    return StarSets(f, tuple(f.tight), ridges, p)


def _star_witness(table, face: int):
    # first λ with exactly one facet of the face tight at λ and none at −λ
    for lam, t, tn in table:
        hit = t & face
        if hit and not hit & (hit - 1) and not tn & face:
            return lam
    return None


def star_ewald_face(p: HPolytope, f: FaceRef):
    """(flag, λ): does some λ ∈ E(P) lie in Star*(f) with −λ ∉ Star(f)?
    λ is the first such point in E(P)'s scan order."""
    _require_origin_interior(p)
    lam = _star_witness(_tight_masks(p), _checked_face(p, f))
    return lam is not None, lam


def star_ewald(p: HPolytope):
    """(flag, failing_face): the star condition over every proper face,
    scanned by increasing codimension, witness-first.

    The faces are the facet masks of polytope._face_masks, in the order of
    p.faces(codim).  Only the failing face becomes a FaceRef."""
    _require_origin_interior(p)
    _require_simple(p)
    table = _tight_masks(p)
    for codim in range(1, p.dim + 1):
        for face in _face_masks(p, codim):
            if _star_witness(table, face) is None:
                return False, FaceRef(_bits(face), codim)
    return True, None


def fs_property(p: HPolytope) -> bool:
    """Every facet meets E(P).  Defined for monotone polytopes."""
    if not is_monotone(p):
        raise ValueError("FS property is defined for monotone polytopes")
    met = 0
    for _, t, _ in _tight_masks(p):
        met |= t
    return met == (1 << p.nfacets) - 1


def nill2d_basis(p: HPolytope):
    """Lattice basis inside E(P) for a lattice polygon with interior origin.

    Normalizes a shortest nonzero Ewald point to (1,0) by a unimodular map,
    then looks for a point (a,1); returns the basis in original coordinates,
    or None when E(P) = {0} (or no such point exists).
    """
    if p.dim != 2:
        raise ValueError("nill2d_basis expects a polygon")
    if not p.is_lattice():
        raise ValueError("nill2d_basis expects a lattice polygon")
    _require_origin_interior(p)
    e = ewald_set(p)
    nonzero = [x for x in e.ordered() if any(x)]
    if not nonzero:
        return None
    q = nonzero[0]
    g, a, b = _xgcd(q[0], q[1])
    assert g == 1, "shortest nonzero Ewald point must be primitive"
    m = ((a, b), (-q[1], q[0]))  # m @ q == (1, 0), det m == 1
    minv = inverse_unimodular(m)
    for x in sorted((mat_vec(m, x) for x in e.points), key=scan_key):
        if x[1] == 1:
            return q, mat_vec(minv, x)
    return None


def verify_origin_next_to(p: HPolytope, f: FaceRef) -> bool:
    """True iff the origin lies in the first displacement of f, i.e. every
    facet through f is at lattice distance one from the origin."""
    _require_origin_interior(p)
    _checked_face(p, f)
    return all(p.offsets[i] == 1 for i in f.tight)


def deeply_smooth_origin_vertex_basis(p: HPolytope):
    """For deeply smooth P with the origin next to some vertex v, the
    primitive edge vectors at v form a lattice basis inside E(P)."""
    from .classify import is_deeply_smooth, vertex_edge_directions

    if not is_deeply_smooth(p)[0]:
        return None
    _require_origin_interior(p)
    e = ewald_set(p)
    for i, t in enumerate(p.vertex_masks()):
        if not verify_origin_next_to(p, FaceRef(_bits(t), p.dim)):
            continue
        dirs = vertex_edge_directions(p, i)
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
    for f in p.faces(2):
        if verify_origin_next_to(p, f):
            basis = _basis_search(ewald_set(p).ordered(), 3)
            if basis is None:
                raise AssertionError("origin next to an edge but no basis in E(P)")
            return basis
    return None
