"""Closed-form Ewald counting: trinomial coefficients, the simplex and SSB
counts, the minimum-Ewald upper bounds, facet splits of E(P), and the small
fiber bundle recursions.

The formulas here are deliberately independent of the enumeration path in
ewald.py so that each side can serve as the other's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm

from .bundles import small_fiber_bundle
from .classify import is_monotone
from .ewald import _ewald_listing
from .intlinalg import _det, _integer
from .polytope import HPolytope, _face_facets, _row_masks

__all__ = [
    "trinomial",
    "ewald_count_simplex",
    "ewald_count_ssb",
    "emin_upper_bound",
    "FacetEwaldSplit",
    "facet_ewald_split",
    "small_bundle_split_recursion_check",
    "volume",
    "normalized_volume",
]


def trinomial(n: int, k: int) -> int:
    """Coefficient of x^k in (1+x+x^2)^n; 0 outside [0, 2n].

    Choosing x^2 from j of the n factors and x from k - 2j of the others
    gives the sum of C(n, j) · C(n - j, k - 2j) over j.
    """
    if n < 0:
        raise ValueError("trinomial needs n >= 0")
    if k < 0 or k > 2 * n:
        return 0
    return sum(comb(n, j) * comb(n - j, k - 2 * j) for j in range(k // 2 + 1))


def ewald_count_simplex(n: int) -> int:
    """|E(Δ_n)| = [x^(n+1)] (1+x+x^2)^(n+1)."""
    if n < 1:
        raise ValueError("needs n >= 1")
    return trinomial(n + 1, n + 1)


def ewald_count_ssb(n: int, k: int) -> int:
    """|E(SSB(n,k))| = [x^n](1+x+x^2)^n + 2 [x^(n-k)](1+x+x^2)^n."""
    if n < 2 or not 0 <= k <= n - 1:
        raise ValueError("needs n >= 2 and 0 <= k <= n-1")
    return trinomial(n, n) + 2 * trinomial(n, n - k)


def emin_upper_bound(n: int) -> int:
    """Upper bound for the minimum Ewald count among monotone n-polytopes,
    attained by iterated small fiber bundles; n = 2 is excluded."""
    n = _integer(n)
    if n < 3:
        raise ValueError("bound defined for n >= 3 (n = 2 excluded case)")
    k, r = divmod(n - 1, 3)
    if r == 0:  # n = 3k+1
        return 3 * 9**k
    if r == 1:  # n = 3k+2, k >= 1 here since n >= 5
        return 59 * 9 ** (k - 1)
    return 13 * 9**k  # n = 3k+3


@dataclass(frozen=True)
class FacetEwaldSplit:
    """Counts of E(P) on u_F·x = 1, 0, −1; e_plus == e_minus always, and the
    three strata exhaust E(P) for monotone P."""

    e_plus: int
    e_zero: int
    e_minus: int

    @property
    def total(self):
        return self.e_plus + self.e_zero + self.e_minus


def facet_ewald_split(p: HPolytope, facet: int) -> FacetEwaldSplit:
    """E₊ and E₋ are the sizes of the facet's two columns of E(P); on
    monotone P every λ ∈ E(P) has |u_F·λ| <= 1, so E₀ is the rest."""
    if not is_monotone(p):
        raise ValueError("facet splits are defined for monotone polytopes")
    if not 0 <= facet < p.nfacets:
        raise ValueError("invalid facet index")
    order, on, opp = _ewald_listing(p)
    plus, minus = on[facet].bit_count(), opp[facet].bit_count()
    return FacetEwaldSplit(plus, len(order) - plus - minus, minus)


def small_bundle_split_recursion_check(base: HPolytope, facet: int, n: int) -> bool:
    """Measure the Ewald split at the twisted facet F' of the small fiber
    bundle directly and compare with the recursion

        |E+(P,F')| = n·|E+(B,F)| + |E+(Δ_n)|·|E0(B,F)|
        |E0(P,F')| = 2·|E+(B,F)| + |E0(Δ_n)|·|E0(B,F)|
    """
    bundle = small_fiber_bundle(base, facet, n)
    split_b = facet_ewald_split(base, facet)
    e_plus_simplex = (ewald_count_simplex(n) - _count_simplex(n - 1)) // 2
    e_zero_simplex = _count_simplex(n - 1)
    predicted_plus = n * split_b.e_plus + e_plus_simplex * split_b.e_zero
    predicted_zero = 2 * split_b.e_plus + e_zero_simplex * split_b.e_zero
    measured = facet_ewald_split(bundle, bundle.nfacets - 1)
    return (measured.e_plus, measured.e_zero) == (predicted_plus, predicted_zero)


def _count_simplex(n: int) -> int:
    return 1 if n == 0 else ewald_count_simplex(n)


def volume(p: HPolytope) -> Fraction:
    """Exact Euclidean volume from a pulling triangulation on the incidence
    masks (Büeler–Enge–Fukuda, "Exact volume computation for polytopes: a
    practical study", 2000).

    A face is the mask of its vertices.  Pull its lowest-index vertex and
    recurse into its facets that miss it (polytope._face_facets); at a
    vertex, the pulled chain v_0, ..., v_n is a simplex of the
    triangulation, and n!·vol(P) is the sum of |det(v_k − v_0)| over them.
    Rational vertices are scaled by their common denominator D first and
    the sum divided by D^n.  A point has volume 1, that of R^0.
    """
    verts = p.vertices()
    scale = lcm(1, *(x.denominator for v in verts for x in v))
    pts = [[int(x * scale) for x in v] for v in verts]
    total = _pull((1 << len(verts)) - 1, [], pts, _row_masks(p), {})
    return Fraction(total, scale**p.dim * factorial(p.dim))


def _pull(face, chain, pts, on_row, steps):
    """Sum of |det(v_k − v_0)| over the simplices of the face's pulling
    triangulation, each joined to the vertices chain pulled before it.
    steps maps each face met so far in this volume call to its facets that
    miss its pulled vertex: many chains reach the same face."""
    low = face & -face
    chain = chain + [pts[low.bit_length() - 1]]
    if face not in steps:
        steps[face] = [g for g in _face_facets(face, on_row) if not g & low]
    rest = steps[face]
    if not rest:  # the face is the vertex low, and chain a simplex
        return abs(_det([[a - b for a, b in zip(v, chain[0])] for v in chain[1:]]))
    return sum(_pull(g, chain, pts, on_row, steps) for g in rest)


def normalized_volume(p: HPolytope) -> int:
    """Lattice-normalized volume n! · vol(P); an integer for lattice P."""
    out = volume(p) * factorial(p.dim)
    return int(out) if out.denominator == 1 else out
