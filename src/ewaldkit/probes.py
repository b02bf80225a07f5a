"""Probe displaceability: integrally transverse directions, probe
construction from a facet, and the sampled star-Ewald cross-check.

A probe enters through the relative interior of a facet along an integer
direction integrally transverse to it; a point on the probe is displaced by
it when it sits strictly in the first half of the segment.  The direction
search is bounded (--bound); "not found" at a finite bound is never "not
displaceable".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import ceil, lcm

from .ewald import star_ewald
from .classify import is_monotone
from .polytope import HPolytope, _slab_points, dot

__all__ = [
    "Probe",
    "is_integrally_transverse",
    "displaceable_by_probe",
    "ProbeReport",
    "star_probe_crosscheck",
    "interior_sample_grid",
]

DEFAULT_BOUND = 3


@dataclass(frozen=True)
class Probe:
    facet: int
    direction: tuple
    start: tuple  # w, in the relative interior of the facet
    end: tuple  # exit point of the open segment


def is_integrally_transverse(lam, u_f) -> bool:
    """λ extends to a unimodular basis by vectors parallel to the facet iff
    u_F·λ = ±1 for the primitive facet normal u_F."""
    lam = tuple(int(x) for x in lam)
    if not any(lam):
        raise ValueError("zero direction")
    return dot(u_f, lam) in (1, -1)


@cache
def _directions(n, bound) -> tuple:
    """The nonzero directions of max-norm <= bound, by max-norm, then lex."""
    box = (t for t in product(range(-bound, bound + 1), repeat=n) if any(t))
    return tuple(sorted(box, key=lambda t: (max(abs(x) for x in t), t)))


def _probe_directions(p: HPolytope, bound: int) -> tuple:
    """Per facet F, the pairs (λ, (u_j·λ)_j) over the directions λ with
    u_F·λ = −1, in _directions order; built once per polytope and bound."""
    key = ("probe_directions", bound)
    if key not in p._cache:
        table = [[] for _ in p.normals]
        for lam in _directions(p.dim, bound):
            a = tuple(dot(nj, lam) for nj in p.normals)
            for fi, af in enumerate(a):
                if af == -1:
                    table[fi].append((lam, a))
        p._cache[key] = tuple(map(tuple, table))
    return p._cache[key]


def _scaled(x, scale: int) -> int:
    # scale * x for a rational x whose denominator divides scale
    return x.numerator * (scale // x.denominator)


def displaceable_by_probe(p: HPolytope, u, bound: int = DEFAULT_BOUND):
    """First probe (facets by index, directions by max-norm then lex)
    displacing the interior point u, or None within the direction bound.

    For facet F with normal u_F, an inward direction λ (u_F·λ = −1) meets
    aff(F) at w = u + t·λ with t = u_F·u − b_F < 0; the probe accepts when
    w ∈ relint(F) and the reflected point 2u − w stays strictly interior.
    With u_j·w = u_j·u + t·a_j and u_j·(2u − w) = u_j·u − t·a_j for
    a_j = u_j·λ, both hold iff u_j·u + |t·a_j| < b_j for every j ≠ F.  The
    tests run on integers: u, t and b are scaled by their common
    denominator.
    """
    u = tuple(Fraction(x) for x in u)
    scale = lcm(*(x.denominator for x in u + p.offsets))
    su = [_scaled(x, scale) for x in u]
    nu = [dot(nj, su) for nj in p.normals]
    sc = [_scaled(c, scale) for c in p.offsets]
    if not all(a < c for a, c in zip(nu, sc)):
        raise ValueError("probe base point must be strictly interior")
    rows = tuple(enumerate(zip(nu, sc)))
    for fi, pairs in enumerate(_probe_directions(p, bound)):
        st = sc[fi] - nu[fi]  # scale·|t|
        for lam, a in pairs:
            if all(j == fi or v + st * abs(aj) < c for (j, (v, c)), aj in zip(rows, a)):
                w = tuple(Fraction(x - st * l, scale) for x, l in zip(su, lam))
                exit_t = min(
                    Fraction(c - v + st * aj, scale * aj) for (_, (v, c)), aj in zip(rows, a) if aj > 0
                )
                end = tuple(x + exit_t * l for x, l in zip(w, lam))
                return Probe(fi, lam, w, end)
    return None


def interior_sample_grid(p: HPolytope, samples: int):
    """Deterministic rational grid: points q/samples strictly inside P,
    the origin excluded, in lexicographic order.  Strictly inside reads
    u_j·q <= ⌈c_j·samples⌉ − 1 on every row, for integer q."""
    if samples < 1:
        raise ValueError("samples must be positive")
    upper = [ceil(c * samples) - 1 for c in p.offsets]
    grid = sorted(q for q in _slab_points(p, [None] * p.nfacets, upper, samples) if any(q))
    return tuple(tuple(Fraction(x, samples) for x in q) for q in grid)


@dataclass(frozen=True)
class ProbeReport:
    star_ewald: bool
    samples: int
    bound: int
    total: int
    displaceable: int
    undisplaceable_points: tuple

    @property
    def all_displaceable(self):
        return not self.undisplaceable_points


def star_probe_crosscheck(p: HPolytope, samples: int, bound: int) -> ProbeReport:
    """Sampled check of one direction of the star-Ewald/probe equivalence.

    When P is star Ewald, every sampled nonzero interior point must be
    displaceable by a probe; when it is not, undisplaceable samples are
    corroborating evidence only (the grid cannot certify the converse).
    """
    if not is_monotone(p):
        raise ValueError("cross-check is defined for monotone polytopes")
    star, _ = star_ewald(p)
    grid = interior_sample_grid(p, samples)
    bad = []
    good = 0
    for pt in grid:
        if displaceable_by_probe(p, pt, bound) is not None:
            good += 1
        else:
            bad.append(pt)
    return ProbeReport(
        star_ewald=star,
        samples=samples,
        bound=bound,
        total=len(grid),
        displaceable=good,
        undisplaceable_points=tuple(bad),
    )
