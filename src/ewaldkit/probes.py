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
from itertools import compress, product, repeat
from math import ceil, lcm
from operator import eq

from .ewald import star_ewald
from .classify import is_monotone
from .intlinalg import _as_vec
from .polytope import HPolytope, _row_values, _slab_search, dot, per_polytope

__all__ = [
    "Probe",
    "is_integrally_transverse",
    "displaceable_by_probe",
    "ProbeReport",
    "star_probe_crosscheck",
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
    lam = _as_vec(lam)
    if len(lam) != len(u_f):
        raise ValueError("direction of length %d against a normal of length %d" % (len(lam), len(u_f)))
    if not any(lam):
        raise ValueError("zero direction")
    return dot(u_f, lam) in (1, -1)


def check_bound(bound: int) -> None:
    """Refuse a direction bound below 1, whose search would find nothing."""
    if bound < 1:
        raise ValueError("probe bound must be at least 1, got %d" % bound)


def _directions(n, bound) -> tuple:
    """(dirs, cols): the nonzero directions of max-norm <= bound in scan order
    (max-norm, then lexicographic), and their coordinate columns, column t
    holding coordinate t of every direction.  Each shell of max-norm k is
    the box [−k, k]^n, which product yields in lexicographic order, less the
    points with no coordinate ±k, so nothing is sorted."""
    check_bound(bound)
    dirs = tuple(t for k in range(1, bound + 1) for t in product(range(-k, k + 1), repeat=n) if k in t or -k in t)
    return dirs, tuple(zip(*dirs))


_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


def _positions_mask(flags) -> int:
    """The mask with bit k set iff the k-th flag is true (flags nonempty)."""
    return int(bytes(flags).translate(_DIGIT)[::-1], 2)


@per_polytope
def _probe_directions(p: HPolytope, bound: int) -> tuple:
    """Per facet F, (lams, every, rows): the directions λ with u_F·λ = −1 in
    _directions order, the mask of all their positions, and per other row j
    whose u_j·λ is not 0 on all of them, (j, masks) with masks[k] the
    positions whose |u_j·λ| <= k, for k below the largest.  Built once per
    polytope and bound from the direction columns."""
    dirs, cols = _directions(p.dim, bound)
    size = len(dirs)
    values = [list(_row_values(u, cols, size)) for u in p.normals]
    table = []
    for f, vf in enumerate(values):
        at = list(compress(range(size), map(eq, vf, repeat(-1))))
        if not at:
            table.append(((), 0, ()))
            continue
        rows = []
        for j, vj in enumerate(values):
            if j == f:
                continue
            sizes = list(map(abs, map(vj.__getitem__, at)))
            masks = [_positions_mask(map(k.__ge__, sizes)) for k in range(max(sizes))]
            if masks:
                rows.append((j, tuple(masks)))
        table.append((tuple(map(dirs.__getitem__, at)), (1 << len(at)) - 1, tuple(rows)))
    return tuple(table)


def _first_probe(table, slack):
    """(F, λ) of the first probe (facets by index, then _directions order)
    from a point whose scaled slacks c_j − u_j·u are the positive ints
    slack, or None.  With t = −slack_F, the probe through F along λ accepts
    iff slack_F·|u_j·λ| < slack_j, that is |u_j·λ| <= (slack_j − 1) //
    slack_F, on every row j ≠ F: the AND of one threshold mask per row."""
    for f, (lams, hits, rows) in enumerate(table):
        st = slack[f]
        for j, masks in rows:
            k = (slack[j] - 1) // st
            if k < len(masks):
                hits &= masks[k]
                if not hits:
                    break
        if hits:
            return f, lams[(hits & -hits).bit_length() - 1]
    return None


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
    denominator, and _first_probe reads them as threshold masks.
    """
    if len(u) != p.dim:
        raise ValueError("probe point of length %d in dimension %d" % (len(u), p.dim))
    u = tuple(Fraction(x) for x in u)
    scale = lcm(*(x.denominator for x in u + p.offsets))
    su = [_scaled(x, scale) for x in u]
    slack = [_scaled(c, scale) - dot(nj, su) for nj, c in zip(p.normals, p.offsets)]
    if not all(s > 0 for s in slack):
        raise ValueError("probe base point must be strictly interior")
    found = _first_probe(_probe_directions(p, bound), slack)
    if found is None:
        return None
    fi, lam = found
    st = slack[fi]  # scale·|t|
    w = tuple(Fraction(x - st * l, scale) for x, l in zip(su, lam))
    a = [dot(nj, lam) for nj in p.normals]
    exit_t = min(Fraction(s + st * aj, scale * aj) for s, aj in zip(slack, a) if aj > 0)
    end = tuple(x + exit_t * l for x, l in zip(w, lam))
    return Probe(fi, lam, w, end)


def check_samples(samples: int) -> None:
    """Refuse a sample count below 1, whose grid would be empty."""
    if samples < 1:
        raise ValueError("samples must be positive")


@per_polytope
def _sample_search(p: HPolytope, samples: int):
    """(search, centre) of the integer q with q/samples strictly inside P,
    the origin included: u_j·q <= ⌈c_j·samples⌉ − 1 on every row, on the
    lattice scaled by samples (polytope._slab_search).  Built once per
    polytope and sample count for _sample_points and the probe-grid limit
    of fileio."""
    check_samples(samples)
    return _slab_search(p, [ceil(c * samples) - 1 for c in p.offsets], samples)


def _sample_points(p: HPolytope, samples: int) -> list:
    """The sample grid of the cross-check: the integer q of _sample_search,
    the origin excluded, in lexicographic order."""
    search, centre = _sample_search(p, samples)
    points = []
    search(centre, lambda q, e: points.append(q))
    return sorted(q for q in points if any(q))


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
    check_bound(bound)
    if not is_monotone(p):
        raise ValueError("cross-check is defined for monotone polytopes")
    star, _ = star_ewald(p)
    grid = _sample_points(p, samples)
    table = _probe_directions(p, bound)
    # the point q / samples on integers scaled by scale = lcm(samples, offset
    # denominators): slack_j = scale·c_j − (scale / samples)·u_j·q
    scale = lcm(samples, *(c.denominator for c in p.offsets))
    step = scale // samples
    cols, rows = tuple(zip(*grid)), zip(p.normals, p.offsets)
    slacks = zip(*(_row_values([-step * a for a in u], cols, len(grid), _scaled(c, scale)) for u, c in rows))
    bad = [q for q, slack in zip(grid, slacks) if _first_probe(table, slack) is None]
    return ProbeReport(
        star_ewald=star,
        samples=samples,
        bound=bound,
        total=len(grid),
        displaceable=len(grid) - len(bad),
        undisplaceable_points=tuple(tuple(Fraction(x, samples) for x in q) for q in bad),
    )
