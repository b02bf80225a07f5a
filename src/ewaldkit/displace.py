"""Facet-offset displacements P_b, face first-displacements, and the bounded
neatness check.

Neatness quantifies over all integer b; the artifact decides it only up to a
max-norm radius (CLI flag --radius, default 2).  Only a counterexample is
conclusive; "neat_up_to_radius" is evidence, not proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import is_smooth
from .polytope import (
    HPolytope,
    Slice,
    _facet_rows,
    _lattice_search,
    _slab_frame,
    _vertex_chart,
    enumerate_vertices,
    face_slice,
    normal_fan_signature,
)

__all__ = [
    "DisplacedSystem",
    "displace",
    "first_displacement",
    "displacement_slice",
    "normally_isomorphic_displacements",
    "NeatVerdict",
    "is_neat",
    "neat_transfer_bundle_check",
]

DEFAULT_RADIUS = 2


@dataclass(frozen=True)
class DisplacedSystem:
    """The inequality system {x : N x <= c + b}; not reduced automatically."""

    parent: HPolytope
    b: tuple
    offsets: tuple

    @property
    def normals(self):
        return self.parent.normals

    def analyze(self) -> dict:
        """Validity flags: emptiness, dimension, boundedness (inherited from
        the parent since the recession cone ignores offsets), irredundancy
        over the same rows, and normal isomorphism with the parent."""
        verts, masks = enumerate_vertices(self.parent.dim, self.normals, self.offsets)
        full_dim, facets = _facet_rows(masks, len(self.normals))
        irredundant = full_dim and len(facets) == len(self.normals)
        iso = irredundant and frozenset(masks) == normal_fan_signature(self.parent).cones
        return {
            "nonempty": bool(verts),
            "full_dim": full_dim,
            "bounded": True,
            "irredundant_same_rows": irredundant,
            "normally_isomorphic_to_parent": iso,
        }

    def as_hpolytope(self) -> HPolytope:
        flags = self.analyze()
        if not flags["irredundant_same_rows"]:
            raise ValueError("displacement is degenerate: %r" % (flags,))
        return HPolytope(self.parent.dim, self.normals, self.offsets)


def displace(p: HPolytope, b) -> DisplacedSystem:
    b = tuple(b)
    for i, x in enumerate(b):
        if int(x) != x:
            raise ValueError("displacement entry %d is not an integer: %s" % (i, x))
    b = tuple(map(int, b))
    if len(b) != p.nfacets:
        raise ValueError("displacement length must match facet count")
    return DisplacedSystem(p, b, tuple(c + d for c, d in zip(p.offsets, b)))


def displacement_slice(p: HPolytope, face) -> Slice:
    """First displacement of a face with full chart data (may be degenerate)."""
    return face_slice(p, face, inset=1)


def first_displacement(p: HPolytope, face) -> HPolytope:
    """The face's defining facets pushed in by one lattice unit, re-expressed
    in the lattice of the intersected affine subspace."""
    ok, _ = is_smooth(p)
    if not ok or not p.is_lattice():
        raise ValueError("first displacement requires a lattice smooth polytope")
    s = face_slice(p, face, inset=1)
    if s.is_empty:
        raise ValueError("displacement vanishes")
    if s.polytope is None:
        raise ValueError("displacement is lower-dimensional")
    return s.polytope


# -- enumeration of fan-preserving displacements --------------------------


def _vertex_margin_constraints(p: HPolytope):
    """The conditions, affine in b, under which P_b keeps the fan of p.

    At a vertex v with tight rows T, let S be the rows s of its chart
    (polytope._vertex_chart): all of T at a simple vertex, otherwise the
    first n independent rows.  The displaced vertex candidate is
    x_S(b) = v + A_S^{-1} b_S.  P_b has the parent's fan, over the same
    rows, iff at every vertex x_S(b) is tight on each row of T \\ S and
    strictly inside every row off T: then each x_S(b) is a vertex of P_b
    with mask T, and those normal cones already cover R^n, so P_b has no
    other vertex, no implicit equality and no redundant row.  The converse
    is immediate.

    Row j outside S reads c_j + b_j − u_j·x_S(b) = margin_j + b_j +
    Σ_t slope_t·b_{s_t} off its chart row, as u_j·A_S^{-1} e_t = −slope_t.
    Each strict margin is stored as (const, ((idx, coeff), ...)) meaning
    const + sum coeff*b[idx] > 0, each equality on a row of T \\ S as
    (None, ((idx, coeff), ...)) meaning sum coeff*b[idx] == 0; they are
    grouped by their largest index.
    """
    constraints = set()
    for vi, tight in enumerate(p.vertex_masks()):
        s, _, _, rows = _vertex_chart(p, vi)
        for j, margin, slopes in rows:
            terms = [(j, 1)] + [(i, a) for i, a in zip(s, slopes) if a]
            constraints.add((None if tight >> j & 1 else margin, tuple(sorted(terms))))
    grouped = {}
    for const, terms in constraints:
        level = max(i for i, _ in terms)
        grouped.setdefault(level, []).append((const, terms))
    return grouped


class _Certificates:
    """Lattice witnesses of neatness, as bitsets over the witnesses found.

    A witness x with row values v_j = u_j·x certifies every b in its box
    |v_j − b_j| <= c_j, row by row.  For the descent over b in [−r, r]^m:
    - fits[j][t + r] holds the witnesses with |v_j − t| <= c_j;
    - wide[k] those with |v_j| + r <= c_j on every row j >= k, which
      certify any b_k, ..., b_{m−1} in the box (wide[m]: every witness);
    - alive[k] those that fit b_0, ..., b_{k−1} on the descent's path.
    A witness in alive[k] & wide[k] certifies the whole subtree below
    b_0, ..., b_{k−1}; at k = m that is the leaf test.
    """

    def __init__(self, offsets, radius: int):
        m = len(offsets)
        self.offsets, self.radius, self.count = offsets, radius, 0
        self.fits = [[0] * (2 * radius + 1) for _ in range(m)]
        self.wide = [0] * (m + 1)
        self.alive = [0] * (m + 1)

    def add(self, values) -> None:
        """Take the witness with row values `values`.  It must fit every
        entry of b on the descent's path, as a point found for the current
        leaf does: it joins alive at every depth."""
        bit, r, m = 1 << self.count, self.radius, len(self.offsets)
        self.count += 1
        for row, v, c in zip(self.fits, values, self.offsets):
            for t in range(max(-r, v - c), min(r, v + c) + 1):
                row[t + r] |= bit
        self.wide[m] |= bit
        for k in range(m, 0, -1):
            if abs(values[k - 1]) + r > self.offsets[k - 1]:
                break
            self.wide[k - 1] |= bit
        for k in range(m + 1):
            self.alive[k] |= bit


def _fan_preserving(p: HPolytope, radius: int, paired: bool, certified: _Certificates | None = None):
    """The margin descent: every b with max-norm <= radius whose constraints
    all hold, so that P_b keeps the fan of p, in lexicographic order,
    smallest entry first.

    Paired, each margin must hold for -b as well (|sum coeff*b_i| < const),
    and the first nonzero entry of b must be negative (b <= -b): the stream
    is then the pairs (b, -b) with both displacements fan-preserving, each
    pair once.

    With certified, a _Certificates over p's offsets and the radius, the
    descent skips every subtree whose b some witness certifies, and every
    leaf one certifies; a caller may add witnesses while a leaf is out.
    """
    if certified is not None:
        alive, wide = certified.alive, certified.wide
        if alive[0] & wide[0]:
            return  # one witness certifies the whole box
    grouped = _vertex_margin_constraints(p)
    m = p.nfacets
    b = [0] * m

    def descend(depth, leading_zeros):
        if depth == m:
            yield tuple(b)
            return
        top = 0 if paired and leading_zeros else radius
        for val in range(-radius, top + 1):
            if certified is not None:
                fit = alive[depth] & certified.fits[depth][val + radius]
                if fit & wide[depth + 1]:
                    continue
                alive[depth + 1] = fit
            b[depth] = val
            ok = True
            for const, terms in grouped.get(depth, ()):
                s = 0
                for i, coeff in terms:
                    s += coeff * b[i]
                if s if const is None else const + s <= 0 or (paired and const - s <= 0):
                    ok = False
                    break
            if ok:
                yield from descend(depth + 1, leading_zeros and val == 0)
        b[depth] = 0

    yield from descend(0, True)


def _keeps_fan(constraints, b) -> bool:
    """Whether P_b keeps p's fan, for constraints = _vertex_margin_constraints(p)
    and any rational b."""
    for group in constraints.values():
        for const, terms in group:
            s = sum(coeff * b[i] for i, coeff in terms)
            if s if const is None else const + s <= 0:
                return False
    return True


def normally_isomorphic_displacements(p: HPolytope, radius: int):
    """Yield all b with max-norm <= radius whose displacement is bounded,
    full-dimensional, irredundant over the same rows, and has the parent's
    normal fan signature, for simple and non-simple p alike: the margin
    descent over _vertex_margin_constraints.  Lexicographic order, smallest
    entry first."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    yield from _fan_preserving(p, radius, paired=False)


@dataclass(frozen=True)
class NeatVerdict:
    status: str  # "neat_up_to_radius" | "counterexample"
    radius: int
    witness_b: tuple | None = None

    @property
    def is_counterexample(self):
        return self.status == "counterexample"


def is_neat(p: HPolytope, radius: int = DEFAULT_RADIUS) -> NeatVerdict:
    """Bounded search for a neatness counterexample.

    For every b with P_b and P_{-b} both normally isomorphic to P, some
    integer x must satisfy x ∈ P_b and −x ∈ P_{-b}.  The pairs (b, −b) with
    b <= −b and both displacements qualifying are tested in lexicographic
    order of b; the verdict reports the first failing b, or
    neat_up_to_radius.  A point x found for one b answers every b in its
    box (_Certificates), so only the b that no point found so far answers,
    x = 0 included, run a lattice search; the stream keeps its order, so
    the first of them without a point is the first failing b.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    ok, _ = is_smooth(p)
    if not ok or not p.is_lattice():
        raise ValueError("neatness is defined for lattice smooth polytopes")
    # both conditions say |u_j·x − b_j| <= c_j; p is smooth, so the search
    # reads p's own rows in the coordinates of its first vertex cone, and
    # a point's row values are b_j − e_j off its residuals e
    search = _lattice_search(*_slab_frame(p), p.offsets)
    certified = _Certificates(p.offsets, radius)
    certified.add((0,) * p.nfacets)  # x = 0: every b with |b_j| <= c_j

    def take(x, e):
        certified.add([bj - ej for bj, ej in zip(b, e)])
        return True

    for b in _fan_preserving(p, radius, paired=True, certified=certified):
        if not search(b, take):
            return NeatVerdict("counterexample", radius, witness_b=b)
    return NeatVerdict("neat_up_to_radius", radius)


def neat_transfer_bundle_check(base, fiber, twist, radius: int) -> bool:
    """Instance test of neatness transfer through bundles: when base and
    fiber are neat up to the radius, the bundle must be too."""
    from .bundles import BundleSpec, build_bundle

    spec = BundleSpec(base=base, fiber=fiber, twist=tuple(twist), shifts=(0,) * fiber.nfacets)
    total = build_bundle(spec)
    if is_neat(base, radius).is_counterexample or is_neat(fiber, radius).is_counterexample:
        return True
    return not is_neat(total, radius).is_counterexample
