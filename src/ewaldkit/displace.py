"""Facet-offset displacements P_b, face first-displacements, and neatness.

Neatness quantifies over all integer b, but the answer for b is the answer
for every b + N·t (t ∈ Zⁿ), and finitely many of these translation classes
keep the fan.  is_neat decides each class once: exactly (radius=None,
verdict "neat" or "counterexample"), or for the b of max-norm at most a
radius (CLI flag --radius, default 2), where only a counterexample is
conclusive and "neat_up_to_radius" is evidence, not proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import mul

from .classify import _require_lattice_smooth
from .ewald import _ewald_search
from .intlinalg import _as_vec
from .polytope import (
    HPolytope,
    Slice,
    _edges,
    _exact,
    _facet_rows,
    _margins,
    _ratio,
    _vertex_chart,
    enumerate_vertices,
    face_slice,
    normal_fan_signature,
    per_polytope,
)

__all__ = [
    "DisplacedSystem",
    "displace",
    "first_displacement",
    "displacement_slice",
    "normally_isomorphic_displacements",
    "NeatVerdict",
    "is_neat",
    "neat_work",
    "check_radius",
]

DEFAULT_RADIUS = 2
_NEAT_DOMAIN = "neatness is defined for lattice smooth polytopes"


def check_radius(radius: int) -> None:
    """Refuse a negative search radius, whose box would be empty."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")


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
        iso = irredundant and frozenset(masks) == normal_fan_signature(self.parent)
        return {
            "nonempty": bool(verts),
            "full_dim": full_dim,
            "bounded": True,
            "irredundant_same_rows": irredundant,
            "normally_isomorphic_to_parent": iso,
        }


def displace(p: HPolytope, b) -> DisplacedSystem:
    b = _as_vec(b)
    if len(b) != p.nfacets:
        raise ValueError("displacement length must match facet count")
    return DisplacedSystem(p, b, tuple(c + d for c, d in zip(p.offsets, b)))


def displacement_slice(p: HPolytope, face) -> Slice:
    """First displacement of a face with full chart data (may be degenerate)."""
    return face_slice(p, face, inset=1)


def first_displacement(p: HPolytope, face) -> HPolytope:
    """The face's defining facets pushed in by one lattice unit, re-expressed
    in the lattice of the intersected affine subspace."""
    _require_lattice_smooth(p, "first displacement requires a lattice smooth polytope")
    s = face_slice(p, face, inset=1)
    if s.is_empty:
        raise ValueError("displacement vanishes")
    if s.polytope is None:
        raise ValueError("displacement is lower-dimensional")
    return s.polytope


# -- enumeration of fan-preserving displacements --------------------------


@per_polytope
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
    Σ_t slope_t·b_{s_t}, with slope_t = u_j·d_t on the chart's edge rays,
    as u_j·A_S^{-1} e_t = −slope_t:
    the relation u_j + Σ_t slope_t·u_{s_t} = 0, whose margin is
    c_j + Σ_t slope_t·c_{s_t}.  Each strict margin is stored as
    (const, ((idx, coeff), ...)) meaning const + sum coeff*b[idx] > 0, each
    equality on a row of T \\ S as (None, ((idx, coeff), ...)) meaning
    sum coeff*b[idx] == 0; they are grouped by their largest index.

    The normal fan of a simple polytope of dimension >= 1 is complete and
    simplicial, and P_b keeps it exactly when one wall-crossing inequality
    per wall holds (Chapoton–Fomin–Zelevinsky, Canad. Math. Bull. 45, 2002,
    Lemma 2.1; Padrol–Pilaud–Poullot, "Deformed graphical zonotopes",
    2023).  The walls are the edges of p: the edge from v to w, which
    leaves row s and meets row j, gives v's margin on row j, the other
    margins being implied.  So each edge is read once, from its lower end,
    and only row j's slopes are taken there, (M[v][j] − M[w_t][j]) / λ_t
    on the margin table M (_margins) and the edge graph (_edges), as
    w_t = v + λ_t d_t with λ_t = M[w_t][s_t]: no elimination.  Edges that
    read the same relation give one constraint, kept once in a set.
    Non-simple polytopes and dimension 0 read every vertex's chart: each
    row j off S, with its margin M[v][j] and slopes u_j·d_t.
    """
    constraints = set()
    if p.dim and p.is_simple():
        margins, edges = _margins(p), _edges(p)
        for v, mv in enumerate(margins):
            ends = None
            for _, w, j in edges[v]:
                if w < v:
                    continue
                if ends is None:
                    ends = [(s, margins[x], margins[x][s]) for s, x, _ in edges[v]]
                terms = [(s, a) for s, mw, lam in ends if (a := _ratio(mv[j] - mw[j], lam))]
                constraints.add((mv[j], tuple(sorted(terms + [(j, 1)]))))
    else:
        for vi, (mv, tight) in enumerate(zip(_margins(p), p.vertex_masks())):
            s, rays = _vertex_chart(p, vi)
            for j, u in enumerate(p.normals):
                if j not in s:
                    terms = [(j, 1)] + [(i, a) for i, ray in zip(s, rays) if (a := _exact(sum(map(mul, u, ray))))]
                    constraints.add((None if tight >> j & 1 else mv[j], tuple(sorted(terms))))
    grouped = {}
    for const, terms in constraints:
        level = max(i for i, _ in terms)
        grouped.setdefault(level, []).append((const, terms))
    return grouped


def _fan_preserving(p: HPolytope, bounds, paired: bool):
    """The margin descent: every b with |b_j| <= bounds[j] on each row whose
    constraints all hold, so that P_b keeps the fan of p, in lexicographic
    order, smallest entry first.

    Paired, each margin must hold for -b as well (|sum coeff*b_i| < const),
    and the first nonzero entry of b must be negative (b <= -b): the stream
    is then the pairs (b, -b) with both displacements fan-preserving, each
    pair once.
    """
    grouped = _vertex_margin_constraints(p)
    m = p.nfacets
    b = [0] * m

    def descend(depth, leading_zeros):
        if depth == m:
            yield tuple(b)
            return
        bound = bounds[depth]
        top = 0 if paired and leading_zeros else bound
        for val in range(-bound, top + 1):
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
    check_radius(radius)
    yield from _fan_preserving(p, (radius,) * p.nfacets, paired=False)


# -- neatness per translation class -----------------------------------------


@per_polytope
def _class_chart(p: HPolytope) -> tuple:
    """(size, bounds): the class box, which holds a representative of every
    translation class of the b that neatness tests, for a lattice smooth p.

    An integer x answers b when |u_j·x − b_j| <= c_j on every row, that is
    x ∈ P_b and −x ∈ P_{−b}.  Then x + t answers b + N·t for every integer
    t, and P_{b+Nt} = P_b + t keeps the fan exactly when P_b does, so
    whether b is answered depends only on its class modulo N·Zⁿ.

    At a vertex v with tight rows S, which form a unimodular A_S, each class
    holds exactly one b with b_S = 0: b + N·t for t = −A_S⁻¹·b_S.  With
    b_S = 0, v's paired margins read margin_j ± b_j > 0, so every class of
    a pair (b, −b) that keeps the fan has its representative in the box
    |b_j| <= bounds[j]: 0 on the rows tight at v, margin_j − 1 elsewhere.
    v is the vertex whose box has the fewest points,
    size = Π(2·bounds[j] + 1), or the first vertex whose box x = 0 answers
    whole (bounds[j] <= c_j on every row), with size = 0: no class is left
    to decide.  The boxes read every vertex's row of the margin table
    (polytope._margins), and no chart: the classes are keyed at vertex 0
    (_class_verdicts).
    """
    best = None
    for margins in _margins(p):
        bounds = tuple(max(x - 1, 0) for x in margins)
        covered = all(h <= c for h, c in zip(bounds, p.offsets))
        size = 0 if covered else prod(2 * h + 1 for h in bounds)
        if best is None or size < best[0]:
            best = (size, bounds)
        if covered:
            break
    return best


def _class_verdicts(p: HPolytope):
    """answered(b): whether some integer x answers b, for integer b,
    decided once per class of the pair (b, −b).

    E(P)'s lattice search (ewald._ewald_search) is the system
    |u_j·x − b_j| <= c_j at the centre d = b, as p is lattice smooth, so
    E(P) is {x : |u_j·x| <= c_j} on p's own rows.  The residuals from which
    it starts at b (search.residuals, b_j − w_j·b_S on vertex 0's frame
    rows w_j) are the member of b's class with b_S = 0 on vertex 0's rows
    S, the class's representative.  A class is decided by x = 0 when its
    representative has |b_j| <= c_j on every row, else by one count of the
    search centred at it and capped at 0, which stops at its first point.
    x answers b exactly when −x answers −b, so the pair's key is the lesser
    of its two representatives."""
    search, offsets, known = _ewald_search(p)[0], p.offsets, {}

    def answered(b):
        key = tuple(search.residuals(b))
        key = min(key, tuple(-v for v in key))
        verdict = known.get(key)
        if verdict is None:
            verdict = all(abs(v) <= c for v, c in zip(key, offsets)) or search(key, cap=0)[0] > 0
            known[key] = verdict
        return verdict

    return answered


def neat_work(p: HPolytope, radius: int | None = None) -> tuple:
    """(count, whole): the number of b that is_neat(p, radius) walks, the
    rule by which it chooses its path, which the CLI's neatness limit
    reads.  whole is True where it decides the class box (_class_chart)
    whole, count = Π(2·bounds_j + 1): always for the exact test
    (radius=None), and up to a radius where the box holds no more points
    than the window [−r, r]^m.  Past that, the radius stream walks the
    window, count = (2r + 1)^m, and whole is False.  count is 0 where x = 0
    answers every b tested (every c_j >= radius, or x = 0 answers every
    class).  Raises ValueError for a negative radius or unless p is
    lattice smooth."""
    if radius is not None:
        check_radius(radius)
    _require_lattice_smooth(p, _NEAT_DOMAIN)
    if radius is not None and all(c >= radius for c in p.offsets):
        return 0, True  # x = 0 answers [−r, r]^m
    size = _class_chart(p)[0]
    window = size if radius is None else (2 * radius + 1) ** p.nfacets
    return min(size, window), size <= window


@dataclass(frozen=True)
class NeatVerdict:
    status: str  # "neat" | "neat_up_to_radius" | "counterexample"
    radius: int | None  # None: the exact test
    witness_b: tuple | None = None

    @property
    def is_counterexample(self):
        return self.status == "counterexample"


def is_neat(p: HPolytope, radius: int | None = DEFAULT_RADIUS) -> NeatVerdict:
    """Neatness of a lattice smooth polytope, exactly or up to a radius.

    P is neat when every integer b with P_b and P_{−b} both normally
    isomorphic to P is answered: some integer x has x ∈ P_b and
    −x ∈ P_{−b}, that is |u_j·x − b_j| <= c_j on every row.  Whether b is
    answered depends only on its translation class (_class_chart), and
    finitely many classes keep the fan; each pair (b, −b) of them is
    decided at most once, by x = 0 or by one lattice search.

    radius=None is the exact test: "neat", or "counterexample" with the
    first failing class representative (b_S = 0, b <= −b) in the
    lexicographic order of the class box.

    With a radius, the pairs (b, −b) with max-norm <= radius, b <= −b and
    both displacements fan-preserving are read in lexicographic order of b,
    and the verdict reports the first whose class fails, or
    neat_up_to_radius, which is evidence, not proof.  The stream runs only
    when needed: x = 0 answers every b at once when every c_j >= radius or
    when it answers the whole class box; and when the class box holds no
    more points than [−r, r]^m, every class is decided first, so the stream
    runs only if one fails.  Otherwise the stream decides each class when
    it first meets one of its members (neat_work gives the path and its
    count).
    """
    count, whole = neat_work(p, radius)
    neat = NeatVerdict("neat" if radius is None else "neat_up_to_radius", radius)
    if not count:
        return neat  # x = 0 answers every b tested
    answered = _class_verdicts(p)
    if whole:
        failing = next((b for b in _fan_preserving(p, _class_chart(p)[1], paired=True) if not answered(b)), None)
        if failing is None:
            return neat
        if radius is None:
            return NeatVerdict("counterexample", None, witness_b=failing)
    for b in _fan_preserving(p, (radius,) * p.nfacets, paired=True):
        if not answered(b):
            return NeatVerdict("counterexample", radius, witness_b=b)
    return neat
