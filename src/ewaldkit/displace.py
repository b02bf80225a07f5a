"""Facet-offset displacements P_b, face first-displacements, and the bounded
neatness check.

Neatness quantifies over all integer b; the artifact decides it only up to a
max-norm radius (CLI flag --radius, default 2).  Only a counterexample is
conclusive; "neat_up_to_radius" is evidence, not proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, floor

from .classify import is_smooth
from .intlinalg import solve_rational
from .polytope import (
    FaceRef,
    HPolytope,
    Slice,
    _exact,
    _facet_rows,
    dot,
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
        verts, tights = enumerate_vertices(self.parent.dim, self.normals, self.offsets)
        full_dim, facets = _facet_rows(self.parent.dim, verts, tights, len(self.normals))
        irredundant = full_dim and len(facets) == len(self.normals)
        iso = irredundant and frozenset(
            tuple(sorted(t)) for t in tights
        ) == normal_fan_signature(self.parent).cones
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
    b = tuple(int(x) for x in b)
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
    """Per (vertex, nontight row) strict margins, affine in b.

    For a simple vertex with tight rows S, the displaced vertex candidate is
    x_S(b) = v + A_S^{-1} b_S; P_b has the parent's fan iff every candidate
    stays strictly feasible on every other row.  Each constraint is stored as
    (const, ((idx, coeff), ...)) meaning const + sum coeff*b[idx] > 0.
    """
    if not p.is_simple():
        raise ValueError("fast displacement enumeration needs a simple polytope")
    n = p.dim
    constraints = set()
    for v, tight in zip(p.vertices(), p.vertex_tight_sets()):
        s = sorted(tight)
        a_s = [p.normals[i] for i in s]
        inv_cols = []
        for col in range(n):
            e = [0] * n
            e[col] = 1
            inv_cols.append(solve_rational(a_s, e))
        # inv_cols[j][t] = (A_S^{-1})[t][j]; x_S(b) = v + A_S^{-1} b_S
        for j in range(p.nfacets):
            if j in tight:
                continue
            u = p.normals[j]
            const = p.offsets[j] - dot(u, v)
            terms = {j: 1}
            for t, row_idx in enumerate(s):
                # coefficient of b_S[t] in -u · (A_S^{-1} b_S)
                coeff = -sum(Fraction(u[c]) * inv_cols[t][c] for c in range(n))
                if coeff:
                    terms[row_idx] = terms.get(row_idx, 0) + coeff
            norm_terms = tuple(
                sorted((i, _exact(c)) for i, c in terms.items() if c)
            )
            constraints.add((_exact(const), norm_terms))
    grouped = {}
    for const, terms in constraints:
        level = max(i for i, _ in terms)
        grouped.setdefault(level, []).append((const, terms))
    return grouped


def normally_isomorphic_displacements(p: HPolytope, radius: int):
    """Yield all b with max-norm <= radius whose displacement is bounded,
    full-dimensional, irredundant over the same rows, and has the parent's
    normal fan signature.  Lexicographic order, smallest entry first."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    m = p.nfacets
    if p.is_simple():
        grouped = _vertex_margin_constraints(p)
        b = [0] * m
        rng = range(-radius, radius + 1)

        def descend(depth):
            if depth == m:
                yield tuple(b)
                return
            for val in rng:
                b[depth] = val
                ok = True
                for const, terms in grouped.get(depth, ()):
                    margin = const
                    for i, coeff in terms:
                        margin += coeff * b[i]
                    if margin <= 0:
                        ok = False
                        break
                if ok:
                    yield from descend(depth + 1)
            b[depth] = 0

        yield from descend(0)
    else:
        for b in product(range(-radius, radius + 1), repeat=m):
            if displace(p, b).analyze()["normally_isomorphic_to_parent"]:
                yield b


@dataclass(frozen=True)
class NeatVerdict:
    status: str  # "neat_up_to_radius" | "counterexample"
    radius: int
    witness_b: tuple | None = None
    witness_x: tuple | None = None

    @property
    def is_counterexample(self):
        return self.status == "counterexample"


def is_neat(p: HPolytope, radius: int = DEFAULT_RADIUS) -> NeatVerdict:
    """Bounded search for a neatness counterexample.

    For every b with P_b and P_{-b} both normally isomorphic to P, some
    integer x must satisfy x ∈ P_b and −x ∈ P_{-b}.  The verdict reports the
    lexicographically smallest failing b, or neat_up_to_radius.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    ok, _ = is_smooth(p)
    if not ok or not p.is_lattice():
        raise ValueError("neatness is defined for lattice smooth polytopes")
    qualifying = list(normally_isomorphic_displacements(p, radius))
    qualifying_set = set(qualifying)
    n = p.dim
    # vertex inverses are integer matrices because every vertex cone of a
    # lattice smooth polytope is unimodular
    from .intlinalg import inverse_unimodular

    vertex_data = []
    for v, tight in zip(p.vertices(), p.vertex_tight_sets()):
        s = sorted(tight)
        inv = inverse_unimodular([p.normals[i] for i in s])
        vertex_data.append((v, s, inv))

    def displaced_vertices(b):
        out = []
        for v, s, inv in vertex_data:
            bs = [b[i] for i in s]
            out.append(
                tuple(
                    x + sum(inv[r][t] * bs[t] for t in range(n))
                    for r, x in enumerate(v)
                )
            )
        return out

    for b in qualifying:
        nb = tuple(-x for x in b)
        if nb not in qualifying_set or b > nb:
            continue
        if _symmetric_lattice_point(p, b, nb, displaced_vertices) is None:
            return NeatVerdict("counterexample", radius, witness_b=b)
    return NeatVerdict("neat_up_to_radius", radius)


def _symmetric_lattice_point(p, b, nb, displaced_vertices):
    # first lattice x with x in P_b and -x in P_{-b}, scanning the exact box
    vb = displaced_vertices(b)
    vnb = displaced_vertices(nb)
    n = p.dim
    lo, hi = [], []
    for i in range(n):
        lo_b = min(v[i] for v in vb)
        hi_b = max(v[i] for v in vb)
        lo_m = -max(v[i] for v in vnb)
        hi_m = -min(v[i] for v in vnb)
        lo.append(ceil(max(lo_b, lo_m)))
        hi.append(floor(min(hi_b, hi_m)))
    if any(a > b2 for a, b2 in zip(lo, hi)):
        return None
    cb = tuple(c + d for c, d in zip(p.offsets, b))
    cnb = tuple(c + d for c, d in zip(p.offsets, nb))
    for x in product(*[range(a, b2 + 1) for a, b2 in zip(lo, hi)]):
        if all(dot(u, x) <= c for u, c in zip(p.normals, cb)) and all(
            -dot(u, x) <= c for u, c in zip(p.normals, cnb)
        ):
            return x
    return None


def neat_transfer_bundle_check(base, fiber, twist, radius: int) -> bool:
    """Instance test of neatness transfer through bundles: when base and
    fiber are neat up to the radius, the bundle must be too."""
    from .bundles import BundleSpec, build_bundle

    spec = BundleSpec(base=base, fiber=fiber, twist=tuple(twist), shifts=(0,) * fiber.nfacets)
    total = build_bundle(spec)
    if is_neat(base, radius).is_counterexample or is_neat(fiber, radius).is_counterexample:
        return True
    return not is_neat(total, radius).is_counterexample
