"""The neatness search as ewaldkit ran it before the slab form, kept as a
differential-test reference, the margin constraints as it built them with a
Fraction per coefficient at every vertex and row, and the fan test "P_b keeps P's fan" decided by
vertex enumeration, as it was before the margin constraints covered
non-simple polytopes and bundle slices.

The neatness search lists every fan-preserving b up to the radius, keeps the
pairs (b, −b) with b <= −b and −b qualifying as well, and for each pair
rebuilds every vertex of P_b and of P_{−b} to bound a box, which it scans
point by point for an x with x ∈ P_b and −x ∈ P_{−b}.

A displaced system becomes a polytope here (as_hpolytope), which only tests
do.
"""

from fractions import Fraction
from itertools import product
from math import ceil, floor

from ewaldkit.displace import displace, normally_isomorphic_displacements
from ewaldkit.intlinalg import inverse_unimodular, rank, scaled_inverse
from ewaldkit.polytope import HPolytope, _exact, dot, enumerate_vertices, normal_fan_signature


def enumerated_displacements(p, radius):
    """normally_isomorphic_displacements by brute force: every b of the
    (2r+1)^m box, in lexicographic order, with one vertex enumeration each."""
    box = product(range(-radius, radius + 1), repeat=p.nfacets)
    return [b for b in box if displace(p, b).analyze()["normally_isomorphic_to_parent"]]


def as_hpolytope(system):
    """The displaced system as an HPolytope, refused where it is degenerate."""
    flags = system.analyze()
    if not flags["irredundant_same_rows"]:
        raise ValueError("displacement is degenerate: %r" % (flags,))
    return HPolytope(system.parent.dim, system.normals, system.offsets)


def same_fan_same_rows(q, offsets):
    """Whether {x : N x <= offsets}, over q's rows N, has exactly q's vertex
    masks: the bundle slice check, by vertex enumeration."""
    verts, masks = enumerate_vertices(q.dim, q.normals, offsets)
    if not verts:
        return False
    return frozenset(masks) == normal_fan_signature(q).cones


def qualifying_pairs(p, radius):
    """The b that is_neat tests, in its order: all qualifying b are listed
    first, then filtered to b <= −b with −b qualifying."""
    qualifying = list(normally_isomorphic_displacements(p, radius))
    qualifying_set = set(qualifying)
    pairs = []
    for b in qualifying:
        nb = tuple(-x for x in b)
        if nb in qualifying_set and b <= nb:
            pairs.append(b)
    return pairs


def box_scan(p):
    """A function of b: the first lattice x in the box around the displaced
    vertices with x ∈ P_b and −x ∈ P_{−b}, or None."""
    n = p.dim
    # vertex inverses are integer matrices because every vertex cone of a
    # lattice smooth polytope is unimodular
    vertex_data = []
    for v, tight in zip(p.vertices(), p.vertex_tight_sets()):
        s = sorted(tight)
        vertex_data.append((v, s, inverse_unimodular([p.normals[i] for i in s])))

    def displaced_vertices(b):
        out = []
        for v, s, inv in vertex_data:
            bs = [b[i] for i in s]
            out.append(
                tuple(x + sum(inv[r][t] * bs[t] for t in range(n)) for r, x in enumerate(v))
            )
        return out

    def scan(b):
        nb = tuple(-x for x in b)
        vb = displaced_vertices(b)
        vnb = displaced_vertices(nb)
        lo, hi = [], []
        for i in range(n):
            lo.append(ceil(max(min(v[i] for v in vb), -max(v[i] for v in vnb))))
            hi.append(floor(min(max(v[i] for v in vb), -min(v[i] for v in vnb))))
        if any(a > z for a, z in zip(lo, hi)):
            return None
        cb = tuple(c + d for c, d in zip(p.offsets, b))
        cnb = tuple(c + d for c, d in zip(p.offsets, nb))
        for x in product(*[range(a, z + 1) for a, z in zip(lo, hi)]):
            if all(dot(u, x) <= c for u, c in zip(p.normals, cb)) and all(
                -dot(u, x) <= c for u, c in zip(p.normals, cnb)
            ):
                return x
        return None

    return scan


def oracle_verdict(p, pairs):
    """(status, witness_b) of is_neat, given the pairs it tests."""
    scan = box_scan(p)
    for b in pairs:
        if scan(b) is None:
            return "counterexample", b
    return "neat_up_to_radius", None


def wall_margin_constraints(p):
    """The fan conditions of a simple polytope of dimension >= 1, one per
    wall, each read off the chart of the wall's lower vertex:
    {level: [(const, terms), ...]} with no entry twice.  Vertices v < w with
    n − 1 tight rows in common span an edge, and w's other row j gives v's
    strict margin c_j − u_j·v + b_j + Σ_t (u_j·d_t)·b_{s_t}, for d_t the
    edge rays of v's chart (A_S d_t = −e_t over v's tight rows S)."""
    verts, tights = p.vertices(), p.vertex_tight_sets()
    grouped = {}
    for v, (x, tight) in enumerate(zip(verts, tights)):
        s = sorted(tight)
        d, e = scaled_inverse([p.normals[i] for i in s])
        rays = [[Fraction(-e[c][t], d) for c in range(p.dim)] for t in range(p.dim)]
        for w in range(v + 1, len(verts)):
            if len(tights[w] - tight) != 1:
                continue
            (j,) = tights[w] - tight
            u = p.normals[j]
            terms = [(j, 1)] + [(i, _exact(dot(u, ray))) for i, ray in zip(s, rays) if dot(u, ray)]
            entry = (_exact(p.offsets[j] - dot(u, x)), tuple(sorted(terms)))
            level = grouped.setdefault(max(i for i, _ in terms), [])
            if entry not in level:
                level.append(entry)
    return grouped


def fraction_margin_constraints(p):
    """The fan conditions of every vertex, built with a Fraction per
    coefficient and normalized by _exact: {level: [(const, terms), ...]}.
    At a vertex with tight rows T, S is the first n independent rows of T,
    and every row j outside S gives one condition: an equality
    (const None) on a row of T, a strict margin elsewhere.  This is
    _vertex_margin_constraints on non-simple polytopes and in dimension 0;
    on a simple polytope that keeps one condition per edge, a subset of
    these with the same solutions."""
    n = p.dim
    constraints = set()
    for v, tight in zip(p.vertices(), p.vertex_tight_sets()):
        s = []
        for i in sorted(tight):
            if rank([p.normals[k] for k in s + [i]]) > len(s):
                s.append(i)
        d, e = scaled_inverse([p.normals[i] for i in s])
        for j in range(p.nfacets):
            if j in s:
                continue
            u = p.normals[j]
            const = None if j in tight else _exact(p.offsets[j] - dot(u, v))
            terms = {j: 1}
            for t, row_idx in enumerate(s):
                coeff = Fraction(-sum(u[c] * e[c][t] for c in range(n)), d)
                if coeff:
                    terms[row_idx] = terms.get(row_idx, 0) + coeff
            norm_terms = tuple(sorted((i, _exact(c)) for i, c in terms.items() if c))
            constraints.add((const, norm_terms))
    grouped = {}
    for const, terms in constraints:
        level = max(i for i, _ in terms)
        grouped.setdefault(level, []).append((const, terms))
    return grouped
