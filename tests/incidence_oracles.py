"""The vertex-facet incidence readers ewaldkit ran before it kept one
tight-row bitmask per vertex, kept as differential-test references.

Each vertex's tight rows are a frozenset of row indices, decoded here from
the producer's masks one row at a time; faces are sorted tuples of facet
indices, face membership is a set operation, adjacency a rank, and a normal
fan is the set of its vertex cones as sorted tuples.  The non-simple 2-faces
come from the meet closure of the tight sets, and the volume from a
recursion through one lattice chart per facet.  A table of masks is
transposed one set bit at a time, each bit found by clearing the low bit.

The library's own adjacency test by masks, which only tests read, lives
here too (mask_adjacent_vertex_indices), beside the rank test it is checked
against.
"""

from fractions import Fraction
from itertools import combinations

from ewaldkit.intlinalg import rank
from ewaldkit.polytope import HPolytope, _face_vertex_mask, affine_rank, dot, enumerate_vertices, face_slice


def decode(masks, nrows):
    """Per mask, the frozenset of the rows whose bit is set."""
    return tuple(frozenset(i for i in range(nrows) if t >> i & 1) for t in masks)


def low_bits(mask):
    """The set bits of mask, ascending, one cleared low bit at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def row_vertex_masks(masks, nrows):
    """Per row, the mask of the masks that set its bit: one OR per set bit."""
    on_row = [0] * nrows
    for k, t in enumerate(masks):
        for i in low_bits(t):
            on_row[i] |= 1 << k
    return on_row


def tight_sets(p):
    return decode(p.vertex_masks(), p.nfacets)


def faces(p, codim):
    """Faces of a simple polytope as sorted tight tuples, in sorted order."""
    if any(len(t) != p.dim for t in tight_sets(p)):
        raise ValueError("face lattice requires simple polytope")
    seen = set()
    for t in tight_sets(p):
        for s in combinations(sorted(t), codim):
            seen.add(s)
    return tuple(sorted(seen))


def face_vertices(p, tight):
    need = set(tight)
    return tuple(v for v, t in zip(p.vertices(), tight_sets(p)) if need <= t)


def vertex_mask(p, tight):
    """The vertices on every facet of tight as a mask, bit k for vertex k."""
    need = set(tight)
    return sum(1 << k for k, t in enumerate(tight_sets(p)) if need <= t)


def adjacent_vertex_indices(p, i):
    """j is adjacent to i iff the rows tight at both have rank n − 1: they
    are the implicit equalities of the smallest face through both vertices,
    so that face has dimension n minus their rank."""
    tights = tight_sets(p)
    return tuple(
        j
        for j, tj in enumerate(tights)
        if j != i and rank([p.normals[k] for k in sorted(tights[i] & tj)]) == p.dim - 1
    )


def mask_adjacent_vertex_indices(p, i):
    """Indices of the vertices sharing an edge with vertex i, ascending:
    j is one when the rows tight at both hold no third vertex
    (_face_vertex_mask), the combinatorial adjacency test of the double
    description, for simple and non-simple polytopes alike.  Vertex i
    alone is tight on all its rows."""
    masks = p.vertex_masks()
    return tuple(j for j, t in enumerate(masks) if _face_vertex_mask(p, masks[i] & t).bit_count() == 2)


def two_faces(p):
    """2-faces as sorted tight tuples; the meet closure of the vertex tight
    sets on non-simple polytopes."""
    if all(len(t) == p.dim for t in tight_sets(p)):
        return faces(p, p.dim - 2)
    tights = list(tight_sets(p))
    closed = set(tights)
    frontier = set(tights)
    while frontier:
        new = set()
        for a in frontier:
            for b in tights:
                c = a & b
                if c not in closed:
                    new.add(c)
        closed |= new
        frontier = new
    out = []
    for s in closed:
        vs = [v for v, t in zip(p.vertices(), tights) if s <= t]
        if vs and affine_rank(vs) == 2:
            full = frozenset.intersection(*[t for t in tights if s <= t])
            out.append(tuple(sorted(full)))
    return tuple(sorted(set(out)))


def chart_volume(p):
    """Euclidean volume via the pyramid fan over the lex-smallest vertex;
    facet volumes are taken in their own lattice charts, which matches the
    lattice-distance pyramid formula coordinate-free."""
    if p.dim == 0:
        return Fraction(0)
    if p.dim == 1:
        (lo,), (hi,) = p.bounding_box()
        return Fraction(hi - lo)
    apex = p.vertices()[0]
    total = Fraction(0)
    for i, (u, c) in enumerate(zip(p.normals, p.offsets)):
        dist = c - dot(u, apex)
        if dist == 0:
            continue
        s = face_slice(p, (i,), inset=0)
        total += Fraction(dist, p.dim) * chart_volume(s.polytope)
    return total


def fan_cones(tights):
    return frozenset(tuple(sorted(t)) for t in tights)


def normally_isomorphic(p, q):
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
        return frozenset(tuple(sorted(idx[i] for i in t)) for t in tight_sets(poly))

    return cones(p) == cones(q)


def facet_rows(dim, verts, tights, nrows):
    on_row = [0] * nrows
    for k, t in enumerate(tights):
        for i in t:
            on_row[i] |= 1 << k
    facets = [i for i, f in enumerate(on_row) if not any(f & g == f != g for g in on_row)]
    return affine_rank(verts) == dim, facets


def analyze(system):
    """DisplacedSystem.analyze on frozenset tight sets."""
    nrows = len(system.normals)
    verts, masks = enumerate_vertices(system.parent.dim, system.normals, system.offsets)
    tights = decode(masks, nrows)
    full_dim, facets = facet_rows(system.parent.dim, verts, tights, nrows)
    irredundant = full_dim and len(facets) == nrows
    iso = irredundant and fan_cones(tights) == fan_cones(tight_sets(system.parent))
    return {
        "nonempty": bool(verts),
        "full_dim": full_dim,
        "bounded": True,
        "irredundant_same_rows": irredundant,
        "normally_isomorphic_to_parent": iso,
    }


def build_bundle_verdict(spec):
    """None when build_bundle accepts spec, else the start of its error."""
    base, fiber = spec.base, spec.fiber
    for x in base.vertices():
        offsets = tuple(
            a + sh - dot(s, x) for a, sh, s in zip(fiber.offsets, spec.shifts, spec.twist)
        )
        verts, masks = enumerate_vertices(fiber.dim, fiber.normals, offsets)
        if not verts or fan_cones(decode(masks, fiber.nfacets)) != fan_cones(tight_sets(fiber)):
            return "not a bundle: slice"
    normals = tuple(u + (0,) * fiber.dim for u in base.normals) + tuple(
        s + t for s, t in zip(spec.twist, fiber.normals)
    )
    offsets = base.offsets + tuple(a + sh for a, sh in zip(fiber.offsets, spec.shifts))
    total = HPolytope(base.dim + fiber.dim, normals, offsets)
    l = base.nfacets
    expected = set()
    for tb in tight_sets(base):
        for tq in tight_sets(fiber):
            expected.add(tuple(sorted(tb) + sorted(i + l for i in tq)))
    if fan_cones(tight_sets(total)) != frozenset(expected):
        return "not a bundle: total space"
    return None
