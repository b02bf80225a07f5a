"""The lattice-point scans ewaldkit ran before its single enumerator, kept as
differential-test references, and a box scan of a bare slab system.

Each scan walks a whole box point by point: the 3^n cube of the vertex
normalization or the bounding box of P ∩ −P for E(P), the bounding box of P
for lattice_points, and the box of samples·P, widened by one, for the probe
grid.  The facet masks of E(P) are kept as they were built before the
search read them off its leaves: one dot product per point and row.  The
Oda check is kept as it was before it compared counts: every pairwise sum
as a tuple, against the listed lattice points of the hull of P + Q.

Two entry points moved here from the library, which never called them:
cube_normalization, the corner map of the cube scan and of the paper's
cube bound on E(P), and interior_sample_grid, the probe cross-check's
sample grid as fractions.
"""

from fractions import Fraction
from itertools import product
from math import ceil, floor

from ewaldkit.intlinalg import inverse_unimodular, mat_vec, scan_key
from ewaldkit.polytope import _bits, _unimodular, _vertex_chart, convex_hull, dot
from ewaldkit.probes import _sample_points


def cube_normalization(p):
    """Unimodular M sending the lex-smallest vertex cone to the standard
    corner at (−1,…,−1); valid when that vertex is smooth with offsets 1.
    Its chart's edge rays tell a unimodular cone (_unimodular)."""
    tight = _bits(p.vertex_masks()[0])
    if len(tight) != p.dim:
        raise ValueError("vertex is not simple")
    if any(p.offsets[i] != 1 for i in tight):
        raise ValueError("vertex facets are not at offset 1")
    if not _unimodular(_vertex_chart(p, 0)[1]):
        raise ValueError("vertex cone is not unimodular")
    return tuple(tuple(-x for x in p.normals[i]) for i in tight)


def interior_sample_grid(p, samples: int):
    """Deterministic rational grid: points q/samples strictly inside P,
    the origin excluded, in lexicographic order.  Strictly inside reads
    u_j·q <= ⌈c_j·samples⌉ − 1 on every row, for integer q."""
    return tuple(tuple(Fraction(x, samples) for x in q) for q in _sample_points(p, samples))


def _symmetric(p, x):
    return p.contains(x) and p.contains(tuple(-c for c in x))


def ewald_cube_scan(p):
    """E(P) from the 3^n candidates of the normalized unit cube, or None when
    P has no cube normalization (its first vertex is not smooth at offsets 1)."""
    try:
        minv = inverse_unimodular(cube_normalization(p))
    except ValueError:
        return None
    candidates = (mat_vec(minv, c) for c in product((-1, 0, 1), repeat=p.dim))
    return frozenset(y for y in candidates if _symmetric(p, y))


def ewald_box_scan(p):
    """E(P) from the bounding box of P ∩ −P."""
    lo, hi = p.bounding_box()
    ranges = [range(ceil(max(a, -b)), floor(min(b, -a)) + 1) for a, b in zip(lo, hi)]
    return frozenset(x for x in product(*ranges) if _symmetric(p, x))


def ewald_scan(p):
    """E(P) as ewald_set found it: the cube scan where it applies, else the
    box scan."""
    found = ewald_cube_scan(p)
    return ewald_box_scan(p) if found is None else found


def scan_lattice(p):
    """The lattice points of P, from its bounding box."""
    if p.dim == 0:
        return frozenset({()})
    lo, hi = p.bounding_box()
    ranges = [range(ceil(a), floor(b) + 1) for a, b in zip(lo, hi)]
    return frozenset(x for x in product(*ranges) if p.contains(x))


def product_grid(p, samples):
    """interior_sample_grid: the points q/samples strictly inside P, origin
    excluded, in the lexicographic order of the box scan."""
    lo, hi = p.bounding_box()
    ranges = [range(int(a * samples) - 1, int(b * samples) + 2) for a, b in zip(lo, hi)]
    out = []
    for q in product(*ranges):
        if not any(q):
            continue
        pt = tuple(Fraction(x, samples) for x in q)
        if p.contains(pt, strict=True):
            out.append(pt)
    return tuple(out)


def frame(rows, coords):
    """(rows, coords, cols): the frame of a slab system built by hand, as
    _lattice_search reads it, from one inverse_unimodular of the unimodular
    matrix A of the rows at coords: each row u_j as w_j = u_j·A^-1, and the
    columns of A^-1."""
    cols = tuple(zip(*inverse_unimodular([rows[i] for i in coords])))
    return [tuple(dot(u, col) for col in cols) for u in rows], coords, cols


def slab_box_scan(rows, coords, half, d):
    """The integer x with |u_j·x − d_j| <= h_j on every row, from the box
    that the coordinate rows put around y = A x, A the unimodular matrix of
    those rows."""
    inv = inverse_unimodular([rows[i] for i in coords])
    box = product(*(range(d[i] - half[i], d[i] + half[i] + 1) for i in coords))
    return frozenset(
        x
        for x in (mat_vec(inv, y) for y in box)
        if all(abs(dot(u, x) - dj) <= h for u, dj, h in zip(rows, d, half))
    )


def brute_ewald(p):
    """E(P) as {x ∈ lattice_points : −x ∈ P}."""
    return frozenset(x for x in p.lattice_points() if p.contains(tuple(-c for c in x)))


def dot_tight_masks(p, points):
    """(λ, t, tn) per λ of points in scan order: bit i of t set when facet i
    is tight at λ, of tn when it is tight at −λ, by dotting λ with every
    row."""
    rows = tuple(enumerate(zip(p.normals, p.offsets)))
    table = []
    for lam in sorted(points, key=scan_key):
        t = tn = 0
        for i, (u, c) in rows:
            s = dot(u, lam)
            if s == c:
                t |= 1 << i
            if s == -c:
                tn |= 1 << i
        table.append((lam, t, tn))
    return tuple(table)


def oda_pairwise_sums(p, q):
    """oda_instance_check by brute force: every lattice point of the hull of
    the vertex sums is a sum of a lattice point of p and one of q."""
    sums = {tuple(a + b for a, b in zip(x, y)) for x in p.lattice_points() for y in q.lattice_points()}
    hull = convex_hull({tuple(a + b for a, b in zip(x, y)) for x in p.vertices() for y in q.vertices()}, p.dim)
    return all(pt in sums for pt in hull.lattice_points())
