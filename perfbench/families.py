"""Base polytopes, GL(n,Z) images and the polytope file format, written
without ewaldkit so that the inputs and the expected answers do not come
from the code under test.

A polytope here is a pair (normals, offsets) of integer tuples meaning
{x : normals @ x <= offsets}.  Row order follows the constructors in
ewaldkit.bundles, so facet indices (and neatness witnesses b) line up.
"""

from __future__ import annotations

from itertools import product


def _unit(n, i, s=1):
    return tuple(s if j == i else 0 for j in range(n))


def cube(n):
    rows = []
    for i in range(n):
        rows += [_unit(n, i), _unit(n, i, -1)]
    return tuple(rows), (1,) * (2 * n)


def simplex(n):
    """Monotone simplex {x_i >= -1, sum x_i <= 1}."""
    rows = [_unit(n, i, -1) for i in range(n)] + [(1,) * n]
    return tuple(rows), (1,) * (n + 1)


def smooth_simplex(n, k):
    """k * delta_n = {x_i >= 0, sum x_i <= k}."""
    rows = [_unit(n, i, -1) for i in range(n)] + [(1,) * n]
    return tuple(rows), (0,) * n + (k,)


def ssb(n, k):
    rows = [_unit(n, i, -1) for i in range(n)]
    rows.append(_unit(n, 0))
    rows.append(tuple(k if j == 0 else 1 for j in range(n)))
    return tuple(rows), (1,) * (n + 2)


def del_pezzo(n):
    normals, _ = cube(n)
    normals = normals + ((1,) * n, (-1,) * n)
    return normals, (1,) * len(normals)


PENTAGON = (((-1, 0), (0, -1), (1, 0), (0, 1), (1, 1)), (1,) * 5)

PAFFENHOLZ = (
    tuple(_unit(6, i, -1) for i in range(6))
    + (
        (-1, 0, 0, 1, 0, 0),
        (-1, 0, 1, 2, 0, 0),
        (-1, 1, 1, 3, 1, 0),
        (1, 0, 0, -2, 0, 1),
    ),
    (1,) * 10,
)


def dim(p):
    return len(p[0][0])


def product_of(a, b):
    na, nb = dim(a), dim(b)
    normals = tuple(u + (0,) * nb for u in a[0]) + tuple((0,) * na + t for t in b[0])
    return normals, a[1] + b[1]


def small_fiber_bundle(base, facet, n):
    """Rows of ewaldkit.bundles.small_fiber_bundle: the base rows, then
    -y_j <= 1, then sum y_j + n * u_F . x <= 1."""
    k = dim(base)
    u = base[0][facet]
    rows = [row + (0,) * n for row in base[0]]
    rows += [(0,) * k + _unit(n, j, -1) for j in range(n)]
    rows.append(tuple(n * x for x in u) + (1,) * n)
    return tuple(rows), base[1] + (1,) * (n + 1)


def dilate(p, factor):
    return p[0], tuple(factor * c for c in p[1])


def translate(p, t):
    return p[0], tuple(c + sum(a * b for a, b in zip(u, t)) for u, c in zip(*p))


# -- vertex sets of the bases used in vertex mode ----------------------------


def cube_vertices(n):
    return tuple(product((-1, 1), repeat=n))


def simplex_vertices(n):
    out = [(-1,) * n]
    for i in range(n):
        out.append(tuple(n if j == i else -1 for j in range(n)))
    return tuple(out)


POLYGON_VERTICES = {
    "triangle": simplex_vertices(2),
    "trapezoid": ((-1, -1), (1, -1), (1, 0), (-1, 2)),
    "square": cube_vertices(2),
    "pentagon": ((-1, -1), (-1, 1), (0, 1), (1, 0), (1, -1)),
    "hexagon": ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)),
}


def product_vertices(va, vb):
    return tuple(a + b for a in va for b in vb)


# -- GL(n,Z) images ----------------------------------------------------------


def unimodular(rng, n, shears):
    """(m, m_inv): `shears` fixed unit shears row_{t+1} += row_t (t = 0, 1,
    ..., indices mod n), followed by a random signed permutation.  The
    shears mix the coordinates, so parsing and every later step see a
    non-trivial image; the seed picks only the signed permutation, which
    keeps the size of every box scan, so an input costs the same to analyse
    whatever the seed."""
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    e_inv = [row[:] for row in e]
    for t in range(shears if n > 1 else 0):
        i, j = (t + 1) % n, t % n
        # E' = (I + e_i e_j^T) E; E'^-1 = E^-1 (I - e_i e_j^T)
        e[i] = [a + b for a, b in zip(e[i], e[j])]
        for row in e_inv:
            row[j] -= row[i]
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    # S has signs[i] at (i, perm[i]); m = S E and m^-1 = E^-1 S^T
    m = tuple(tuple(signs[i] * x for x in e[perm[i]]) for i in range(n))
    inv = tuple(tuple(row[perm[i]] * signs[i] for i in range(n)) for row in e_inv)
    return m, inv


def image(p, m_inv):
    """H-rep of M P: the normal u becomes u M^-1, offsets are unchanged."""
    cols = tuple(zip(*m_inv))
    normals = tuple(tuple(sum(a * b for a, b in zip(u, col)) for col in cols) for u in p[0])
    return normals, p[1]


def image_points(points, m):
    return tuple(tuple(sum(a * b for a, b in zip(row, x)) for row in m) for x in points)


# -- file format -------------------------------------------------------------


def facet_text(p, name=None):
    lines = ["dim %d" % dim(p), "facets %d" % len(p[0])]
    if name:
        lines.append("name %s" % name)
    lines += [" ".join(map(str, u)) + " %d" % c for u, c in zip(*p)]
    return "\n".join(lines) + "\n"


def vertex_text(points, name=None):
    lines = ["dim %d" % len(points[0]), "vertices %d" % len(points)]
    if name:
        lines.append("name %s" % name)
    lines += [" ".join(map(str, x)) for x in points]
    return "\n".join(lines) + "\n"
