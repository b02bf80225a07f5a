"""Expected answers, kept apart from the code under test.

Closed forms and the paper's tables are constants here.  Per-polytope facts
that have no closed form (class flags, Ewald flags, face counts, neatness
verdicts) live in tables.json, which record_tables.py wrote once at the
parent commit; the benchmark only reads it.  Products and GL(n,Z) images
are derived from those entries by laws that hold for every correct
implementation:

- |E(A x B)| = |E(A)| |E(B)|, and every class and Ewald flag of A x B is
  the conjunction of the factors' flags;
- facets add, vertices and non-empty faces multiply;
- class flags, |E(P)|, the Ewald flags and the neatness verdict with its
  witness b are invariant under x -> M x for M in GL(n,Z) (rows keep their
  order, so facet indices and b keep their meaning);
- a lattice translate P + t with the origin outside has E = {} (x and -x
  in P would put 0 in P).
"""

from __future__ import annotations

import json
import os
from math import atan2, comb, factorial

HERE = os.path.dirname(os.path.abspath(__file__))

# |E(Delta_n)| for n = 1..9 and |E(SSB(n,k))| for k = 0..n-1 (the paper's tables)
SIMPLEX_COUNTS = {1: 3, 2: 7, 3: 19, 4: 51, 5: 141, 6: 393, 7: 1107, 8: 3139, 9: 8953}
SSB_TABLE = {
    2: [9, 7],
    3: [21, 19, 13],
    4: [57, 51, 39, 27],
    5: [153, 141, 111, 81, 61],
    6: [423, 393, 321, 241, 183, 153],
    7: [1179, 1107, 925, 715, 547, 449, 407],
    8: [3321, 3139, 2675, 2115, 1639, 1331, 1179, 1123],
}
# minimum Ewald counts reached by iterated small fiber bundles, dims 3..7
SFB_MINIMA = {3: 13, 4: 27, 5: 59, 6: 117, 7: 243}

FLAGS = (
    "simple", "lattice", "smooth", "reflexive", "monotone",
    "ut_free", "deeply_smooth", "deeply_monotone",
)
EWALD_FLAGS = ("weak", "strong", "star", "fs")


def trinomial(n, k):
    """[x^k] (1 + x + x^2)^n, by the sum over the number of x^2 terms."""
    return sum(comb(n, j) * comb(n - j, k - 2 * j) for j in range(k // 2 + 1))


def emin_bound(n):
    """The paper's 3*9^k / 59*9^(k-1) / 13*9^k bounds for n = 3k+1 / 3k+2 / 3k+3."""
    k, r = divmod(n - 1, 3)
    return (3 * 9**k, 59 * 9 ** (k - 1), 13 * 9**k)[r]


def cube_count(n):
    return 3**n


def del_pezzo_count(n):
    """Points of {-1,0,1}^n with coordinate sum in {-1,0,1}."""
    return trinomial(n, n) + 2 * trinomial(n, n - 1)


def simplex_volume(n):
    """Normalized volume n! vol of Delta_n = {x_i >= -1, sum x_i <= 1}."""
    return (n + 1) ** n


def cube_volume(n):
    return 2**n * factorial(n)


def product_volume(da, va, db, vb):
    return comb(da + db, da) * va * vb


def polygon_volume(points):
    """Twice the shoelace area of a convex polygon given by its vertices."""
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    ring = sorted(points, key=lambda p: atan2(p[1] - cy, p[0] - cx))
    twice = 0
    for (x0, y0), (x1, y1) in zip(ring, ring[1:] + ring[:1]):
        twice += x0 * y1 - x1 * y0
    return abs(twice)


def load_tables():
    with open(os.path.join(HERE, "tables.json")) as fh:
        return json.load(fh)


def product_expectation(a, b):
    """Expected check-report facts of A x B from the factors' entries."""
    out = {
        "facets": a["facets"] + b["facets"],
        "vertices": a["vertices"] * b["vertices"],
        "faces": a["faces"] * b["faces"],
        "ewald": a["ewald"] * b["ewald"],
    }
    for key in FLAGS + EWALD_FLAGS:
        out[key] = a[key] and b[key]
    return out


def translate_expectation(e):
    """Expected facts of a lattice translate whose origin lies outside."""
    out = dict(e, ewald=0, reflexive=False, monotone=False, deeply_monotone=False)
    for key in EWALD_FLAGS:
        out[key] = None
    return out
