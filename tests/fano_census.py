"""The smooth Fano 3-polytopes, generated from first principles.

A smooth Fano polytope Q is a simplicial lattice polytope with the origin
inside whose every facet is spanned by a lattice basis; its dual
P = {x : r·x <= 1 over the vertices r of Q} is a monotone polytope, and
every monotone polytope arises so.  Up to GL(3, Z) there are 18 in
dimension 3 (Batyrev; Watanabe–Watanabe).

The search closes a surface of unimodular triangles around the origin.  A
unimodular facet can be moved to conv(e1, e2, e3), so every Q has a chart
that starts there.  The search then closes the least open ridge {a, b}
(an edge in one triangle only, {a, b, c}) with a triangle {a, b, w}: w is
an existing ray or a primitive vector of the box [−B, B]³, on the far side
of the ridge with det(a, b, w) = −det(a, b, c) = ±1.  The new triangle's
functional (1 on a, b and w; an integer vector, as the triangle is
unimodular) must stay below 1 at every other ray, and a new ray must stay
below 1 under every triangle's functional.  So every triangle is a facet of
the convex hull of the rays, and a surface with no open ridge is the whole
boundary of Q.  Closing the least open ridge in every possible way reaches
every Q whose chart lies in the box.  The finished polytopes are told apart
by canonical_form.

B = 2 gives the 18 (as does B = 3); B = 1 misses one.  The box is not
proved large enough here; it is observed to be.  Øbro's bounds
(arXiv:0704.0049) would prove it.

    python tests/fano_census.py tests/data/monotone_dim3

(with ewaldkit importable) writes the 18 dual polytopes as facet files,
one per file, in the order of their canonical forms.
"""

import os
import sys
from itertools import permutations, product
from math import gcd

from ewaldkit.fileio import serialize_polytope
from ewaldkit.polytope import HPolytope


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _det(a, b, c):
    return _dot(_cross(a, b), c)


def _functional(a, b, c):
    """The f with f·a = f·b = f·c = 1: (b×c + c×a + a×b) / det(a, b, c),
    an integer vector when the triangle is unimodular."""
    d = _det(a, b, c)
    s = [x + y + z for x, y, z in zip(_cross(b, c), _cross(c, a), _cross(a, b))]
    return tuple(x // d for x in s)


def _chart(rays, a, b, c):
    """The rays in the coordinates that send a, b, c to e1, e2, e3."""
    d = _det(a, b, c)
    rows = (_cross(b, c), _cross(c, a), _cross(a, b))  # [a b c]⁻¹ = rows / d
    return tuple(sorted(tuple(_dot(r, v) // d for r in rows) for v in rays))


def canonical_form(rays, facets):
    """The least sorted ray list over every chart that sends the rays of a
    facet, in some order, to e1, e2, e3.  Two smooth Fano polytopes, given
    by their rays and their facets as triples of rays, are GL(3, Z)
    equivalent exactly when their forms are equal."""
    return min(_chart(rays, *order) for facet in facets for order in permutations(facet))


def smooth_fano_3(bound=2):
    """The canonical forms of the smooth Fano 3-polytopes whose rays lie in
    [−bound, bound]³ in a chart with a facet at conv(e1, e2, e3), sorted."""
    box = [v for v in product(range(-bound, bound + 1), repeat=3) if gcd(*v) == 1]
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    functionals = [(1, 1, 1)]
    facets = [(0, 1, 2)]
    ridges = {(0, 1): [2], (0, 2): [1], (1, 2): [0]}  # edge -> third vertices
    found = set()

    def close():
        open_ridges = [r for r, third in ridges.items() if len(third) == 1]
        if not open_ridges:
            found.add(canonical_form(rays, [tuple(rays[i] for i in f) for f in facets]))
            return
        i, j = min(open_ridges)
        a, b = rays[i], rays[j]
        normal = _cross(a, b)
        side = -_dot(normal, rays[ridges[i, j][0]])  # det(a, b, w) must be this, ±1
        known = {v: k for k, v in enumerate(rays)}
        for w in box:
            if _dot(normal, w) != side:
                continue
            k = known.get(w)
            if k is None and any(_dot(g, w) >= 1 for g in functionals):
                continue
            if k is not None and any(len(ridges.get(tuple(sorted((x, k))), ())) == 2 for x in (i, j)):
                continue
            f = _functional(a, b, w)
            if any(_dot(f, r) >= 1 for r in rays if r not in (a, b, w)):
                continue
            added = k is None
            if added:
                k = len(rays)
                rays.append(w)
            facet = tuple(sorted((i, j, k)))
            new = [tuple(sorted(e)) for e in ((i, j), (i, k), (j, k))]
            for e, x in zip(new, (k, j, i)):
                ridges.setdefault(e, []).append(x)
            functionals.append(f)
            facets.append(facet)
            close()
            facets.pop()
            functionals.pop()
            for e in new:
                ridges[e].pop()
                if not ridges[e]:
                    del ridges[e]
            if added:
                rays.pop()

    close()
    return sorted(found)


def main(argv):
    (directory,) = argv
    os.makedirs(directory, exist_ok=True)
    for k, form in enumerate(smooth_fano_3(), 1):
        name = "fano3_%02d" % k
        dual = HPolytope(3, form, (1,) * len(form))  # {x : r·x <= 1}
        with open(os.path.join(directory, name + ".poly"), "w", encoding="utf-8") as fh:
            fh.write(serialize_polytope(dual, name))


if __name__ == "__main__":
    main(sys.argv[1:])
