"""polytope._vertex_chart, the one inverse of each vertex cone that
smoothness, deep smoothness, the fan margins and the slab frame read,
against a Fraction oracle: the chart's rows s, its scaled inverse, and each
margin c_j − u_j·v and slope u_j·d_t with the edge ray d_t solved from
A_s d_t = −e_t."""

import importlib
import random
from fractions import Fraction

import pytest

from conftest import random_unimodular
from ewaldkit.bundles import catalog, cube, del_pezzo, nill_triangle, segment, ssb
from ewaldkit.classify import classify
from ewaldkit.displace import is_neat
from ewaldkit.fileio import parse_polytope, serialize_polytope
from ewaldkit.intlinalg import solve_rational
from ewaldkit.polytope import HPolytope, _bits, _vertex_chart, cartesian_product

intlinalg = importlib.import_module("ewaldkit.intlinalg")
polytope = importlib.import_module("ewaldkit.polytope")


def _fraction_det(m):
    """Determinant by Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in m]
    n, out = len(a), Fraction(1)
    for c in range(n):
        k = next((i for i in range(c, n) if a[i][c]), None)
        if k is None:
            return 0
        if k != c:
            a[c], a[k] = a[k], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def _check_chart(p, vi):
    n = p.dim
    v = p.vertices()[vi]
    tight = set(_bits(p.vertex_masks()[vi]))
    s, d, e, rows = _vertex_chart(p, vi)
    a = [p.normals[i] for i in s]
    assert set(s) <= tight and len(s) == n == len(set(s))
    assert d in (_fraction_det(a), -_fraction_det(a)) and d != 0  # rank n
    assert [[sum(e[r][k] * a[k][c] for k in range(n)) for c in range(n)] for r in range(n)] == [
        [d * (r == c) for c in range(n)] for r in range(n)
    ]
    rays = [solve_rational(a, [-(k == t) for k in range(n)]) for t in range(n)]
    assert [j for j, _, _ in rows] == [j for j in range(p.nfacets) if j not in s]
    for j, margin, slopes in rows:
        u = p.normals[j]
        assert margin == p.offsets[j] - sum(Fraction(x) * y for x, y in zip(u, v))
        assert isinstance(margin, int) == (Fraction(margin).denominator == 1)
        want = [sum(x * y for x, y in zip(u, ray)) for ray in rays]
        assert list(slopes) == want
        assert [isinstance(x, int) for x in slopes] == [w.denominator == 1 for w in want]


def _inputs():
    rng = random.Random(13)
    out = []
    for p in catalog().values():
        out.append(p.transform(random_unimodular(rng, p.dim)))
        out.append(p.translate(tuple(rng.randint(-2, 2) for _ in range(p.dim))))
    half = HPolytope(3, cube(3).normals, (Fraction(1, 2), 1, Fraction(3, 2), 2, 1, Fraction(1, 3)))
    out += [
        del_pezzo(3),
        del_pezzo(5),
        nill_triangle(2),  # |d| = 5, yet every slope of a triangle is an int
        HPolytope(2, ((-1, 0), (0, -1), (1, 2)), (0, 0, 3)),  # d = 2 and slopes 1/2
        half.transform(random_unimodular(rng, 3)),
        cartesian_product(del_pezzo(3), nill_triangle(2)),
        segment(),
    ]
    return out


def test_vertex_chart_matches_the_fraction_oracle():
    kinds = set()
    for p in _inputs():
        for vi in range(len(p.vertices())):
            _check_chart(p, vi)
            _, d, _, rows = _vertex_chart(p, vi)
            kinds.add(("non-simple", p.vertex_masks()[vi].bit_count() > p.dim))
            kinds.add(("|d| > 1", abs(d) > 1))
            slopes = [x for _, _, row in rows for x in row]
            kinds.add(("Fraction slope", any(not isinstance(x, int) for x in slopes)))
            kinds.add(("Fraction margin", any(not isinstance(m, int) for _, m, _ in rows)))
    # every branch of the chart is exercised
    assert all((k, True) in kinds for k, _ in kinds)


@pytest.mark.parametrize("p", [cube(4), ssb(4, 3), del_pezzo(4)], ids=["cube4", "ssb43", "dp4"])
def test_one_scaled_inverse_per_vertex(p, monkeypatch):
    # the vertex charts and the lattice search's frame are the only inverses
    # is_neat takes after a parse; classify then reads the same charts.
    # x = 0 answers every b of a monotone polytope, which then needs no
    # frame; moved by 2·e_1 it misses the origin, and the search runs
    calls = []
    real = intlinalg.scaled_inverse

    def spy(m):
        calls.append(m)
        return real(m)

    q = parse_polytope(serialize_polytope(p)).polytope
    moved = parse_polytope(serialize_polytope(p.translate((2,) + (0,) * (p.dim - 1)))).polytope
    monkeypatch.setattr(intlinalg, "scaled_inverse", spy)
    monkeypatch.setattr(polytope, "scaled_inverse", spy)
    is_neat(q, 1)
    assert len(calls) == len(q.vertices())
    classify(q)
    assert len(calls) == len(q.vertices())
    calls.clear()
    assert is_neat(moved, 1).is_counterexample
    assert len(calls) == len(moved.vertices()) + 1
    classify(moved)
    assert len(calls) == len(moved.vertices()) + 1
    for name in ("classify", "displace", "ewald"):
        module = importlib.import_module("ewaldkit." + name)
        assert not any(hasattr(module, f) for f in ("scaled_inverse", "_reduce", "det"))
