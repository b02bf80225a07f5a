"""polytope._vertex_chart and the vertex cones read off the edge graph,
against a Fraction oracle: the chart's rows s, each margin c_j − u_j·v and
slope u_j·d_t with the edge ray d_t solved from A_s d_t = −e_t, and the
determinant |det A_s| of every vertex cone, carried along the edges from
the one elimination at vertex 0."""

import importlib
import random
import sys
from fractions import Fraction

import pytest

from conftest import random_unimodular
from ewaldkit.bundles import catalog, cube, del_pezzo, nill_triangle, paffenholz_p6, segment, ssb
from ewaldkit.classify import classify, is_smooth
from ewaldkit.displace import is_neat
from ewaldkit.fileio import parse_polytope, serialize_polytope
from ewaldkit.intlinalg import solve_rational
from ewaldkit.polytope import HPolytope, _bits, _cone_dets, _margins, _vertex_chart, cartesian_product

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
    s, rows = _vertex_chart(p, vi)
    a = [p.normals[i] for i in s]
    assert set(s) <= tight and len(s) == n == len(set(s))
    assert _fraction_det(a) != 0  # rank n
    rays = [solve_rational(a, [-(k == t) for k in range(n)]) for t in range(n)]
    assert [j for j, _, _ in rows] == [j for j in range(p.nfacets) if j not in s]
    for j, margin, slopes in rows:
        u = p.normals[j]
        assert margin == p.offsets[j] - sum(Fraction(x) * y for x, y in zip(u, v))
        assert isinstance(margin, int) == (Fraction(margin).denominator == 1)
        want = [sum(x * y for x, y in zip(u, ray)) for ray in rays]
        assert list(slopes) == want
        assert [isinstance(x, int) for x in slopes] == [w.denominator == 1 for w in want]


def _rational_cubes(rng):
    half = HPolytope(3, cube(3).normals, (Fraction(1, 2), 1, Fraction(3, 2), 2, 1, Fraction(1, 3)))
    thirds = HPolytope(2, cube(2).normals, (Fraction(2, 3), Fraction(1, 3), Fraction(5, 2), 0))
    return [half, half.transform(random_unimodular(rng, 3)), thirds.translate((1, -2))]


def _inputs():
    rng = random.Random(13)
    out = []
    for p in catalog().values():
        out.append(p.transform(random_unimodular(rng, p.dim)))
        out.append(p.translate(tuple(rng.randint(-2, 2) for _ in range(p.dim))))
    out += _rational_cubes(rng)
    out += [
        del_pezzo(3),
        del_pezzo(5),
        nill_triangle(2),  # |det| = 5, yet every slope of a triangle is an int
        HPolytope(2, ((-1, 0), (0, -1), (1, 2)), (0, 0, 3)),  # |det| = 2 and slopes 1/2
        cartesian_product(del_pezzo(3), nill_triangle(2)),
        segment(),
        HPolytope(0, ((), ()), (0, 2)),
    ]
    return out


def test_vertex_chart_matches_the_fraction_oracle():
    kinds = set()
    for p in _inputs():
        for vi in range(len(p.vertices())):
            _check_chart(p, vi)
            s, rows = _vertex_chart(p, vi)
            kinds.add(("non-simple", not p.is_simple()))
            kinds.add(("dimension 0", p.dim == 0))
            kinds.add(("|det A_s| > 1", abs(_fraction_det([p.normals[i] for i in s])) > 1))
            slopes = [x for _, _, row in rows for x in row]
            kinds.add(("Fraction slope", any(not isinstance(x, int) for x in slopes)))
            kinds.add(("Fraction margin", any(not isinstance(m, int) for _, m, _ in rows)))
    # every branch of the chart is exercised
    assert all((k, True) in kinds for k, _ in kinds)


def _oracle_margin(c, u, v):
    """c − u·v over Fraction: an int exactly where it is integral."""
    m = Fraction(c) - sum(Fraction(a) * x for a, x in zip(u, v))
    return int(m) if m.denominator == 1 else m


def test_the_margin_table_keeps_every_entry_and_its_type():
    cases = _inputs() + [HPolytope(0, (), ())]  # a vertex and no row
    for p in catalog().values():
        cases += [p] + [HPolytope(p.dim, p.normals, [k * c for c in p.offsets]) for k in (Fraction(3, 2), Fraction(1, 3))]
    kinds = set()
    for p in cases:
        got = _margins(p)
        want = tuple(tuple(_oracle_margin(c, u, v) for u, c in zip(p.normals, p.offsets)) for v in p.vertices())
        assert got == want
        assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in want]
        kinds.add(all(type(m) is int for row in got for m in row))
    assert kinds == {True, False}


def _oracle_smooth(p):
    """is_smooth of a simple polytope, one Fraction determinant per vertex."""
    for v, t in zip(p.vertices(), p.vertex_masks()):
        if abs(_fraction_det([p.normals[i] for i in _bits(t)])) != 1:
            return False, v
    return True, None


def test_propagated_determinants_match_the_fraction_oracle():
    rng = random.Random(31)
    d2 = HPolytope(2, ((-1, 0), (0, -1), (1, 2)), (0, 0, 3))  # |det| 1, 2, 1
    bases = [nill_triangle(2), d2, HPolytope(2, d2.normals, (Fraction(1, 2), 0, Fraction(7, 3)))]
    bases += _rational_cubes(rng) + list(catalog().values())
    bases.append(cartesian_product(nill_triangle(2), d2))
    inputs = []
    for p in bases:
        inputs += [p, p.transform(random_unimodular(rng, p.dim))]
        inputs.append(p.translate(tuple(rng.randint(-3, 3) for _ in range(p.dim))))
    witnesses = set()
    for p in inputs:
        assert p.is_simple()
        want = [abs(_fraction_det([p.normals[i] for i in _bits(t)])) for t in p.vertex_masks()]
        assert list(_cone_dets(p)) == want, p
        assert all(isinstance(d, int) for d in _cone_dets(p))
        assert is_smooth(p) == _oracle_smooth(p), p
        witness = is_smooth(p)[1]
        witnesses.add(None if witness is None else p.vertices().index(witness) > 0)
    # smooth inputs, and non-unimodular cones first met at vertex 0 and later
    assert witnesses == {None, False, True}


@pytest.mark.parametrize(
    "p",
    [cube(4), ssb(4, 3), del_pezzo(4), paffenholz_p6()],
    ids=["cube4", "ssb43", "dp4", "paffenholz"],
)
def test_one_scaled_inverse_for_every_vertex_cone(p, monkeypatch):
    # after a parse, classify and is_neat together take one determinant for
    # all the vertex cones (vertex 0's, carried along the edge graph) and no
    # inverse; the one scaled_inverse is the lattice search's frame, taken
    # only when a class runs a search.  x = 0 answers every b of a monotone
    # polytope (on P6 it leaves a class box of 15 open, and answers each
    # class); moved by 2·e_1 it misses the origin, and the search runs
    calls, searches = [], []
    # is_neat's classes run E(P)'s lattice search, built in ewald
    ewald = sys.modules["ewaldkit.ewald"]
    real_search = ewald._lattice_search

    def spy(name):
        real = getattr(intlinalg, name)
        return lambda m: calls.append(name) or real(m)

    def counting(*frame):
        search = real_search(*frame)
        return lambda b, *rest: searches.append(b) or search(b, *rest)

    q = parse_polytope(serialize_polytope(p)).polytope
    moved = parse_polytope(serialize_polytope(p.translate((2,) + (0,) * (p.dim - 1)))).polytope
    for name in ("scaled_inverse", "det"):
        wrapped = spy(name)
        monkeypatch.setattr(intlinalg, name, wrapped)
        monkeypatch.setattr(polytope, name, wrapped)
    monkeypatch.setattr(ewald, "_lattice_search", counting)
    for r in (1, None):
        assert not is_neat(q, r).is_counterexample
    classify(q)
    assert not searches and calls == ["det"]
    calls.clear()
    for r in (1, None):
        assert is_neat(moved, r).is_counterexample
    classify(moved)
    assert searches and calls == ["det", "scaled_inverse"]
    for name in ("classify", "displace", "ewald"):
        module = importlib.import_module("ewaldkit." + name)
        assert not any(hasattr(module, f) for f in ("scaled_inverse", "_reduce", "det"))
