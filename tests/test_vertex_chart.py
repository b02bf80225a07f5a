"""polytope._vertex_chart and the vertex cones read off the vertex masks
and the edge graph, against a Fraction oracle: the chart's rows s and its
edge rays d_t solved from A_s d_t = −e_t, each margin c_j − u_j·v,
smoothness read on each vertex's edges to earlier vertices, and the
lattice search's frame, vertex 0's chart where its rays are integral: no
elimination for any of them on a simple polytope.  A chart reads its own vertex only, so the E(P) limit's refusal
builds no table of every vertex."""

import importlib
import inspect
import random
import sys
from fractions import Fraction
from operator import mul, neg

import pytest

from classify_oracles import adjacency_edge_directions, corner_scan_deeply_smooth
from conftest import CROSS4, random_unimodular, smooth_suite
from ewaldkit.bundles import catalog, cube, del_pezzo, monotone_polygon, nill_triangle, paffenholz_p6, segment, ssb
from ewaldkit.classify import classify, is_deeply_smooth, is_quasi_smooth_polygon, is_smooth
from ewaldkit.displace import is_neat
from ewaldkit.ewald import deeply_smooth_origin_vertex_basis, ewald_set
from ewaldkit.fileio import MAX_EWALD_POINTS, _refuse_large_ewald, parse_polytope, serialize_polytope
from ewaldkit.intlinalg import inverse_unimodular, primitive_part
from ewaldkit.polytope import (
    HPolytope,
    VPolytope,
    _bits,
    _cone_rows,
    _edges,
    _integerize,
    _margins,
    _slab_frame,
    _unimodular,
    _vertex_chart,
    cartesian_product,
    convex_hull,
    facet_description,
    irredundant_rows,
)
from linalg_oracles import solve_rational

intlinalg = importlib.import_module("ewaldkit.intlinalg")
polytope = importlib.import_module("ewaldkit.polytope")
ewald = importlib.import_module("ewaldkit.ewald")


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
    tight = _bits(p.vertex_masks()[vi])
    s, got_rays = _vertex_chart(p, vi)
    a = [p.normals[i] for i in s]
    assert s == (tight if p.is_simple() else _cone_rows(p, vi))
    assert set(s) <= set(tight) and list(s) == sorted(set(s)) and len(s) == n
    assert _fraction_det(a) != 0  # rank n
    rays = [solve_rational(a, [-(k == t) for k in range(n)]) for t in range(n)]
    assert list(got_rays) == [tuple(ray) for ray in rays]
    types = [[type(x) for x in ray] for ray in got_rays]
    assert types == [[int if x.denominator == 1 else Fraction for x in ray] for ray in rays]


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
            s, rays = _vertex_chart(p, vi)
            kinds.add(("non-simple", not p.is_simple()))
            kinds.add(("Fraction ray", not _unimodular(rays)))
            kinds.add(("dimension 0", p.dim == 0))
            kinds.add(("|det A_s| > 1", abs(_fraction_det([p.normals[i] for i in s])) > 1))
            kinds.add(("rational vertex", not p.is_lattice()))
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


def _simple_inputs():
    """Simple polytopes whose cones have |det| 1, 2 and 5, at vertex 0 and
    later, with lattice and rational vertices, in GL(n, Z) images and
    translates."""
    rng = random.Random(31)
    d2 = HPolytope(2, ((-1, 0), (0, -1), (1, 2)), (0, 0, 3))  # |det| 1, 2, 1
    bases = [nill_triangle(2), d2, HPolytope(2, d2.normals, (Fraction(1, 2), 0, Fraction(7, 3)))]
    bases += _rational_cubes(rng) + list(catalog().values())
    bases.append(cartesian_product(nill_triangle(2), d2))
    inputs = []
    for p in bases:
        inputs += [p, p.transform(random_unimodular(rng, p.dim))]
        inputs.append(p.translate(tuple(rng.randint(-3, 3) for _ in range(p.dim))))
    return inputs


def _random_simple(rng, count):
    """count simple polytopes: catalog normals with offsets drawn from
    {1, 2, 3, 1/2, 5/3}, reduced to their facets, in a GL(n, Z) image."""
    normals = [p.normals for p in catalog().values() if p.dim >= 2]
    out = []
    while len(out) < count:
        rows = rng.choice(normals)
        offsets = [rng.choice((1, 2, 3, Fraction(1, 2), Fraction(5, 3))) for _ in rows]
        p, _, full_dim = irredundant_rows(len(rows[0]), rows, offsets)
        if full_dim and p.is_simple():
            out.append(p.transform(random_unimodular(rng, p.dim)))
    return out


def test_smoothness_on_earlier_edges_matches_the_fraction_oracle():
    witnesses = set()
    for p in _simple_inputs() + _random_simple(random.Random(41), 60):
        assert p.is_simple()
        assert is_smooth(p) == _oracle_smooth(p), p
        witness = is_smooth(p)[1]
        witnesses.add(None if witness is None else p.vertices().index(witness) > 0)
    # smooth inputs, and non-unimodular cones first met at vertex 0 and later
    assert witnesses == {None, False, True}


def test_every_vertex_but_the_first_has_an_earlier_neighbour():
    # vertices() is in lexicographic order, the order of a generic linear
    # functional, so only its minimum, vertex 0, has no earlier neighbour:
    # is_smooth reads each later vertex's determinant off such an edge
    for p in _simple_inputs() + _random_simple(random.Random(37), 150):
        verts = p.vertices()
        assert list(verts) == sorted(verts)
        assert [v for v, edges in enumerate(_edges(p)) if all(u > v for _, u, _ in edges)] == [0], p


def _spy_eliminations(monkeypatch, *more):
    """The names of the det, scaled_inverse and inverse_unimodular calls,
    and of the functions named in more, made from now on from any ewaldkit
    module."""
    calls = []

    def spy(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for name in ("scaled_inverse", "det", "inverse_unimodular") + more:
        wrapped = spy(name, getattr(intlinalg, name))
        for module in (intlinalg, polytope, ewald):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    return calls


@pytest.mark.parametrize(
    "p",
    [cube(4), ssb(4, 3), del_pezzo(4), paffenholz_p6()],
    ids=["cube4", "ssb43", "dp4", "paffenholz"],
)
def test_one_scaled_inverse_for_every_vertex_cone(p, monkeypatch):
    # after a parse, classify and is_neat together take no elimination for
    # the vertex cones: vertex 0's edge rays are integral, so its
    # determinant is 1, every later vertex's is read off the margins on an
    # edge to an earlier vertex, and the rays are the columns of the
    # inverse that E(P)'s lattice search reads.
    # x = 0 answers every b of a monotone polytope (on P6 it leaves a class
    # box of 15 open, and answers each class); moved by 2·e_1 it misses the
    # origin, and the search runs
    searches = []
    real_search = ewald._lattice_search

    def counting(*frame):
        search = real_search(*frame)

        def counted(b, *rest, **kwargs):
            searches.append(b)
            return search(b, *rest, **kwargs)

        counted.residuals = search.residuals  # the class keys, not a search
        return counted

    q = parse_polytope(serialize_polytope(p)).polytope
    moved = parse_polytope(serialize_polytope(p.translate((2,) + (0,) * (p.dim - 1)))).polytope
    calls = _spy_eliminations(monkeypatch)
    monkeypatch.setattr(ewald, "_lattice_search", counting)
    for r in (1, None):
        assert not is_neat(q, r).is_counterexample
    classify(q)
    assert not searches and not calls
    for r in (1, None):
        assert is_neat(moved, r).is_counterexample
    classify(moved)
    assert searches and not calls
    for name in ("classify", "displace", "ewald"):
        module = importlib.import_module("ewaldkit." + name)
        assert not any(hasattr(module, f) for f in ("scaled_inverse", "_reduce", "det"))


def test_a_first_cone_that_is_not_unimodular_takes_no_elimination(monkeypatch):
    # T_2 (|det| 5 at vertex 0), a tetrahedron (|det| 4 there) and the
    # triangle conv{(0, 0), (2, 1), (1, 2)} (|det| 3 at every vertex): after
    # a parse, is_smooth names vertex 0 from its chart's rays, and classify,
    # the count and the listing of E(P), whose search runs in the unit
    # coordinates, take no det, scaled_inverse, inverse_unimodular or _reduce
    tetrahedron = facet_description(VPolytope.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)]))
    triangle = facet_description(VPolytope.from_points([(0, 0), (2, 1), (1, 2)]))
    for p in (nill_triangle(2), tetrahedron, triangle):
        q = parse_polytope(serialize_polytope(p)).polytope
        calls = _spy_eliminations(monkeypatch, "_reduce")
        assert is_smooth(q) == (False, q.vertices()[0])
        classify(q)
        assert len(ewald_set(q)) == len(ewald_set(q).ordered())
        assert not calls and len(_slab_frame(q)[0]) > q.nfacets
        monkeypatch.undo()
        assert abs(_fraction_det([q.normals[i] for i in _cone_rows(q, 0)])) > 1


def test_the_search_frame_inverts_its_coordinate_rows():
    # u_{s_i}·d_t = −δ_it for the rays of every vertex chart, simple or not,
    # and where vertex 0's rays are integral, exactly where its cone is
    # unimodular, the frame's rows are u_j·A^-1 from inverse_unimodular and
    # its columns A^-1 = −rays; elsewhere the frame is the unit rows and the
    # identity, with w_j = u_j
    inputs = [del_pezzo(3), del_pezzo(5), nill_triangle(2), CROSS4]
    inputs.append(HPolytope(2, ((-1, 0), (0, -1), (1, 2)), (0, 0, 3)))  # |det| = 2 at vertex 1
    for seed in (1, 5):
        rng = random.Random(seed)
        for p in catalog().values():
            inputs += [p, p.transform(random_unimodular(rng, p.dim))]
    kinds = set()
    for p in inputs:
        n = p.dim
        for vi in range(len(p.vertices())):
            s, rays = _vertex_chart(p, vi)
            got = [[sum(map(mul, p.normals[i], ray)) for ray in rays] for i in s]
            assert got == [[-int(k == t) for t in range(n)] for k in range(n)], (p, vi)
        rows, coords, cols = _slab_frame(p)
        s, rays = _vertex_chart(p, 0)
        want = abs(_fraction_det([p.normals[i] for i in s]))
        unit = len(rows) > p.nfacets
        assert unit == (want != 1) == (not _unimodular(rays)), p
        if unit:
            assert coords == list(range(p.nfacets, len(rows))) and list(cols) == rows[p.nfacets :]
            assert rows[: p.nfacets] == list(p.normals)
        else:
            inverse = inverse_unimodular([p.normals[i] for i in s])
            assert tuple(coords) == s == _cone_rows(p, 0)
            assert list(cols) == [tuple(map(neg, ray)) for ray in rays] == list(zip(*inverse))
            assert rows == [tuple(sum(map(mul, u, col)) for col in zip(*inverse)) for u in p.normals]
        kinds.add((p.is_simple(), unit))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_the_ewald_limit_refuses_from_vertex_0_alone():
    # after a parse of cube(12), |E(P)| = 3^12 passes the limit: the count
    # reads vertex 0's chart, one pass over the vertex masks, and builds
    # neither the margin table nor the edge graph of the 4,096 vertices
    q = parse_polytope(serialize_polytope(cube(12))).polytope
    tables = {inspect.unwrap(f).__code__ for f in (_margins, _edges)}
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in tables:
            built.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        with pytest.raises(ValueError) as refused:
            _refuse_large_ewald(q, allow_large=False)
    finally:
        sys.setprofile(None)
    assert not built
    assert str(refused.value) == (
        "E(P) has 531441 points, above the listing limit of %d; pass --allow-large to override" % MAX_EWALD_POINTS
    )


def _quasi_smooth_oracle(p):
    """is_quasi_smooth_polygon off adjacency_edge_directions."""
    for i in range(len(p.vertices())):
        a, b = adjacency_edge_directions(p, i)
        e = primitive_part([x - y for x, y in zip(a, b)])
        if abs(e[0] * a[1] - e[1] * a[0]) != 1:
            return False
    return True


def _origin_vertex_oracle(p):
    """deeply_smooth_origin_vertex_basis off adjacency_edge_directions."""
    if not is_deeply_smooth(p)[0]:
        return None
    for i, t in enumerate(p.vertex_masks()):
        if all(p.offsets[j] == 1 for j in _bits(t)):
            return adjacency_edge_directions(p, i)
    return None


def _fresh(p):
    return HPolytope(p.dim, p.normals, p.offsets)


def test_edge_direction_readers_match_adjacency_edge_directions():
    # the chart's rays are the primitive edge directions at every vertex of
    # a lattice smooth polytope, and point along them at every vertex of a
    # lattice polygon, so deep smoothness's witness, the origin vertex basis
    # and quasi-smoothness read the chart, not the pairwise adjacency scan
    rng = random.Random(36)
    smooth = [p for p in catalog().values() if is_smooth(p)[0] and p.is_lattice()]
    smooth += [p.translate(tuple(rng.randint(-2, 2) for _ in range(p.dim))) for p in smooth]
    smooth += smooth_suite(rng, max_dim=4, count=30)
    kinds = set()
    for p in smooth:
        for vi in range(len(p.vertices())):
            assert tuple(sorted(_vertex_chart(p, vi)[1])) == adjacency_edge_directions(p, vi), (p, vi)
        flag, witness = is_deeply_smooth(_fresh(p))
        assert (flag, witness) == corner_scan_deeply_smooth(p), p
        kinds.add(("not deeply smooth", not flag))
        if p.origin_interior():
            basis = deeply_smooth_origin_vertex_basis(_fresh(p))
            assert basis == _origin_vertex_oracle(p), p
            kinds.add(("origin vertex basis", basis is not None))
    polygons = [monotone_polygon(name) for name in ("triangle", "square", "pentagon", "hexagon")]
    polygons += [nill_triangle(a) for a in (1, 2, 3)]
    while len(polygons) < 40:
        pts = {(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 8))}
        try:
            polygons.append(convex_hull(pts))
        except ValueError:  # collinear
            continue
    for p in polygons:
        for vi in range(len(p.vertices())):
            rays = _vertex_chart(p, vi)[1]
            assert tuple(sorted(map(_integerize, rays))) == adjacency_edge_directions(p, vi), (p, vi)
        flag = is_quasi_smooth_polygon(_fresh(p))
        assert flag == _quasi_smooth_oracle(p), p
        kinds.add(("not quasi-smooth", not flag))
        kinds.add(("Fraction ray", not _unimodular(_vertex_chart(p, 0)[1])))
    assert all((k, True) in kinds for k, _ in kinds), kinds
