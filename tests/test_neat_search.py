"""The neatness search (joint (b, −b) enumeration, translation classes and
the slab-form lattice search, now the lattice-point enumerator of polytope)
against the search it replaced, kept in neat_oracles."""

import importlib
import inspect
import random
import sys
from fractions import Fraction

from conftest import CROSS4, random_unimodular, smooth_suite, workload_items
from ewaldkit.bundles import catalog, cube, del_pezzo, monotone_polygon, segment
from ewaldkit.displace import (
    _class_chart,
    _fan_preserving,
    _keeps_fan,
    _vertex_margin_constraints,
    is_neat,
)
from ewaldkit.ewald import _ewald_search
from ewaldkit.fileio import parse_polytope
from ewaldkit.intlinalg import inverse_unimodular, mat_vec
from ewaldkit.polytope import HPolytope, _lattice_search, _margins, _slab_frame, cartesian_product, convex_hull, dot
from neat_oracles import box_scan, fraction_margin_constraints, oracle_verdict, qualifying_pairs, wall_margin_constraints

displace = importlib.import_module("ewaldkit.displace")


def _check(p, radius):
    """is_neat, its pair stream and its lattice search all agree with the
    oracle on p; returns the verdict."""
    pairs = qualifying_pairs(p, radius)
    assert list(_fan_preserving(p, (radius,) * p.nfacets, paired=True)) == pairs
    verdict = is_neat(p, radius)
    assert (verdict.status, verdict.witness_b) == oracle_verdict(p, pairs)
    return verdict


def _slab_search(p):
    """The lattice test of is_neat as a function of b: the first x the
    enumerator lists with x ∈ P_b and −x ∈ P_{−b}, or None, once the count
    capped at 0 that is_neat reads agrees that there is one."""
    rows, coords, cols = _slab_frame(p)
    assert len(rows) == p.nfacets  # p is smooth: no unit rows
    search = _lattice_search(rows, coords, cols, p.offsets)

    def first(b):
        found = []
        search(b, lambda x, e: found.append(x))
        assert (search(b, cap=0)[0] > 0) == bool(found), (p, b)
        return found[0] if found else None

    return first


def _in_both(p, b, x):
    """x ∈ P_b and −x ∈ P_{−b}: the 2m half-spaces, row by row."""
    return all(
        dot(u, x) <= c + bj and -dot(u, x) <= c - bj
        for u, c, bj in zip(p.normals, p.offsets, b)
    )


def _catalog_cases():
    for name, p in catalog().items():
        for shift in (0, 1, 2):
            q = p.translate((shift,) + (0,) * (p.dim - 1))
            for r in (0, 1, 2):
                if r == 2 and p.nfacets > 8:
                    continue
                yield "%s+%de1|r=%d" % (name, shift, r), q, r


def test_is_neat_matches_oracle_on_catalog_translates():
    verdicts = {label: _check(q, r) for label, q, r in _catalog_cases()}
    # shifted by 2·e_1 every member misses the origin, so the first pair fails
    assert verdicts["cube3+2e1|r=0"].witness_b == (0,) * 6
    assert verdicts["cube3+2e1|r=1"].witness_b == (-1, 0, -1, 0, -1, 0)
    assert verdicts["cube3+2e1|r=2"].witness_b == (-2, 1, -2, 1, -2, 1)
    assert not verdicts["cube4+1e1|r=2"].is_counterexample


def test_is_neat_matches_oracle_on_unimodular_images():
    rng = random.Random(20261018)
    for p in smooth_suite(rng, max_dim=4, count=30):
        _check(p, 1)
        if p.dim <= 3:
            _check(p, 2)


def test_is_neat_matches_oracle_on_products():
    hexagon, triangle = monotone_polygon("hexagon"), monotone_polygon("triangle")
    for p in (cartesian_product(triangle, segment()), cartesian_product(hexagon, segment())):
        for shift in (0, 1):
            _check(p.translate((shift,) + (0,) * (p.dim - 1)), 1)


def test_is_neat_in_dimension_zero():
    for p in (HPolytope(0, (), ()), HPolytope(0, ((), ()), (0, 2))):
        for r in (0, 1, 3):
            _check(p, r)
    search = _slab_search(HPolytope(0, ((),), (1,)))
    assert search((1,)) == () and search((2,)) is None


def test_slab_search_agrees_with_box_scan_pair_by_pair():
    rng = random.Random(7)
    # the Hirzebruch polygon F_2: its row (1, 2) reads (−1, −2) in the slab
    # coordinates, so the search divides by −2 and must round each bound inward
    hirzebruch = HPolytope(2, ((-1, 0), (0, -1), (0, 1), (1, 2)), (0, 0, 1, 4))
    cases = [catalog()["ssb32"], catalog()["hexagon"].translate((1, 0))]
    cases += [hirzebruch.translate((-2, -1)), hirzebruch.translate((-1, -1))]
    cases += smooth_suite(rng, max_dim=3, count=12)
    for p in cases:
        search, scan = _slab_search(p), box_scan(p)
        for b in _fan_preserving(p, (2,) * p.nfacets, paired=True):
            x = search(b)
            assert (x is None) == (scan(b) is None), (p, b)
            if x is not None:
                assert _in_both(p, b, x), (p, b)


def _kept(constraints, m, radius):
    """Every integer b in [−radius, radius]^m with _keeps_fan(constraints, b),
    in lexicographic order: each level's constraints are read by _keeps_fan
    once their last entry is set, so a leaf has read them all."""
    b, levels = [0] * m, [{k: constraints.get(k, ())} for k in range(m)]

    def descend(k):
        if k == m:
            yield tuple(b)
            return
        for v in range(-radius, radius + 1):
            b[k] = v
            if _keeps_fan(levels[k], b):
                yield from descend(k + 1)
        b[k] = 0

    return list(descend(0))


def _typed(grouped):
    """The constraints as a set, each coefficient with its type."""
    return {
        (const, type(const), tuple((i, c, type(c)) for i, c in terms))
        for level in grouped.values()
        for const, terms in level
    }


def test_margin_constraints_match_the_fraction_build(monkeypatch):
    # integer coefficients where the scaled inverse's d divides them, as on
    # every lattice smooth input (d = ±1); a Fraction only otherwise.  A
    # non-simple polytope and dimension 0 keep every vertex's conditions,
    # exactly the oracle's; a simple one keeps one wall per edge, a subset of
    # them that every b, integer or rational, satisfies exactly when it
    # satisfies them all, so the descents stream the same b.  GL(n, Z)
    # images with the same rows and offsets share their conditions, which
    # are decided once
    inputs = list(catalog().values()) + [
        parse_polytope(item.texts[0]).polytope
        for seed in (1, 5)
        for item in workload_items("neat", seed)
    ]
    triangle = HPolytope(2, ((-1, 0), (0, -1), (1, 2)), (0, 0, 3))  # |det| = 2
    # rational offsets give Fraction margins
    half = HPolytope(3, cube(3).normals, (Fraction(1, 2), 1, Fraction(3, 2), 2, 1, Fraction(1, 3)))
    inputs += [triangle, HPolytope(2, triangle.normals, (Fraction(1, 2), 0, Fraction(7, 3)))]
    inputs += [half, half.translate((1, 0, -1))]
    inputs += [HPolytope(0, (), ()), HPolytope(0, ((), ()), (0, 2))]  # dimension 0
    rng = random.Random(34)
    non_simple = [del_pezzo(3), del_pezzo(5), CROSS4]
    non_simple += [q.transform(random_unimodular(rng, q.dim)) for q in non_simple[:2]]
    decided, fewer, rational = set(), 0, 0
    for p in inputs + non_simple:
        got, want = _vertex_margin_constraints(p), fraction_margin_constraints(p)
        if p.dim == 0 or not p.is_simple():
            assert got == want
            assert _coefficient_types(got) == _coefficient_types(want)
            continue
        assert _typed(got) <= _typed(want), p
        key = frozenset(_typed(got)), frozenset(_typed(want))
        if key in decided:
            continue
        decided.add(key)
        fewer += len(key[0]) < len(key[1])
        m = p.nfacets
        for _ in range(200):
            b = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(m)]
            kept = _keeps_fan(got, b)
            assert kept == _keeps_fan(want, b), (p, b)
            rational += kept
        radii = (1, 2) if m <= 8 else (1,)
        streams = {}
        for build in (_vertex_margin_constraints, fraction_margin_constraints):
            monkeypatch.setattr(displace, "_vertex_margin_constraints", build)
            streams[build] = [list(_fan_preserving(p, (r,) * m, paired)) for r in radii for paired in (True, False)]
            monkeypatch.undo()
        assert streams[_vertex_margin_constraints] == streams[fraction_margin_constraints], p
        if m <= 8:  # the unpaired stream at r = 2 is every b of the box that keeps the fan
            assert _kept(got, m, 2) == _kept(want, m, 2) == streams[fraction_margin_constraints][3], p
    assert len(decided) > 30 and fewer and rational
    assert not any(q.is_simple() for q in non_simple)


def test_margin_constraints_are_one_per_wall():
    # on a simple polytope each wall's condition is kept once, and they are
    # exactly the conditions read off the lower vertex's chart of each edge,
    # level by level, with their coefficient types; where a vertex cone is
    # not unimodular, the two ends of an edge read its wall's relation at
    # different scales, so reading both ends would keep a wall twice
    rng = random.Random(46)
    inputs = [p for p in catalog().values() if p.dim and p.is_simple()]
    polygons = []
    while len(polygons) < 12:
        try:
            polygons.append(convex_hull({(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(6)}))
        except ValueError:  # collinear
            continue
    inputs += polygons + [cartesian_product(q, segment()) for q in polygons[:4]]
    inputs.append(HPolytope(3, cube(3).normals, (Fraction(1, 2), 1, Fraction(3, 2), 2, 1, Fraction(1, 3))))
    inputs += [p.transform(random_unimodular(rng, p.dim)) for p in inputs]
    for p in inputs[: len(inputs) // 2]:
        k = rng.randint(2, 3)
        shift = tuple(rng.randint(-2, 2) for _ in range(p.dim))
        inputs.append(HPolytope(p.dim, p.normals, [k * c for c in p.offsets]).translate(shift))
    for p in inputs:
        got, want = _vertex_margin_constraints(p), wall_margin_constraints(p)
        assert got.keys() == want.keys(), p
        for level, entries in got.items():
            assert len(set(entries)) == len(entries), (p, level)
            assert _typed({level: entries}) == _typed({level: want[level]}), (p, level)


def test_margin_constraints_are_built_once_per_polytope():
    # the class box (27 points) runs before the radius stream ([−1, 1]^6),
    # a class fails, so both descents read the constraints, built once
    p = catalog()["cube3"].translate((2, 0, 0))
    size, _ = _class_chart(p)
    assert 0 < size <= 3**p.nfacets
    build = inspect.unwrap(_vertex_margin_constraints).__code__
    builds = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is build:
            builds.append(event)

    sys.setprofile(profile)
    try:
        verdict = is_neat(p, 1)
    finally:
        sys.setprofile(None)
    assert verdict.witness_b == (-1, 0, -1, 0, -1, 0)
    assert len(builds) == 1


def _coefficient_types(grouped):
    return [type(c) for level in grouped.values() for _, terms in level for _, c in terms]


def _counted_searches(monkeypatch):
    """The centres of every lattice search is_neat runs from now on."""
    # is_neat's classes run E(P)'s lattice search, built in ewald
    module = sys.modules["ewaldkit.ewald"]
    searches = []

    def counting(*frame):
        search = _lattice_search(*frame)

        def counted(b, *rest, **kwargs):
            searches.append(b)
            return search(b, *rest, **kwargs)

        counted.residuals = search.residuals  # the class keys, not a search
        return counted

    monkeypatch.setattr(module, "_lattice_search", counting)
    return searches


def _dilate(p, k):
    return HPolytope(p.dim, p.normals, tuple(k * c for c in p.offsets))


def _representative(p, b):
    """The class representative that is_neat keys b by: the residuals from
    which E(P)'s lattice search starts at the centre b."""
    return tuple(_ewald_search(p)[0].residuals(b))


def _pair_keys(p, bs):
    """The key of the pair (b, −b) of each b: the lesser of the class
    representatives of b and −b, keyed at vertex 0."""
    keys = set()
    for b in bs:
        key = _representative(p, b)
        keys.add(min(key, tuple(-v for v in key)))
    return keys


def test_at_most_one_search_per_class(monkeypatch):
    searches = _counted_searches(monkeypatch)
    # x = 0 answers every class of a cube and of 4·C_5 moved to [0, 8]^5,
    # whose offsets 0 stop the every-c_j >= r shortcut: no search at all;
    # one search per pair would be 14,281, 185,647 and 58,825 searches on
    # the first three
    corner = _dilate(cube(5), 4).translate((4,) * 5)
    for p, radius in ((cube(4), 2), (cube(5), 2), (cube(6), 1), (cube(7), 1), (cube(7), 2), (corner, 1)):
        searches.clear()
        assert is_neat(p, radius).status == "neat_up_to_radius"
        assert not searches, (p, radius, len(searches))
    # elsewhere each class of a pair (b, −b) is searched at most once, at its
    # key in vertex 0's frame, whichever b of the stream met it, and only
    # classes met in the class box are searched
    cases = [
        (catalog()["hexagon"].translate((1, 0)), 2),
        (catalog()["cube3"].translate((2, 0, 0)), 2),
        (cube(4).translate((1, 0, 0, 0)), 2),
        (_dilate(cube(3), 3).translate((2, 0, 0)), 1),
        (_dilate(catalog()["hexagon"], 4).translate((3, 1)), 1),
        (_dilate(cube(4), 3).translate((2, 0, 0, 0)), 2),
    ]
    for p, radius in cases:
        _, bounds = _class_chart(p)
        classes = _pair_keys(p, _fan_preserving(p, bounds, paired=True))
        for r in (radius, None):
            searches.clear()
            is_neat(p, r)
            assert len(set(searches)) == len(searches) and set(searches) <= classes, (p, r)


def test_the_stream_decides_classes_past_an_oversized_class_box(monkeypatch):
    # dilated ×3 and moved by 3·e_1, or the hexagon ×4 moved by (2, 2), the
    # class boxes hold more than [−1, 1]^m, so no class is decided first:
    # the radius stream runs to its end, meets some classes through the
    # negated representative, and answers neat_up_to_radius; keyed at
    # vertex 0, x = 0 answers every class the square, the pentagon and the
    # cube meet, the hexagon searches some
    searches = _counted_searches(monkeypatch)
    searched = {}
    cases = {}
    for name in ("square", "pentagon", "cube3"):
        p = catalog()[name]
        cases[name] = _dilate(p, 3).translate((3,) + (0,) * (p.dim - 1))
    cases["hexagon"] = _dilate(catalog()["hexagon"], 4).translate((2, 2))
    for name, q in cases.items():
        size, bounds = _class_chart(q)
        assert size > 3**q.nfacets, name
        keys = [_representative(q, b) for b in qualifying_pairs(q, 1)]
        assert any(tuple(-v for v in key) < key for key in keys), name
        searches.clear()
        assert _check(q, 1).status == "neat_up_to_radius"
        classes = _pair_keys(q, _fan_preserving(q, bounds, paired=True))
        assert len(set(searches)) == len(searches) and set(searches) <= classes, name
        searched[name] = len(searches)
    assert searched["square"] == searched["pentagon"] == searched["cube3"] == 0 < searched["hexagon"]


def _exact_cases():
    rng = random.Random(2021)
    for name, p in catalog().items():
        for shift in (0, 1, 2):
            yield "%s+%de1" % (name, shift), p.translate((shift,) + (0,) * (p.dim - 1))
    for k, p in enumerate(smooth_suite(rng, max_dim=3, count=16)):
        yield "gl%d" % k, p


def test_exact_verdict_matches_the_oracle():
    # the class box lies in [−R, R]^m for R = max margin − 1, so the oracle
    # at R meets every class: it is neat up to R exactly when p is neat
    checked = set()
    for label, p in _exact_cases():
        _, bounds = _class_chart(p)
        radius = max(bounds, default=0)
        if (2 * radius + 1) ** p.nfacets > 10_000:
            continue
        checked.add(label)
        verdict = is_neat(p, None)
        assert verdict.radius is None
        pairs = qualifying_pairs(p, radius)
        status, _ = oracle_verdict(p, pairs)
        assert (verdict.status == "neat") == (status == "neat_up_to_radius"), label
        if verdict.is_counterexample:
            assert verdict.witness_b in pairs and box_scan(p)(verdict.witness_b) is None, label
    assert {"cube3+2e1", "hexagon+1e1", "simplex3+0e1", "cube4+2e1"} <= checked


def test_translation_classes_share_a_verdict():
    # b and b + N·t keep the fan together and are answered together, and the
    # representative has b_S = 0 on vertex 0's rows S and lies in vertex
    # 0's box, |b_j| <= max(M[0][j] − 1, 0)
    rng = random.Random(5)
    cases = [catalog()["hexagon"].translate((1, 0)), catalog()["cube3"].translate((2, 0, 0))]
    cases += smooth_suite(rng, max_dim=3, count=10)
    for p in cases:
        s = _slab_frame(p)[1]
        bounds = [max(x - 1, 0) for x in _margins(p)[0]]
        assert all(bounds[j] == 0 for j in s)
        a_s_inverse = inverse_unimodular([p.normals[j] for j in s])
        scan = box_scan(p)
        pairs = qualifying_pairs(p, 1)
        for b in rng.sample(pairs, min(len(pairs), 6)):
            t = tuple(rng.randint(-3, 3) for _ in range(p.dim))
            moved = tuple(bj + dot(u, t) for bj, u in zip(b, p.normals))
            assert (scan(b) is None) == (scan(moved) is None), (p, b, t)
            rep = _representative(p, moved)
            assert all(rep[j] == 0 for j in s)
            assert all(abs(v) <= h for v, h in zip(rep, bounds)), (p, b, rep)
            # rep − b = N·t′ for the integer t′ = A_S⁻¹ (rep − b)_S
            shift = mat_vec(a_s_inverse, [rep[j] - b[j] for j in s])
            assert tuple(bj + dot(u, shift) for bj, u in zip(b, p.normals)) == rep
            assert (scan(rep) is None) == (scan(b) is None), (p, b)
