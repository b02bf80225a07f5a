"""The neatness search (joint (b, −b) enumeration, translation classes and
the slab-form lattice search, now the lattice-point enumerator of polytope)
against the search it replaced, kept in neat_oracles."""

import inspect
import random
import sys
from fractions import Fraction

from conftest import smooth_suite, workload_items
from ewaldkit.bundles import catalog, cube, monotone_polygon, segment
from ewaldkit.displace import (
    _class_chart,
    _class_representative,
    _fan_preserving,
    _vertex_margin_constraints,
    is_neat,
)
from ewaldkit.fileio import parse_polytope
from ewaldkit.intlinalg import inverse_unimodular, mat_vec
from ewaldkit.polytope import HPolytope, _lattice_search, _slab_frame, cartesian_product, dot
from neat_oracles import box_scan, fraction_margin_constraints, oracle_verdict, qualifying_pairs


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
    enumerator visits with x ∈ P_b and −x ∈ P_{−b}, or None."""
    rows, coords = _slab_frame(p)
    assert len(rows) == p.nfacets  # p is smooth: no unit rows
    search = _lattice_search(rows, coords, p.offsets)

    def first(b):
        found = []
        search(b, lambda x, e: found.append(x) or True)
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


def test_margin_constraints_match_the_fraction_build():
    # integer coefficients where the scaled inverse's d divides them, as on
    # every lattice smooth input (d = ±1); a Fraction only otherwise
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
    for p in inputs:
        got, want = _vertex_margin_constraints(p), fraction_margin_constraints(p)
        assert got == want
        assert _coefficient_types(got) == _coefficient_types(want)


def test_margin_constraints_are_built_once_per_polytope():
    # the class box (27 points) runs before the radius stream ([−1, 1]^6),
    # a class fails, so both descents read the constraints, built once
    p = catalog()["cube3"].translate((2, 0, 0))
    size, _, _ = _class_chart(p)
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

        def counted(b, *rest):
            searches.append(b)
            return search(b, *rest)

        return counted

    monkeypatch.setattr(module, "_lattice_search", counting)
    return searches


def _dilate(p, k):
    return HPolytope(p.dim, p.normals, tuple(k * c for c in p.offsets))


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
    # representative in the class box, whichever b of the stream met it
    cases = [
        (catalog()["hexagon"].translate((1, 0)), 2),
        (catalog()["cube3"].translate((2, 0, 0)), 2),
        (cube(4).translate((1, 0, 0, 0)), 2),
        (_dilate(cube(3), 3).translate((2, 0, 0)), 1),
        (_dilate(catalog()["hexagon"], 4).translate((3, 1)), 1),
        (_dilate(cube(4), 3).translate((2, 0, 0, 0)), 2),
    ]
    for p, radius in cases:
        _, bounds, _ = _class_chart(p)
        classes = set(_fan_preserving(p, bounds, paired=True))
        for r in (radius, None):
            searches.clear()
            is_neat(p, r)
            assert len(set(searches)) == len(searches) and set(searches) <= classes, (p, r)


def test_the_stream_decides_classes_past_an_oversized_class_box(monkeypatch):
    # dilated ×3 and moved by 3·e_1, the class boxes (121, 275 and 1,331
    # points) hold more than [−1, 1]^m, so no class is decided first: the
    # radius stream runs to its end, meets some classes through the negated
    # representative, and answers neat_up_to_radius; x = 0 answers every
    # class the square and the cube meet, the pentagon searches some
    searches = _counted_searches(monkeypatch)
    searched = {}
    for name in ("square", "pentagon", "cube3"):
        p = catalog()[name]
        q = _dilate(p, 3).translate((3,) + (0,) * (p.dim - 1))
        size, bounds, reduction = _class_chart(q)
        assert size > 3**q.nfacets, name
        keys = [_class_representative(reduction, b) for b in qualifying_pairs(q, 1)]
        assert any(tuple(-v for v in key) < key for key in keys), name
        searches.clear()
        assert _check(q, 1).status == "neat_up_to_radius"
        classes = set(_fan_preserving(q, bounds, paired=True))
        assert len(set(searches)) == len(searches) and set(searches) <= classes, name
        searched[name] = len(searches)
    assert searched["square"] == searched["cube3"] == 0 < searched["pentagon"]


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
        _, bounds, _ = _class_chart(p)
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
    # representative has b_S = 0 and lies in the class box
    rng = random.Random(5)
    cases = [catalog()["hexagon"].translate((1, 0)), catalog()["cube3"].translate((2, 0, 0))]
    cases += smooth_suite(rng, max_dim=3, count=10)
    for p in cases:
        _, bounds, reduction = _class_chart(p)
        off_s = {j for j, _ in reduction}
        s = [j for j in range(p.nfacets) if j not in off_s]
        a_s_inverse = inverse_unimodular([p.normals[j] for j in s])
        scan = box_scan(p)
        pairs = qualifying_pairs(p, 1)
        for b in rng.sample(pairs, min(len(pairs), 6)):
            t = tuple(rng.randint(-3, 3) for _ in range(p.dim))
            moved = tuple(bj + dot(u, t) for bj, u in zip(b, p.normals))
            assert (scan(b) is None) == (scan(moved) is None), (p, b, t)
            rep = _class_representative(reduction, moved)
            assert all(rep[j] == 0 for j in s)
            assert all(abs(v) <= h for v, h in zip(rep, bounds)), (p, b, rep)
            # rep − b = N·t′ for the integer t′ = A_S⁻¹ (rep − b)_S
            shift = mat_vec(a_s_inverse, [rep[j] - b[j] for j in s])
            assert tuple(bj + dot(u, shift) for bj, u in zip(b, p.normals)) == rep
            assert (scan(rep) is None) == (scan(b) is None), (p, b)
