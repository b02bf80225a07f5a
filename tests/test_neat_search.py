"""The neatness search (joint (b, −b) enumeration and the slab-form lattice
search, now the lattice-point enumerator of polytope) against the search it
replaced, kept in neat_oracles."""

import random

from conftest import smooth_suite, workload_items
from ewaldkit.bundles import catalog, monotone_polygon, segment
from ewaldkit.displace import _fan_preserving, _vertex_margin_constraints, is_neat
from ewaldkit.fileio import parse_polytope
from ewaldkit.polytope import HPolytope, _lattice_search, _slab_frame, cartesian_product, dot
from neat_oracles import box_scan, fraction_margin_constraints, oracle_verdict, qualifying_pairs


def _check(p, radius):
    """is_neat, its pair stream and its lattice search all agree with the
    oracle on p; returns the verdict."""
    pairs = qualifying_pairs(p, radius)
    assert list(_fan_preserving(p, radius, paired=True)) == pairs
    verdict = is_neat(p, radius)
    assert (verdict.status, verdict.witness_b) == oracle_verdict(p, pairs)
    return verdict


def _slab_search(p):
    """The lattice test of is_neat as a function of b: the first x the
    enumerator visits with x ∈ P_b and −x ∈ P_{−b}, or None."""
    rows, coords = _slab_frame(p)
    assert len(rows) == p.nfacets  # p is smooth: no unit rows
    _, search = _lattice_search(rows, coords, p.offsets)

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
        for b in _fan_preserving(p, 2, paired=True):
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
    inputs.append(HPolytope(2, ((-1, 0), (0, -1), (1, 2)), (0, 0, 3)))  # d = 2
    for p in inputs:
        got, want = _vertex_margin_constraints(p), fraction_margin_constraints(p)
        assert got == want
        assert _coefficient_types(got) == _coefficient_types(want)


def _coefficient_types(grouped):
    return [type(c) for level in grouped.values() for _, terms in level for _, c in terms]
