import random
from fractions import Fraction
from math import factorial

import pytest

import incidence_oracles as oracle
from conftest import random_unimodular
from ewaldkit.bundles import (
    catalog,
    cube,
    del_pezzo,
    monotone_polygon,
    monotone_simplex,
    segment,
    small_fiber_bundle,
    smooth_simplex,
    ssb,
)
from ewaldkit.counting import (
    emin_upper_bound,
    ewald_count_simplex,
    ewald_count_ssb,
    facet_ewald_split,
    normalized_volume,
    small_bundle_split_recursion_check,
    trinomial,
    volume,
)
from ewaldkit.ewald import ewald_set
from ewaldkit.polytope import HPolytope, _face_facets, cartesian_product, convex_hull
from test_acceptance import ssb_patterns_check

# the paper's SSB count table, rows n = 2..9
SSB_TABLE = {
    2: [9, 7],
    3: [21, 19, 13],
    4: [57, 51, 39, 27],
    5: [153, 141, 111, 81, 61],
    6: [423, 393, 321, 241, 183, 153],
    7: [1179, 1107, 925, 715, 547, 449, 407],
    8: [3321, 3139, 2675, 2115, 1639, 1331, 1179, 1123],
    9: [9417, 8953, 7747, 6247, 4903, 3967, 3451, 3229, 3157],
}


def brute_trinomial(n, k):
    # oracle: explicit polynomial multiplication
    poly = [1]
    for _ in range(n):
        nxt = [0] * (len(poly) + 2)
        for i, c in enumerate(poly):
            nxt[i] += c
            nxt[i + 1] += c
            nxt[i + 2] += c
        poly = nxt
    return poly[k] if 0 <= k < len(poly) else 0


def test_trinomial_examples_and_oracle():
    assert trinomial(0, 0) == 1
    assert trinomial(3, 3) == 7
    assert sum(trinomial(9, k) for k in range(2 * 9 + 1)) == 3**9
    for n in range(8):
        for k in range(-1, 2 * n + 2):
            assert trinomial(n, k) == brute_trinomial(n, k)
    with pytest.raises(ValueError):
        trinomial(-1, 0)


def test_trinomial_closed_sum_matches_oracle_rows():
    for n in range(40):
        row = [trinomial(n, k) for k in range(-2, 2 * n + 3)]
        assert row == [brute_trinomial(n, k) for k in range(-2, 2 * n + 3)]


def test_trinomial_large_n_is_direct():
    # one coefficient at large n without building the earlier rows; the
    # central coefficients obey n a(n) = (2n - 1) a(n-1) + 3 (n - 1) a(n-2)
    n = 2000
    a0, a1, a2 = (trinomial(m, m) for m in (n - 2, n - 1, n))
    assert n * a2 == (2 * n - 1) * a1 + 3 * (n - 1) * a0
    assert 3**n // (2 * n) < a2 < 3**n
    assert trinomial(n, 1) == n and trinomial(n, 2 * n - 1) == n


def test_trinomial_palindrome_and_row_sums():
    for n in range(65):
        row = [trinomial(n, k) for k in range(2 * n + 1)]
        assert row == row[::-1]
        assert sum(row) == 3**n


def test_simplex_counts_match_paper_sequence():
    assert [ewald_count_simplex(n) for n in range(1, 10)] == [
        3, 7, 19, 51, 141, 393, 1107, 3139, 8953,
    ]
    with pytest.raises(ValueError):
        ewald_count_simplex(0)


def test_simplex_counts_match_enumeration():
    for n in range(1, 7):
        assert ewald_count_simplex(n) == len(ewald_set(monotone_simplex(n)))


def test_ssb_counts_match_paper_table():
    for n, row in SSB_TABLE.items():
        assert [ewald_count_ssb(n, k) for k in range(n)] == row
    with pytest.raises(ValueError):
        ewald_count_ssb(3, 3)


def test_ssb_counts_match_enumeration():
    for n in range(2, 7):
        for k in range(n):
            assert ewald_count_ssb(n, k) == len(ewald_set(ssb(n, k)))


def test_emin_upper_bound_values():
    assert [emin_upper_bound(n) for n in range(3, 8)] == [13, 27, 59, 117, 243]
    assert emin_upper_bound(12) == 9477
    assert emin_upper_bound(31) == 10460353203
    for bad in (0, 1, 2):
        with pytest.raises(ValueError):
            emin_upper_bound(bad)


def test_facet_split_examples():
    s = facet_ewald_split(segment(), 0)
    assert (s.e_plus, s.e_zero, s.e_minus) == (1, 1, 1)
    for n in range(2, 6):
        sp = facet_ewald_split(monotone_simplex(n), 0)
        assert sp.e_zero == ewald_count_simplex(n - 1)
        assert sp.e_plus == (ewald_count_simplex(n) - ewald_count_simplex(n - 1)) // 2
        assert sp.e_plus == sp.e_minus
        assert sp.total == ewald_count_simplex(n)
    sp3 = facet_ewald_split(monotone_simplex(3), 2)
    assert (sp3.e_zero, sp3.e_plus) == (7, 6)
    with pytest.raises(ValueError):
        facet_ewald_split(smooth_simplex(2, 2), 0)


def test_small_bundle_split_recursion():
    assert small_bundle_split_recursion_check(segment(), 0, 2)
    assert small_bundle_split_recursion_check(segment(), 0, 3)
    b2 = small_fiber_bundle(segment(), 0, 2)
    assert small_bundle_split_recursion_check(b2, b2.nfacets - 1, 2)
    # the 4-dim bundle keeps a facet with e_plus == e_zero
    b3 = small_fiber_bundle(segment(), 0, 3)
    sp = facet_ewald_split(b3, b3.nfacets - 1)
    assert sp.e_plus == sp.e_zero == 9
    assert small_bundle_split_recursion_check(b3, b3.nfacets - 1, 2)


def test_min_construction_table2_column():
    # iterated small fiber bundles over the segment hit 13, 27, 59, 117, 243
    b2 = small_fiber_bundle(segment(), 0, 2)
    b3 = small_fiber_bundle(segment(), 0, 3)
    dim5 = small_fiber_bundle(b2, b2.nfacets - 1, 2)
    dim6 = small_fiber_bundle(b3, b3.nfacets - 1, 2)
    dim7 = small_fiber_bundle(b3, b3.nfacets - 1, 3)
    got = {p.dim: len(ewald_set(p)) for p in (b2, b3, dim5, dim6, dim7)}
    assert got == {3: 13, 4: 27, 5: 59, 6: 117, 7: 243}


def test_volume_examples():
    assert volume(cube(3)) == 8
    assert volume(monotone_simplex(2)) == Fraction(9, 2)
    assert normalized_volume(smooth_simplex(4, 1)) == 1
    assert normalized_volume(monotone_simplex(2)) == 9
    assert volume(monotone_polygon("hexagon")) == 3
    # SSB volumes: ((n+k)^n - (n-k)^n) / (k n!) for k >= 1
    import math

    for n in (2, 3, 4):
        for k in range(1, n):
            expect = Fraction((n + k) ** n - (n - k) ** n, k * math.factorial(n))
            assert volume(ssb(n, k)) == expect


def test_volume_matches_chart_recursion():
    rng = random.Random(11)
    named = list(catalog().values())
    inputs = named + [cube(5), del_pezzo(3), del_pezzo(5)]
    inputs += [cartesian_product(del_pezzo(4), del_pezzo(2))]
    inputs += [cartesian_product(monotone_simplex(3), monotone_simplex(3))]
    inputs += [ssb(n, k) for n in range(2, 7) for k in range(n)]
    for p in named:
        if p.dim <= 5:
            image = p.transform(random_unimodular(rng, p.dim))
            inputs.append(image.translate(tuple(rng.randint(-3, 3) for _ in range(p.dim))))
    quarter = Fraction(1, 4)
    inputs += [
        convex_hull([(0, 0), (Fraction(5, 2), 0), (Fraction(1, 3), Fraction(7, 4)), (-quarter, 1)]),
        monotone_polygon("pentagon").translate((Fraction(1, 2), Fraction(-2, 3))),
        HPolytope(1, ((1,), (-1,)), (Fraction(7, 3), quarter)),
        segment(),
    ]
    for p in inputs:
        want = oracle.chart_volume(p)
        assert volume(p) == want, p
        assert normalized_volume(p) == want * factorial(p.dim), p
    # a point is one 0-simplex, of volume 1 in R^0 (the recursion's base
    # case called it 0)
    assert volume(HPolytope(0, (), ())) == normalized_volume(HPolytope(0, (), ())) == 1


def test_volume_takes_one_facet_step_per_face(monkeypatch):
    import ewaldkit.counting as counting

    steps = []

    def counted(face, on_row):
        steps.append(face)
        return _face_facets(face, on_row)

    monkeypatch.setattr(counting, "_face_facets", counted)
    assert volume(cube(7)) == 128
    # one step per face reached, at most once each: cube(7) has 3^7 faces
    assert len(steps) == len(set(steps)) <= 3**7
    steps.clear()
    assert volume(cube(7)) == 128  # nothing is kept from the call before
    assert 0 < len(steps) <= 3**7


def test_ssb_patterns():
    for n in range(2, 8):
        for k in range(n):
            assert ssb_patterns_check(n, k), (n, k)
    # spot values from the spec examples
    assert ewald_count_ssb(4, 3) == ewald_count_simplex(3) + 8 == 27
    row6 = [ewald_count_ssb(6, k) for k in range(6)]
    assert row6 == sorted(row6, reverse=True) and len(set(row6)) == 6
    assert Fraction(ewald_count_ssb(2, 1), len(ewald_set(monotone_simplex(1)))) == Fraction(7, 3)
