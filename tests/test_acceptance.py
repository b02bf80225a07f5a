"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time (run with `pytest -s` to see them).  Every expectation is
exact; the stated runtime budgets are asserted too.
"""

import io
import json
import os
import random
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import random_unimodular, smooth_suite
from ewaldkit.bundles import (
    BundleSpec,
    bundle_classification,
    catalog,
    cube,
    del_pezzo,
    monotone_polygon,
    monotone_simplex,
    nill_triangle,
    paffenholz_p6,
    segment,
    small_fiber_bundle,
    smooth_simplex,
    ssb,
    ssb_as_bundle,
    build_bundle,
)
from ewaldkit.classify import (
    deeply_smooth_characterizations_agree,
    is_deeply_smooth,
    is_monotone,
    is_quasi_smooth_polygon,
    is_reflexive,
    is_smooth,
    is_ut_free,
)
from ewaldkit.cli import main as cli_main
from ewaldkit.counting import (
    _count_simplex,
    emin_upper_bound,
    ewald_count_simplex,
    ewald_count_ssb,
    volume,
)
from ewaldkit.displace import first_displacement, is_neat
from ewaldkit.ewald import (
    ewald_set,
    fs_property,
    nill2d_basis,
    star_ewald,
    strong_ewald,
    weak_ewald,
)
from ewaldkit.fileio import ingest_database
from ewaldkit.intlinalg import det, mat_vec
from ewaldkit.polytope import (
    HPolytope,
    cartesian_product,
    convex_hull,
    normally_isomorphic,
    oda_instance_check,
)
from ewaldkit.probes import star_probe_crosscheck
from lattice_oracles import cube_normalization

POLYGON_NAMES = ("triangle", "trapezoid", "square", "pentagon", "hexagon")
SIMPLEX_COUNTS = [3, 7, 19, 51, 141, 393, 1107, 3139, 8953]
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
TABLE2_MINIMA = {3: 13, 4: 27, 5: 59, 6: 117, 7: 243}


def _cli_stdout(argv, stdin_text=None):
    old_out, old_in = sys.stdout, sys.stdin
    sys.stdout = io.StringIO()
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = cli_main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdout, sys.stdin = old_out, old_in
    return code, out


def _passline(num, elapsed, budget, text):
    assert elapsed < budget, "criterion %d exceeded its %ds budget: %.1fs" % (
        num, budget, elapsed,
    )
    print("ACCEPTANCE %d: PASS (%.1fs) — %s" % (num, elapsed, text))


def test_criterion_01_simplex_counts():
    t0 = time.monotonic()
    for n in range(1, 10):
        code, out = _cli_stdout(["count", "simplex", str(n)])
        assert code == 0 and int(out.strip()) == SIMPLEX_COUNTS[n - 1], n
    for n in range(1, 7):
        assert len(ewald_set(monotone_simplex(n))) == SIMPLEX_COUNTS[n - 1], n
    _passline(1, time.monotonic() - t0, 10, "simplex counts 3..8953, enumeration agrees for n<=6")


def test_criterion_02_ssb_table():
    t0 = time.monotonic()
    for n, row in SSB_TABLE.items():
        assert [ewald_count_ssb(n, k) for k in range(n)] == row, n
    assert ewald_count_ssb(5, 2) == 111
    assert ewald_count_ssb(8, 4) == 1639
    for n in range(2, 7):
        for k in range(n):
            assert ewald_count_ssb(n, k) == len(ewald_set(ssb(n, k))), (n, k)
    _passline(2, time.monotonic() - t0, 60, "SSB count table n=2..9 exact, enumeration agrees for n<=6")


def test_criterion_03_minimum_ewald_constructions():
    t0 = time.monotonic()
    b2 = small_fiber_bundle(segment(), 0, 2)
    b3 = small_fiber_bundle(segment(), 0, 3)
    dim5 = small_fiber_bundle(b2, b2.nfacets - 1, 2)
    dim6 = small_fiber_bundle(b3, b3.nfacets - 1, 2)
    dim7 = small_fiber_bundle(b3, b3.nfacets - 1, 3)
    for p in (b2, b3, dim5, dim6, dim7):
        assert is_monotone(p)
        measured = len(ewald_set(p))
        assert measured == TABLE2_MINIMA[p.dim], (p.dim, measured)
        assert measured == emin_upper_bound(p.dim), p.dim
    _passline(3, time.monotonic() - t0, 120, "iterated small fiber bundles reach 13,27,59,117,243 in dims 3..7")


def test_criterion_04_dimension2_catalog():
    t0 = time.monotonic()
    polygons = {name: monotone_polygon(name) for name in POLYGON_NAMES}
    hist = {}
    for p in polygons.values():
        k = len(ewald_set(p))
        hist[k] = hist.get(k, 0) + 1
    assert hist == {7: 4, 9: 1}
    for name, p in polygons.items():
        assert weak_ewald(p)[0], name
        assert strong_ewald(p).ok, name
        assert star_ewald(p)[0], name
    seven_point_sets = {
        frozenset(ewald_set(polygons[name]).points)
        for name in POLYGON_NAMES
        if name != "square"
    }
    assert len(seven_point_sets) == 1
    assert seven_point_sets.pop() == frozenset(ewald_set(polygons["hexagon"]).points)
    _passline(4, time.monotonic() - t0, 1, "polygon histogram {7:4, 9:1}; shared 7-point Ewald set")


def test_criterion_05_paffenholz():
    t0 = time.monotonic()
    code, text = _cli_stdout(["gen", "paffenholz"])
    assert code == 0
    code, out = _cli_stdout(["check", "-", "--skip-neat"], stdin_text=text)
    assert code == 0
    assert "monotone=True" in out and "strong=True" in out and "star=False" in out
    p6 = paffenholz_p6()
    ok, failing = star_ewald(p6)
    assert not ok and failing.codim == 6
    # the paper's printed facet positions 2,3,5,6,9,10 (1-based); the printed
    # coordinate vector (-4,1,1,-2,1,1) does not satisfy the printed system,
    # so the vertex is recomputed from the tight facets
    assert failing.tight == (1, 2, 4, 5, 8, 9)
    assert p6.face_vertices(failing) == ((14, -1, -1, 6, -1, -1),)
    assert not p6.contains((-4, 1, 1, -2, 1, 1))
    _passline(5, time.monotonic() - t0, 60, "paffenholz monotone, strong without star; failing vertex recomputed")


def _monotone_dim_le6_suite():
    named = dict(catalog())
    named["simplex5"] = monotone_simplex(5)
    named["cube5"] = cube(5)
    named["ssb52"] = ssb(5, 2)
    named["simplex6"] = monotone_simplex(6)
    named["cube6"] = cube(6)
    named["ssb63"] = ssb(6, 3)
    named["hexagon_x_cube3"] = cartesian_product(monotone_polygon("hexagon"), cube(3))
    return {k: v for k, v in named.items() if is_monotone(v) and v.dim <= 6}


def test_criterion_06_cube_extremality():
    t0 = time.monotonic()
    suite = _monotone_dim_le6_suite()
    assert len(suite) >= 15
    for name, p in suite.items():
        m = cube_normalization(p)
        e = ewald_set(p)
        for q in e.points:
            assert all(abs(x) <= 1 for x in mat_vec(m, q)), (name, q)
        if name.startswith("cube") or name == "square" or name == "segment":
            assert len(e) == 3**p.dim, name
        else:
            assert len(e) < 3**p.dim, name
    _passline(6, time.monotonic() - t0, 60, "normalized E(P) within {-1,0,1}^n; 3^n attained only by cubes")


def ssb_patterns_check(n: int, k: int) -> bool:
    """Check the SSB count and volume patterns decidable at (n, k):
    the three closed-form identities at k ∈ {0, 1, n−1}, monotone decrease
    of the count in k, volume increase in k, and the count ratio bounds
    1 < |E(SSB(n,k))| / |E(Δ_{n-1})| <= 3."""
    if n < 2 or not 0 <= k <= n - 1:
        raise ValueError("needs n >= 2 and 0 <= k <= n-1")
    count = ewald_count_ssb(n, k)
    ok = True
    if k == 0:
        ok &= count == 3 * _count_simplex(n - 1)
    if k == 1:
        ok &= count == ewald_count_simplex(n)
    if k == n - 1:
        ok &= count == _count_simplex(n - 1) + 2 * n
    if k >= 1:
        ok &= count < ewald_count_ssb(n, k - 1)
        # strict for n >= 3; constant in k when n = 2 (both slopes cancel)
        if n == 2:
            ok &= volume(ssb(n, k)) >= volume(ssb(n, k - 1))
        else:
            ok &= volume(ssb(n, k)) > volume(ssb(n, k - 1))
    ratio = Fraction(count, _count_simplex(n - 1))
    ok &= 1 < ratio <= 3
    return bool(ok)


def test_criterion_07_property_suites(rng):
    t0 = time.monotonic()
    named = catalog()

    # E-set negation closure
    for p in named.values():
        e = ewald_set(p)
        assert all(tuple(-x for x in q) in e.points for q in e.points)

    # product laws over catalog pairs of dim sum <= 6 (Prop. on products)
    members = [
        named[k]
        for k in (
            "segment", "triangle", "trapezoid", "square", "pentagon", "hexagon",
            "simplex3", "cube3", "ssb31", "ssb32", "simplex4", "cube4",
        )
    ]
    pairs = [
        (a, b)
        for a, b in combinations_with_replacement(members, 2)
        if a.dim + b.dim <= 6
    ]
    assert len(pairs) >= 40
    for a, b in pairs:
        prod = cartesian_product(a, b)
        ea, eb, ep = ewald_set(a), ewald_set(b), ewald_set(prod)
        assert ep.points == frozenset(x + y for x in ea.points for y in eb.points)
        assert weak_ewald(prod)[0] == (weak_ewald(a)[0] and weak_ewald(b)[0])
        assert strong_ewald(prod).ok == (strong_ewald(a).ok and strong_ewald(b).ok)
        assert star_ewald(prod)[0] == (star_ewald(a)[0] and star_ewald(b)[0])

    # the three deep-smoothness characterizations agree on a randomized suite
    for p in smooth_suite(rng, max_dim=4, count=20):
        c1, c2, c3 = deeply_smooth_characterizations_agree(p)
        assert c1 == c2 == c3

    # deeply monotone members satisfy strong and star
    for p in named.values():
        if is_monotone(p) and is_deeply_smooth(p)[0]:
            assert strong_ewald(p).ok
            assert star_ewald(p)[0]

    # facet first-displacements of UT-free monotone members are reflexive
    for p in named.values():
        if p.dim >= 2 and is_monotone(p) and is_ut_free(p)[0]:
            for f in p.faces(1):
                assert is_reflexive(first_displacement(p, f))

    # weak implies FS on monotone members
    for p in named.values():
        if is_monotone(p) and weak_ewald(p)[0]:
            assert fs_property(p)

    # fiber Ewald points embed into bundle Ewald sets
    bundle_specs = [
        ssb_as_bundle(3, 1),
        ssb_as_bundle(4, 3),
        BundleSpec(
            base=monotone_polygon("hexagon"), fiber=segment(),
            twist=((0, 0), (1, 1)), shifts=(0, 0),
        ),
        BundleSpec(
            base=cube(2), fiber=monotone_simplex(2),
            twist=((0, 0), (0, 0), (1, -1)), shifts=(0, 0, 0),
        ),
    ]
    for spec in bundle_specs:
        total = build_bundle(spec)
        zeros = (0,) * spec.base.dim
        etotal = ewald_set(total)
        for y in ewald_set(spec.fiber).points:
            assert zeros + y in etotal.points

    # bundle classification conjunction on a randomized suite
    local = random.Random(77)
    bases = [segment(), monotone_simplex(2), smooth_simplex(1, 2), cube(2)]
    fibers = [segment(), monotone_simplex(2), smooth_simplex(2, 2), cube(2)]
    built = 0
    while built < 20:
        base, fiber = local.choice(bases), local.choice(fibers)
        twist = tuple(
            tuple(local.randint(-1, 1) for _ in range(base.dim))
            for _ in range(fiber.nfacets)
        )
        try:
            flags = bundle_classification(
                BundleSpec(base=base, fiber=fiber, twist=twist, shifts=(0,) * fiber.nfacets)
            )
        except ValueError:
            continue
        assert flags[2] == (is_monotone(base) and is_monotone(fiber))
        built += 1

    # SSB count/volume patterns for n <= 7
    for n in range(2, 8):
        for k in range(n):
            assert ssb_patterns_check(n, k), (n, k)

    # Minkowski decomposition instances on 20 pairs with coinciding fans
    small = [
        named[k]
        for k in (
            "segment", "triangle", "trapezoid", "square", "pentagon",
            "hexagon", "simplex3", "cube3", "ssb31", "ssb32",
        )
    ]
    checked = 0
    for p in small:
        dilated = HPolytope(p.dim, p.normals, tuple(2 * c for c in p.offsets))
        assert normally_isomorphic(p, dilated)
        assert oda_instance_check(p, p)
        assert oda_instance_check(p, dilated)
        checked += 2
    assert checked == 20

    # bounded neatness: no counterexample at radius 2
    neat_targets = [segment(), monotone_simplex(2), monotone_simplex(3), monotone_simplex(4)]
    neat_targets += [cube(n) for n in (2, 3, 4)]
    neat_targets += [monotone_polygon(n) for n in POLYGON_NAMES]
    for p in neat_targets:
        assert not is_neat(p, 2).is_counterexample

    _passline(7, time.monotonic() - t0, 300, "negation closure, product laws, deep-smooth equivalences, "
              "displacement reflexivity, FS, bundle laws, SSB patterns, Minkowski instances, neatness radius 2")


def test_criterion_08_probe_crosscheck():
    t0 = time.monotonic()
    for p in (monotone_polygon("hexagon"), cube(3)):
        report = star_probe_crosscheck(p, 4, 3)
        assert report.star_ewald
        assert report.all_displaceable, report.undisplaceable_points
        assert report.total > 0
    _passline(8, time.monotonic() - t0, 60, "every nonzero interior sample displaceable (hexagon, C_3)")


def test_criterion_09_nill_dimension2():
    t0 = time.monotonic()
    for a in range(1, 6):
        assert ewald_set(nill_triangle(a)).points == frozenset({(0, 0)}), a
    rng = random.Random(90)
    found = 0
    attempts = 0
    polygons = [monotone_polygon(n) for n in POLYGON_NAMES]
    while found < 50 and attempts < 6000:
        attempts += 1
        if attempts % 2:
            base = rng.choice(polygons)
            p = base.transform(random_unimodular(rng, 2))
        else:
            pts = {
                (rng.randint(-4, 4), rng.randint(-4, 4))
                for _ in range(rng.randint(3, 8))
            }
            try:
                p = convex_hull(pts, 2)
            except ValueError:
                continue
            if not (p.origin_interior() and p.is_lattice() and is_quasi_smooth_polygon(p)):
                continue
        basis = nill2d_basis(p)
        assert basis is not None, (p.normals, p.offsets)
        assert abs(det(basis)) == 1
        e = ewald_set(p)
        assert all(x in e.points for x in basis)
        found += 1
    assert found == 50
    _passline(9, time.monotonic() - t0, 60, "E(T_a) = {0} for a=1..5; Ewald bases in 50 quasi-smooth polygons")


def test_criterion_10_dim3_database_conditional():
    t0 = time.monotonic()
    db = os.environ.get("EWALDKIT_DB_DIM3") or os.path.join(
        os.path.dirname(__file__), "data", "monotone_dim3"
    )
    if not os.path.isdir(db):
        print("ACCEPTANCE 10: SKIPPED — no dim-3 monotone database supplied "
              "(set EWALDKIT_DB_DIM3 to a directory of 18 polytope files)")
        pytest.skip("external dim-3 monotone database not supplied")
    stats = ingest_database(db)
    assert stats.histograms.get(3) == {13: 2, 17: 9, 19: 2, 21: 4, 27: 1}
    assert stats.class_counts.get(3) == (18, 16, 16)
    _passline(10, time.monotonic() - t0, 120, "dim-3 histogram and class counts reproduced")
