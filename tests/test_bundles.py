import random

import pytest

from ewaldkit.bundles import (
    BundleSpec,
    build_bundle,
    bundle_classification,
    catalog,
    cube,
    del_pezzo,
    generate,
    monotone_polygon,
    monotone_simplex,
    nill_triangle,
    paffenholz_p6,
    segment,
    small_fiber_bundle,
    smooth_simplex,
    ssb,
    ssb_as_bundle,
)
from ewaldkit.classify import is_monotone, is_smooth
from ewaldkit.ewald import ewald_set, star_ewald, strong_ewald, weak_ewald
from ewaldkit.polytope import cartesian_product


def test_build_bundle_zero_twist_is_product():
    spec = BundleSpec(
        base=segment(), fiber=monotone_simplex(2), twist=((0,), (0,), (0,)), shifts=(0, 0, 0)
    )
    total = build_bundle(spec)
    prod = cartesian_product(segment(), monotone_simplex(2))
    assert set(zip(total.normals, total.offsets)) == set(zip(prod.normals, prod.offsets))


def test_build_bundle_rejects_collapsing_twist():
    with pytest.raises(ValueError, match="not a bundle"):
        build_bundle(
            BundleSpec(
                base=segment(),
                fiber=monotone_simplex(2),
                twist=((0,), (0,), (5,)),
                shifts=(0, 0, 0),
            )
        )


def test_ssb_equals_its_bundle_description():
    for n in (2, 3, 4, 5):
        for k in range(n):
            direct = ssb(n, k)
            bundled = build_bundle(ssb_as_bundle(n, k))
            assert set(zip(direct.normals, direct.offsets)) == set(
                zip(bundled.normals, bundled.offsets)
            )


def test_ssb_examples():
    with pytest.raises(ValueError):
        ssb(3, 3)
    with pytest.raises(ValueError):
        ssb(1, 0)
    # ssb(n, 0) is the product simplex x segment (same rows up to order)
    p = ssb(3, 0)
    prod = cartesian_product(segment(), monotone_simplex(2))
    assert len(p.vertices()) == len(prod.vertices()) == 6
    trap = ssb(2, 1)
    assert set(trap.vertices()) == {(-1, -1), (-1, 2), (1, -1), (1, 0)}
    for n in (2, 3, 4, 5):
        for k in range(n):
            assert is_monotone(ssb(n, k))
            assert len(ssb(n, k).vertices()) == 2 * n


def test_ssb_all_ewald_conditions_up_to_dim5():
    for n in (2, 3, 4, 5):
        for k in range(n):
            p = ssb(n, k)
            assert weak_ewald(p)[0]
            assert strong_ewald(p).ok
            assert star_ewald(p)[0], (n, k)


def test_small_fiber_bundle_examples():
    b2 = small_fiber_bundle(segment(), 0, 2)
    assert b2.dim == 3 and len(ewald_set(b2)) == 13
    b3 = small_fiber_bundle(segment(), 0, 3)
    assert b3.dim == 4 and len(ewald_set(b3)) == 27
    twice = small_fiber_bundle(b2, b2.nfacets - 1, 2)
    assert twice.dim == 5 and len(ewald_set(twice)) == 59
    with pytest.raises(ValueError):
        small_fiber_bundle(smooth_simplex(2, 2), 0, 2)  # base not monotone


def test_bundle_classification_conjunction_random_suite(rng):
    bases = [segment(), monotone_simplex(2), smooth_simplex(1, 2), cube(2)]
    fibers = [segment(), monotone_simplex(2), smooth_simplex(2, 2), cube(2)]
    built = 0
    attempts = 0
    while built < 20 and attempts < 300:
        attempts += 1
        base = rng.choice(bases)
        fiber = rng.choice(fibers)
        twist = tuple(
            tuple(rng.randint(-1, 1) for _ in range(base.dim))
            for _ in range(fiber.nfacets)
        )
        spec = BundleSpec(base=base, fiber=fiber, twist=twist, shifts=(0,) * fiber.nfacets)
        try:
            flags = bundle_classification(spec)
        except ValueError:
            continue  # twist collapses some slice; not a bundle
        built += 1
        assert flags == (
            base.is_simple() and fiber.is_simple(),
            is_smooth(base)[0] and is_smooth(fiber)[0],
            is_monotone(base) and is_monotone(fiber),
        )
    assert built >= 20


def test_fiber_ewald_embeds_in_bundle_ewald():
    # with the fiber anchored over 0, {0} x E(fiber) sits inside E(total)
    specs = [
        ssb_as_bundle(3, 1),
        ssb_as_bundle(3, 2),
        ssb_as_bundle(4, 3),
        BundleSpec(
            base=monotone_polygon("hexagon"),
            fiber=segment(),
            twist=((0, 0), (1, 1)),
            shifts=(0, 0),
        ),
    ]
    for spec in specs:
        total = build_bundle(spec)
        etotal = ewald_set(total)
        zeros = (0,) * spec.base.dim
        for y in ewald_set(spec.fiber).points:
            assert zeros + y in etotal.points


def test_generators_catalog():
    named = catalog()
    assert named["paffenholz"].nfacets == 10
    for name in ("triangle", "trapezoid", "square", "pentagon", "hexagon"):
        assert is_monotone(named[name])
    # hexagon is DP_2 in fixed coordinates
    assert set(named["hexagon"].normals) == set(del_pezzo(2).normals)
    assert is_monotone(del_pezzo(4))
    assert not is_smooth(del_pezzo(3))[0]
    # central symmetry of del Pezzo polytopes
    for n in (2, 3, 4):
        d = del_pezzo(n)
        assert set(d.vertices()) == {tuple(-x for x in v) for v in d.vertices()}


def test_generate_dispatch():
    assert generate("simplex", (3,)).dim == 3
    assert generate("cube", (2,)) == cube(2)
    assert generate("ssb", (3, 2)) == ssb(3, 2)
    assert generate("t", (2,)) == nill_triangle(2)
    assert generate("paffenholz", ()) == paffenholz_p6()
    assert generate("hexagon", ()) == monotone_polygon("hexagon")
    with pytest.raises(ValueError):
        generate("nonsense", ())
    with pytest.raises(ValueError):
        generate("t", (0,))


def test_vertex_checks_cover_the_base_midpoints():
    # build_bundle checks the fiber's fan over the base vertices only: the
    # fan-preserving offsets form a convex cone and the offsets are affine
    # over the base, so no spec passes at every vertex and fails at a
    # midpoint of two vertices.  Vertex enumeration decides each point, and
    # the margin test build_bundle runs must agree with it at every one.
    from fractions import Fraction
    from itertools import combinations

    from ewaldkit.displace import _keeps_fan, _vertex_margin_constraints
    from ewaldkit.polytope import dot
    from neat_oracles import same_fan_same_rows

    rng = random.Random(20261018)
    bases = [segment(), monotone_polygon("triangle"), monotone_polygon("square"), monotone_polygon("hexagon")]
    fibers = [segment(), monotone_polygon("triangle"), monotone_polygon("pentagon"), del_pezzo(3)]
    assert not del_pezzo(3).is_simple()
    seen = {"rejected": 0, "accepted_perturbed": 0, "accepted_non_simple": 0}
    for _ in range(300):
        base, fiber = rng.choice(bases), rng.choice(fibers)
        # a lattice translation of the fiber along the base, with up to two
        # fiber rows perturbed in twist and shift
        lin = [[rng.randint(-1, 1) for _ in range(base.dim)] for _ in range(fiber.dim)]
        twist = [[sum(a * l[c] for a, l in zip(u, lin)) for c in range(base.dim)] for u in fiber.normals]
        shifts = [0] * fiber.nfacets
        perturbed = rng.choice((0, 1, 2))
        for _ in range(perturbed):
            j = rng.randrange(fiber.nfacets)
            twist[j] = [x + rng.randint(-1, 1) for x in twist[j]]
            shifts[j] += rng.randint(-1, 1)
        spec = BundleSpec(base=base, fiber=fiber, twist=tuple(map(tuple, twist)), shifts=tuple(shifts))

        constraints = _vertex_margin_constraints(fiber)

        def keeps_fan(x):
            b = [sh - dot(s, x) for sh, s in zip(spec.shifts, spec.twist)]
            offsets = [a + d for a, d in zip(fiber.offsets, b)]
            kept = same_fan_same_rows(fiber, offsets)
            assert _keeps_fan(constraints, b) == kept, (spec, x)
            return kept

        verts = base.vertices()
        if not all(keeps_fan(v) for v in verts):
            seen["rejected"] += 1
            continue
        seen["accepted_perturbed"] += perturbed > 0
        seen["accepted_non_simple"] += not fiber.is_simple()
        for a, b in combinations(verts, 2):
            assert keeps_fan(tuple(Fraction(x + y) / 2 for x, y in zip(a, b))), spec
    assert min(seen.values()) >= 20, seen
