import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from conftest import random_unimodular, smooth_suite
from ewaldkit.bundles import (
    cube,
    del_pezzo,
    monotone_polygon,
    monotone_simplex,
    neat_transfer_bundle_check,
    nill_triangle,
    segment,
    smooth_simplex,
    ssb,
)
from ewaldkit.classify import is_deeply_smooth, is_monotone, is_reflexive, is_ut_free
from ewaldkit.displace import (
    displace,
    displacement_slice,
    first_displacement,
    is_neat,
    normally_isomorphic_displacements,
)
from ewaldkit.polytope import (
    FaceRef,
    HPolytope,
    cartesian_product,
    convex_hull,
    face_slice,
    normally_isomorphic,
)
from neat_oracles import enumerated_displacements


def test_displace_examples():
    c2 = cube(2)
    assert displace(c2, (0, 0, 0, 0)).offsets == c2.offsets
    flags = displace(c2, (-1, -1, -1, -1)).analyze()
    assert flags["nonempty"] and not flags["full_dim"]  # collapses to {0}
    d2 = monotone_simplex(2)
    grown = displace(d2, (1, 1, 1))
    assert grown.analyze()["normally_isomorphic_to_parent"]
    assert grown.as_hpolytope().vertices() == tuple(
        tuple(2 * x for x in v) for v in d2.vertices()
    )
    with pytest.raises(ValueError):
        displace(c2, (1, 0))


def test_displace_refuses_a_non_integer_entry():
    c2 = cube(2)
    for b, index in (((Fraction(3, 2), 0, 0, 0), 0), ((0, 0, 0.5, 0), 2)):
        with pytest.raises(ValueError, match="entry %d" % index):
            displace(c2, b)
    assert displace(c2, (Fraction(2), 1.0, 0, -1)).b == (2, 1, 0, -1)


def test_displace_roundtrip():
    c2 = cube(2)
    b = (1, 2, 0, 1)
    forth = displace(c2, b)
    back = tuple(c - d for c, d in zip(forth.offsets, b))
    assert back == c2.offsets


def test_first_displacement_examples():
    c3 = cube(3)
    f0 = first_displacement(c3, FaceRef((4,), 1))  # z <= 1
    assert f0.dim == 2 and len(f0.vertices()) == 4 and set(f0.offsets) == {1}
    # UT-free monotone: facet displacements stay reflexive and keep the fan
    for p in [monotone_simplex(3), cube(3), ssb(3, 1), ssb(4, 2)]:
        assert is_ut_free(p)[0]
        for f in p.faces(1):
            facet_poly = face_slice(p, f, inset=0).polytope
            disp = first_displacement(p, f)
            assert is_reflexive(disp)
            assert normally_isomorphic(facet_poly, disp)
            assert is_monotone(disp)
    # Example-4.4 slice of SSB(n, n-1) is reflexive but not smooth
    from ewaldkit.classify import is_smooth

    s = first_displacement(ssb(3, 2), FaceRef((2,), 1))
    assert is_reflexive(s) and not is_smooth(s)[0]


def test_first_displacement_errors():
    tiny = smooth_simplex(2, 1)
    idx = tiny.normals.index((1, 1))
    with pytest.raises(ValueError, match="vanish|lower-dimensional"):
        first_displacement(tiny, FaceRef((idx,), 1))
    with pytest.raises(ValueError):
        first_displacement(nill_triangle(2), FaceRef((0,), 1))  # not smooth


def test_displacement_transitivity():
    # displacing a face inside P agrees with displacing it inside a containing
    # facet, after aligning charts by vertex sets in parent coordinates
    for p in [monotone_simplex(3), cube(3), ssb(3, 1)]:
        for f in p.faces(2):
            i, j = f.tight
            direct = displacement_slice(p, f)
            # displace facet i first, then the image of facet j inside it
            fslice = face_slice(p, (i,), inset=1)
            sub = fslice.polytope
            direct_parent = {direct.to_parent(y) for y in direct.chart_vertices}
            # the inner displacement inside the facet's chart
            inner_rows = [
                ri for ri, (u, c) in enumerate(zip(sub.normals, sub.offsets))
            ]
            # identify the row of `sub` that is facet j's image: the one whose
            # parent pullback coincides with u_j on the chart
            uj = p.normals[j]
            target = None
            for ri, u in enumerate(sub.normals):
                chart_uj = tuple(
                    sum(uj[t] * fslice.basis[r][t] for t in range(p.dim))
                    for r in range(len(fslice.basis))
                )
                from ewaldkit.intlinalg import primitive_part

                if any(chart_uj) and primitive_part(chart_uj) == u:
                    target = ri
                    break
            assert target is not None
            inner = face_slice(sub, (target,), inset=1)
            inner_parent = {
                fslice.to_parent(inner.to_parent(y)) for y in inner.chart_vertices
            }
            assert direct_parent == inner_parent, (p, f)


def test_deeply_smooth_closed_under_face_displacement():
    for p in [monotone_simplex(3), cube(3), ssb(3, 1), smooth_simplex(3, 3)]:
        assert is_deeply_smooth(p)[0]
        for codim in range(1, p.dim):
            for f in p.faces(codim):
                disp = first_displacement(p, f)
                if disp.dim >= 1:
                    assert is_deeply_smooth(disp)[0]


def test_enumeration_matches_brute_force():
    for p, r in [
        (cube(2), 1),
        (monotone_simplex(2), 1),
        (monotone_polygon("pentagon"), 1),
        (monotone_polygon("hexagon"), 1),
        (ssb(2, 1), 1),
        (monotone_simplex(3), 1),
        (ssb(3, 2), 1),
        (smooth_simplex(2, 3), 1),
    ]:
        assert list(normally_isomorphic_displacements(p, r)) == enumerated_displacements(p, r)


def test_enumeration_matches_brute_force_on_non_simple_inputs():
    # the equalities on the tight rows beyond a basis at each non-simple
    # vertex: apexes of pyramids, equators of bipyramids, the vertices of DP3
    rng = random.Random(20261018)
    dp3 = del_pezzo(3)
    pyramid = convex_hull([(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)])
    bipyramid = convex_hull([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)])
    cases = [(dp3, 1)] + [(dp3.transform(random_unimodular(rng, 3)), 1) for _ in range(2)]
    for p in (pyramid, bipyramid):
        for q in (p, p.translate((1, -2, 0)), p.translate((Fraction(1, 2), 0, Fraction(-1, 3)))):
            cases.append((q, 1))
    cases += [(pyramid, 2), (pyramid.translate((0, 1, -1)), 2)]
    cases.append((cartesian_product(pyramid, segment()), 1))
    for p, r in cases:
        assert not p.is_simple()
        got = list(normally_isomorphic_displacements(p, r))
        assert got == enumerated_displacements(p, r), (p.normals, p.offsets, r)
        assert len(got) > 1


def test_enumeration_examples():
    c2 = cube(2)
    assert list(normally_isomorphic_displacements(c2, 0)) == [(0, 0, 0, 0)]
    got = set(normally_isomorphic_displacements(c2, 1))
    # the box survives iff each opposite pair keeps positive width
    expected = {
        b
        for b in iproduct((-1, 0, 1), repeat=4)
        if b[0] + b[1] > -2 and b[2] + b[3] > -2
    }
    assert got == expected


def test_is_neat_examples():
    for n in (1, 2, 3):
        assert not is_neat(monotone_simplex(n) if n > 1 else segment(), 2).is_counterexample
    assert not is_neat(cube(2), 2).is_counterexample
    assert not is_neat(cube(3), 2).is_counterexample
    for name in ("triangle", "trapezoid", "square", "pentagon", "hexagon"):
        assert not is_neat(monotone_polygon(name), 2).is_counterexample
    with pytest.raises(ValueError):
        is_neat(cube(2), -1)
    with pytest.raises(ValueError):
        is_neat(nill_triangle(1), 1)  # not smooth


def test_is_neat_counterexample_monotone_in_radius():
    # a lattice smooth polytope that is NOT neat at radius 1: the segment
    # [0, 1] has P_b = [b1', 1+b2'] and choosing b = (0, -1) ... use a shifted
    # segment where the symmetric intersection can be pushed off the lattice.
    seg01 = HPolytope(1, ((1,), (-1,)), (1, 0))  # [0, 1]
    v1 = is_neat(seg01, 1)
    v2 = is_neat(seg01, 2)
    if v1.is_counterexample:
        assert v2.is_counterexample
        assert v2.witness_b <= v1.witness_b
    # the monotone segment is neat at any tested radius
    assert not is_neat(segment(), 3).is_counterexample


def test_neat_transfer_examples():
    assert neat_transfer_bundle_check(segment(), monotone_simplex(2), ((0,), (0,), (1,)), 1)
    assert neat_transfer_bundle_check(segment(), segment(), ((0,), (0,)), 1)
    assert neat_transfer_bundle_check(
        monotone_polygon("hexagon"), segment(), ((0, 0), (1, 1)), 1
    )


def test_smooth_displacements_stay_smooth(rng):
    # fan-preserving displacements of smooth polytopes are smooth lattice
    from ewaldkit.classify import is_smooth

    for p in smooth_suite(rng, max_dim=3, count=8):
        if not p.origin_interior():
            continue
        for b in list(normally_isomorphic_displacements(p, 1))[:10]:
            q = displace(p, b).as_hpolytope()
            assert is_smooth(q)[0] and q.is_lattice()
