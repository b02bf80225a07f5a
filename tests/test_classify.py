import importlib
import inspect
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from classify_oracles import recharted_slice_ut_free, scanned_ut_free
from conftest import random_unimodular, smooth_suite, workload_items
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
from ewaldkit.classify import (
    _is_unimodular_triangle_face,
    _slice_ut_free,
    _triangles,
    _two_faces,
    _ut_free_region,
)
from ewaldkit.fileio import parse_polytope, serialize_polytope
from ewaldkit.polytope import (
    HPolytope,
    cartesian_product,
    dot,
    face_slice,
    facet_description,
)
from lattice_oracles import chart_vertices, points_affine_rank

# the package re-exports the function classify under the submodule's name
classify_module = importlib.import_module("ewaldkit.classify")
polytope_module = importlib.import_module("ewaldkit.polytope")


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
    # exactly 3 of P's lattice points lie on it; the triangles read off the
    # edge graph are the 2-faces with 3 vertices, with their vertex masks
    polys = [p for p in catalog().values() if 2 <= p.dim <= 4]
    polys += [smooth_simplex(3, 1), smooth_simplex(4, 1)]
    polys += smooth_suite(random.Random(5), max_dim=4, count=20)
    seen = set()
    for p in polys:
        pts = p.lattice_points()
        triangles = dict(_triangles(p))
        three = []
        for f in p.faces(p.dim - 2):
            tight = f
            verts = [k for k, t in enumerate(p.vertex_tight_sets()) if set(tight) <= t]
            npts = sum(1 for x in pts if all(dot(p.normals[i], x) == p.offsets[i] for i in tight))
            if len(verts) == 3:
                three.append(tight)
                assert triangles[tight] == sum(1 << k for k in verts), (p, tight)
            got = tight in triangles and _is_unimodular_triangle_face(p, triangles[tight])
            assert got == (len(verts) == 3 and npts == 3), (p, tight)
            seen.add(got)
        assert sorted(triangles) == three, p
    assert seen == {True, False}


def test_the_ut_witness_is_the_least_unimodular_triangle():
    # the witness names the least facet tuple, the first of faces(n − 2),
    # in dimension 2 (the polygon itself) and in dimensions 3 and 4
    cases = [
        (smooth_simplex(2, 1), ()),
        (smooth_simplex(2, 1).transform(((1, 1), (0, 1))), ()),
        (smooth_simplex(3, 1), (0,)),
        (blown_up_tetrahedron(), (3,)),
        (ssb(3, 2), (3,)),
        (smooth_simplex(4, 1), (0, 1)),
        (ssb(4, 3), (1, 4)),
        (del_pezzo(4), (0, 2)),
    ]
    for p, tight in cases:
        assert is_ut_free(p) == (False, tight), p
        assert scanned_ut_free(p) == (False, tight), p
    # the unimodular triangles of the blown-up tetrahedron meet vertex 0 on
    # a later facet: the witness is not the first triangle read
    p = blown_up_tetrahedron()
    at_zero = [t for t, verts in _triangles(p) if verts & 1 and _is_unimodular_triangle_face(p, verts)]
    assert at_zero and min(at_zero) > (3,)
    for p in (smooth_simplex(3, 2), monotone_simplex(4), cube(4), nill_triangle(1)):
        assert is_ut_free(p) == (True, None), p


def test_ut_freeness_walks_no_faces():
    # is_ut_free reads the edge graph: on a fresh cube(6) (728 faces) and a
    # GL image of hexagon^3 (216 vertices) the face walk never runs
    hexagon = monotone_polygon("hexagon")
    cubed = cartesian_product(cartesian_product(hexagon, hexagon), hexagon)
    polys = [cube(6), cubed.transform(random_unimodular(random.Random(38), 6))]
    walk = inspect.unwrap(polytope_module._walk_faces).__code__
    for p in polys:
        q = parse_polytope(serialize_polytope(p)).polytope
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is walk:
                calls.append(frame)

        sys.setprofile(profile)
        try:
            ok, face = is_ut_free(q)
        finally:
            sys.setprofile(None)
        assert not calls, p
        assert (ok, face) == scanned_ut_free(q), p
    assert not hasattr(classify_module, "_walk_faces")


def _ut_inputs():
    """The catalog and two GL(n, Z) images of each member, the products
    among the check workload's inputs, and cube(9)."""
    rng = random.Random(26)
    out = []
    for p in catalog().values():
        out += [p] + [p.transform(random_unimodular(rng, p.dim)) for _ in range(2)]
    out += [parse_polytope(item.texts[0]).polytope for item in workload_items("check", 1) if "_x_" in item.label]
    return out + [cube(9)]


def test_ut_free_matches_the_per_face_vertex_scan():
    verdicts = set()
    for p in _ut_inputs():
        want = scanned_ut_free(p)
        verdicts.add(want[0])
        assert _ut_free_region(p) == want[0], p
        if p.is_simple():
            ok, face = is_ut_free(p)
            assert (ok, face) == want, p
            assert face is None or len(face) == p.dim - 2
    assert verdicts == {True, False}
    # not simple: only the region test is defined
    cross4 = HPolytope(4, list(product((-1, 1), repeat=4)), [1] * 16)
    for p in (del_pezzo(3), del_pezzo(5), cross4):
        assert not p.is_simple()
        assert _ut_free_region(p) == scanned_ut_free(p)[0], p
        with pytest.raises(ValueError, match="simple"):
            is_ut_free(p)


def test_ut_free_slices_match_the_per_face_vertex_scan(monkeypatch):
    # every region _slice_ut_free tests, over the inset-1 slices of every
    # face of the catalog's lattice smooth members
    seen = []

    def recorded(q):
        seen.append(q)
        return _ut_free_region(q)

    monkeypatch.setattr(classify_module, "_ut_free_region", recorded)
    for p in catalog().values():
        if is_smooth(p)[0] and p.is_lattice():
            for codim in range(1, p.dim + 1):
                for f in p.faces(codim):
                    _slice_ut_free(face_slice(p, f, inset=1))
    assert any(not q.is_simple() for q in seen)
    verdicts = [_ut_free_region(q) for q in seen]
    assert verdicts == [scanned_ut_free(q)[0] for q in seen]
    assert set(verdicts) == {True, False}


def test_the_2_face_loop_reads_the_vertex_masks_a_bounded_number_of_times(monkeypatch):
    reads = []
    vertex_masks = HPolytope.vertex_masks

    def counted(self):
        reads.append(self)
        return vertex_masks(self)

    monkeypatch.setattr(HPolytope, "vertex_masks", counted)
    for p, ut_free in ((cube(6), is_ut_free), (del_pezzo(5), _ut_free_region)):
        p = HPolytope(p.dim, p.normals, p.offsets)
        p.vertices()
        reads.clear()
        ut_free(p)
        assert len(reads) <= 4, (p, len(reads))
        assert sum(1 for _ in _two_faces(p)) > 100  # far more 2-faces than reads


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


def test_each_first_displacement_is_charted_once(monkeypatch):
    # the fan and UT-free characterizations read one chart per face; where
    # both hold on every face, each face is charted exactly once
    from ewaldkit import classify as cl

    charted = []
    real = cl.face_slice
    monkeypatch.setattr(cl, "face_slice", lambda p, f, inset=0: charted.append((f, inset)) or real(p, f, inset))
    for p, holds in ((monotone_simplex(3), True), (cube(3), True), (ssb(3, 1), True), (smooth_simplex(3, 2), False)):
        charted.clear()
        assert deeply_smooth_characterizations_agree(p) == (holds,) * 3
        firsts = [f for f, inset in charted if inset == 1]
        faces = [f for codim in range(1, p.dim + 1) for f in p.faces(codim)]
        assert len(firsts) == len(set(firsts)) and set(firsts) <= set(faces)
        if holds:
            assert len(firsts) == len(faces)


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
                ranks.append(points_affine_rank(s))
                assert not _slice_ut_free(s), (p.normals, f)
    assert ranks.count(3) == 6 and ranks.count(2) == 14
    # moved by half a unit along every axis, the region of facet 0 has no
    # integer vertex, so there is no lattice triangle to find
    moved = cartesian_product(tri, tet).translate((Fraction(1, 2),) * 5)
    s = face_slice(moved, (0,), inset=1)
    assert s.polytope is None and not any(all(isinstance(x, int) for x in v) for v in s.region.vertices())
    assert _slice_ut_free(s) and not _slice_ut_free(face_slice(cartesian_product(tri, tet), (0,), inset=1))


def _degenerate_slices():
    """The nonempty lower-dimensional slices at insets 1 and 2 of every face
    of the products of smooth simplices up to dimension 5, of seeded
    GL(n, Z) images of a third of them, and of a third of them moved by
    half a unit along e_1, whose regions may have no integer vertex."""
    rng = random.Random(41)
    simplices = [smooth_simplex(n, k) for n in (1, 2, 3) for k in (1, 2)]
    products = [cartesian_product(a, b) for a in simplices for b in simplices if a.dim + b.dim <= 5]
    inputs = products + [p.transform(random_unimodular(rng, p.dim)) for p in products[::3]]
    inputs += [p.translate((Fraction(1, 2),) + (0,) * (p.dim - 1)) for p in products[1::3]]
    slices = (face_slice(p, f, inset) for p in inputs for inset in (1, 2) for c in range(1, p.dim + 1) for f in p.faces(c))
    return [s for s in slices if s.polytope is None and not s.is_empty]


def test_degenerate_regions_match_their_recharted_span_and_build_no_hull(monkeypatch):
    # a lower-dimensional region is read at its own dimension off the
    # incidence its enumeration found: no hull, kernel or vertex enumeration
    slices = _degenerate_slices()

    def built(*args):
        raise AssertionError("a degenerate slice was re-charted")

    for module in (polytope_module, classify_module, importlib.import_module("ewaldkit.intlinalg")):
        for name in ("convex_hull", "kernel_basis", "enumerate_vertices"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, built)
    verdicts = [_slice_ut_free(s) for s in slices]
    monkeypatch.undo()
    assert verdicts == [recharted_slice_ut_free(s) for s in slices]
    assert set(verdicts) == {True, False} and len(slices) > 800
    integral = [any(all(isinstance(x, int) for x in v) for v in chart_vertices(s)) for s in slices]
    assert not all(integral) and {points_affine_rank(s) for s in slices} >= {1, 2, 3}


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
    tri = facet_description([(2, 0), (0, 1), (-2, -1)])
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
