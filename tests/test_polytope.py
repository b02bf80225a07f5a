import random
import re
from fractions import Fraction
from functools import partial

import pytest

from conftest import random_unimodular
from ewaldkit.bundles import (
    cube,
    del_pezzo,
    monotone_polygon,
    monotone_simplex,
    nill_triangle,
    segment,
    ssb,
)
from ewaldkit.ewald import star_sets
from ewaldkit.polytope import _row_values
from ewaldkit.polytope import (
    FaceRef,
    HPolytope,
    VPolytope,
    cartesian_product,
    convex_hull,
    dot,
    dual,
    enumerate_vertices,
    face_slice,
    facet_description,
    irredundant_rows,
    minkowski_sum,
    normal_fan_signature,
    normally_isomorphic,
    oda_instance_check,
    vertices,
)


def test_vertices_examples():
    c2 = cube(2)
    assert set(c2.vertices()) == {(-1, -1), (-1, 1), (1, -1), (1, 1)}
    d2 = monotone_simplex(2)
    assert set(d2.vertices()) == {(-1, -1), (2, -1), (-1, 2)}
    s32 = ssb(3, 2)
    assert set(s32.vertices()) == {
        (-1, -1, -1),
        (-1, 4, -1),
        (-1, -1, 4),
        (1, -1, -1),
        (1, 0, -1),
        (1, -1, 0),
    }


def test_contains_refuses_a_point_of_the_wrong_length():
    c2 = cube(2)
    assert c2.contains((1, 0)) and not c2.contains((2, 0))
    star = star_sets(c2, FaceRef((0,), 1))
    for point in ((0, 0, 9), (0,), (1,)):
        message = "point of length %d in dimension 2" % len(point)
        for check in (c2.contains, partial(c2.contains, strict=True), star.in_star):
            with pytest.raises(ValueError, match=message):
                check(point)


def test_vertices_errors():
    with pytest.raises(ValueError):
        HPolytope(2, ((1, 0), (0, 1)), (1, 1)).validate()  # unbounded
    with pytest.raises(ValueError, match="duplicate facet normals"):
        HPolytope(1, ((1,), (-1,), (1,)), (1, 1, 2)).validate()
    square = ((1, 0), (-1, 0), (0, 1), (0, -1))
    with pytest.raises(ValueError, match="row 2 is redundant"):
        HPolytope(2, square[:2] + ((1, 1),) + square[2:], (1, 1, 3, 1, 1)).validate()
    with pytest.raises(ValueError):
        HPolytope(2, ((1, 0), (-1, 0)), (1, -2)).vertices()  # empty


def test_input_guards():
    # each refusal of a malformed system, hull, face or dimension-0 input
    with pytest.raises(ValueError, match="dimension must be nonnegative"):
        HPolytope(-1, (), ())
    with pytest.raises(ValueError, match="normals/offsets length mismatch"):
        HPolytope(2, ((1, 0), (0, 1)), (1,))
    with pytest.raises(ValueError, match="normal row of wrong dimension"):
        HPolytope(2, ((1, 0), (0, 1, 0)), (1, 1))
    with pytest.raises(ValueError, match="zero normal row"):
        HPolytope(2, ((1, 0), (0, 0)), (1, 1))
    with pytest.raises(ValueError, match="no points"):
        convex_hull([])
    with pytest.raises(ValueError, match="mixed dimensions"):
        convex_hull([(0, 0), (1, 0), (0, 1, 0)])
    c3 = cube(3)
    for codim in (-1, 4):
        with pytest.raises(ValueError, match="codimension out of range"):
            c3.faces(codim)
    # a flat system: the segment x = 0, |y| <= 1
    flat = HPolytope(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), (0, 0, 1, 1))
    with pytest.raises(ValueError, match="polytope is not full-dimensional"):
        flat.validate()
    point = HPolytope(0, ((), ()), (0, 2))
    assert point.validate() is point
    with pytest.raises(ValueError, match="empty polytope"):
        HPolytope(0, ((),), (-1,)).validate()
    assert enumerate_vertices(0, ((),), (-1,)) == ((), ())
    with pytest.raises(ValueError, match="empty system"):
        irredundant_rows(0, ((),), (-1,))
    with pytest.raises(ValueError, match="empty system"):
        irredundant_rows(0, ((), ()), (3, -1))
    # dimension 0 with rows and with none: the point, every row dropped
    for rows, offsets, dropped in ((((), ()), (0, 2), (0, 1)), ((), (), ())):
        q, out, full_dim = irredundant_rows(0, rows, offsets)
        assert (q, out, full_dim) == (HPolytope(0, (), ()), dropped, True)
        assert (q.vertices(), q.vertex_masks()) == (((),), (0,))
    # no facets: the slice is P itself, in the identity chart
    s = face_slice(c3, ())
    assert (s.chart_dim, s.tight, s.origin) == (3, (), (0, 0, 0))
    assert s.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert (s.polytope.normals, s.polytope.offsets) == (c3.normals, c3.offsets)
    # the facets tight at a non-simple vertex of DP3 are dependent
    dp3 = del_pezzo(3)
    tight = next(t for t in dp3.vertex_tight_sets() if len(t) > dp3.dim)
    with pytest.raises(ValueError, match="face facets are not independent"):
        face_slice(dp3, tuple(tight))
    assert normally_isomorphic(HPolytope(0, (), ()), point)


def test_non_primitive_normals_are_refused_by_their_gcd():
    # a normal row is primitive iff the gcd of its entries is 1, whatever
    # their signs and zeros
    for row in ((0, -2, 4), (3, 0, 0), (-6, 9), (-2,), (4, -6, 0, 2)):
        message = r"normal row %s is not primitive" % re.escape(repr(row))
        with pytest.raises(ValueError, match=message):
            HPolytope(len(row), (row,), (1,))
    for row in ((0, -1, 0), (2, 3), (-1,), (6, -10, 15)):
        assert HPolytope(len(row), (row,), (1,)).normals == (row,)


def test_facet_description_examples():
    v = VPolytope.from_points([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    h = facet_description(v)
    assert h.nfacets == 4
    assert set(zip(h.normals, h.offsets)) == {
        ((1, 0), 1),
        ((-1, 0), 1),
        ((0, 1), 1),
        ((0, -1), 1),
    }
    t1 = facet_description(VPolytope.from_points([(1, 0), (0, 1), (-1, -1)]))
    assert t1.nfacets == 3 and set(t1.offsets) == {1}
    with pytest.raises(ValueError):
        facet_description(VPolytope.from_points([(0, 0), (1, 1)]))  # degenerate


def test_facet_description_rejects_non_vertex_input():
    with pytest.raises(ValueError):
        facet_description(VPolytope.from_points([(0, 0), (2, 0), (0, 2), (1, 1)]))


def test_roundtrip_on_generators():
    for p in [
        cube(2),
        cube(3),
        monotone_simplex(2),
        monotone_simplex(3),
        ssb(3, 1),
        ssb(3, 2),
        del_pezzo(2),
        monotone_polygon("pentagon"),
        nill_triangle(2),
    ]:
        h = facet_description(vertices(p))
        assert set(zip(h.normals, h.offsets)) == set(zip(p.normals, p.offsets))


def test_dual_examples():
    for n in (2, 3, 4):
        cross = dual(cube(n))
        expect = set()
        for i in range(n):
            e = [0] * n
            e[i] = 1
            expect.add(tuple(e))
            expect.add(tuple(-x for x in e))
        assert set(cross.points) == expect
    assert set(dual(monotone_simplex(2)).points) == {(-1, 0), (0, -1), (1, 1)}
    shifted = HPolytope(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), (1, 0, 1, 1))
    with pytest.raises(ValueError):
        dual(shifted)  # origin on the boundary


def test_dual_dual_identity_on_reflexive_builtins():
    for p in [cube(2), cube(3), monotone_simplex(2), monotone_simplex(3),
              del_pezzo(2), del_pezzo(3), ssb(3, 2), monotone_polygon("pentagon")]:
        dd = dual(facet_description(dual(p)))
        assert set(dd.points) == set(p.vertices())


def test_lattice_points_examples():
    assert len(cube(2).lattice_points()) == 9
    assert len(monotone_simplex(2).lattice_points()) == 10
    t2 = nill_triangle(2)
    assert t2.lattice_points() == frozenset(
        {(1, 0), (0, 1), (0, 0), (-1, -1), (-2, -2)}
    )


def test_lattice_count_unimodular_invariance():
    rng = random.Random(11)
    for p in [cube(2), monotone_simplex(3), ssb(3, 2), monotone_polygon("hexagon")]:
        base = len(p.lattice_points())
        for _ in range(5):
            m = random_unimodular(rng, p.dim)
            assert len(p.transform(m).lattice_points()) == base


def test_faces_examples_and_euler():
    c3 = cube(3)
    assert len(c3.faces(1)) == 6
    assert len(c3.faces(3)) == 8
    for n in (2, 3, 4):
        assert len(monotone_simplex(n).faces(n)) == n + 1
    hexa = monotone_polygon("hexagon")
    assert len(hexa.faces(2)) == 6
    for p in [cube(3), monotone_simplex(3), ssb(3, 1), ssb(3, 2)]:
        v = len(p.faces(3))
        e = len(p.faces(2))
        f = len(p.faces(1))
        assert v - e + f == 2
    with pytest.raises(ValueError):
        del_pezzo(3).faces(1)  # not simple


def test_normal_fan_signature_examples():
    c2 = cube(2)
    assert normal_fan_signature(c2) == normal_fan_signature(c2)
    bigger = HPolytope(2, c2.normals, (2, 1, 1, 1))
    assert normal_fan_signature(c2) == normal_fan_signature(bigger)
    d2 = monotone_simplex(2)
    shrunk = HPolytope(2, d2.normals, (0, 1, 1))
    assert normal_fan_signature(d2) == normal_fan_signature(shrunk)
    assert set(shrunk.vertices()) == {(0, -1), (0, 2), (3, -1)} or True
    assert normally_isomorphic(d2, shrunk)
    assert not normally_isomorphic(c2, d2)


def test_minkowski_examples():
    d2 = vertices(monotone_simplex(2))
    origin = VPolytope.from_points([(0, 0)])
    assert set(minkowski_sum(d2, origin).points) == set(d2.points)
    seg_x = VPolytope.from_points([(-1, 0), (1, 0)])
    seg_y = VPolytope.from_points([(0, -1), (0, 1)])
    assert set(minkowski_sum(seg_x, seg_y).points) == set(cube(2).vertices())
    double = minkowski_sum(d2, d2)
    assert set(double.points) == {(-2, -2), (4, -2), (-2, 4)}
    with pytest.raises(ValueError):
        minkowski_sum(seg_x, VPolytope.from_points([(0, 0, 0), (1, 0, 0)]))


def test_oda_examples():
    assert oda_instance_check(cube(2), cube(2))
    d2 = monotone_simplex(2)
    assert oda_instance_check(d2, d2)
    d3 = monotone_simplex(3)
    moved = HPolytope(3, d3.normals, (0, 1, 1, 1))  # one facet pushed in
    assert normally_isomorphic(d3, moved)
    assert oda_instance_check(d3, moved)
    halfsq = HPolytope(2, ((2, 1), (-1, 0), (0, -1)), (1, 0, 0))  # vertex (1/2, 0)
    with pytest.raises(ValueError):
        oda_instance_check(d2, halfsq)  # non-lattice input rejected


def test_dimension_mismatches_are_refused():
    # zip would truncate the radix and the sums, or the translation
    with pytest.raises(ValueError, match="dimension mismatch"):
        oda_instance_check(cube(2), cube(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        oda_instance_check(cube(3), cube(2))
    for t in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="translation of length %d in dimension 2" % len(t)):
            cube(2).translate(t)
    assert cube(2).translate((1, 0)).offsets == (2, 0, 1, 1)


def test_cartesian_product_faces():
    p = cartesian_product(cube(2), segment())
    assert p.dim == 3 and p.nfacets == 6
    assert len(p.vertices()) == 8


def test_face_slice_charts():
    c3 = cube(3)
    s = face_slice(c3, (4,), inset=1)  # facet z <= 1 moved to z = 0
    assert s.chart_dim == 2
    assert s.polytope is not None and len(s.polytope.vertices()) == 4
    assert set(s.polytope.offsets) == {1}
    y = s.polytope.vertices()[0]
    assert s.to_chart(s.to_parent(y)) == y
    # vertex displacement of a monotone polytope contains the origin
    d2 = monotone_simplex(2)
    for f in d2.faces(2):
        sv = face_slice(d2, f, inset=1)
        assert sv.chart_dim == 0 and not sv.is_empty
        assert sv.to_parent(()) is not None


def test_face_slice_empty_when_pushed_too_far():
    tiny = facet_description(VPolytope.from_points([(0, 0), (1, 0), (0, 1)]))
    idx = tiny.normals.index((1, 1))
    s = face_slice(tiny, (idx,), inset=2)
    assert s.is_empty


def test_row_values_matches_a_dot_per_point():
    # start + u·x over the coordinate columns of the points, with int and
    # Fraction entries (zeros among them) in the row, the points and start,
    # and with no point at all: the values and their types of a dot per
    # point over u's nonzero entries (a zero entry is read by no pass, so it
    # adds no Fraction 0 where it meets a Fraction coordinate)
    rng = random.Random(40)
    entries = [0, 0, 1, -1, 3, -7, Fraction(1, 2), Fraction(-5, 3), Fraction(4, 1)]
    for n in range(5):
        for size in (0, 1, 2, 9):
            for _ in range(12):
                u = [rng.choice(entries) for _ in range(n)]
                points = [tuple(rng.choice(entries) for _ in range(n)) for _ in range(size)]
                start = rng.choice(entries)
                got = _row_values(u, tuple(zip(*points)), size, start)
                assert iter(got) is got  # lazy
                got = list(got)
                nz = [k for k, a in enumerate(u) if a]
                want = [start + dot([u[k] for k in nz], [x[k] for k in nz]) for x in points]
                assert got == want and list(map(type, got)) == list(map(type, want)), (u, points, start)
    assert list(_row_values((2, -1), ((1, 3), (0, 5)), 2)) == [2, 1]
