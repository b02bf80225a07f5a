import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from classify_oracles import adjacency_edge_directions
from conftest import random_unimodular
from ewaldkit.bundles import (
    catalog,
    cube,
    del_pezzo,
    monotone_polygon,
    monotone_simplex,
    nill_triangle,
    paffenholz_p6,
    segment,
    smooth_simplex,
    ssb,
)
from ewaldkit.classify import is_deeply_smooth, is_monotone
from ewaldkit.counting import FacetEwaldSplit, facet_ewald_split
from ewaldkit.displace import displacement_slice, first_displacement
from ewaldkit.ewald import (
    StrongEwaldResult,
    deeply_smooth_origin_vertex_basis,
    dim3_origin_edge_basis,
    ewald_set,
    fs_property,
    nill2d_basis,
    star_ewald,
    star_ewald_face,
    star_sets,
    strong_ewald,
    verify_origin_next_to,
    weak_ewald,
)
from ewaldkit.intlinalg import _basis_search, det, mat_vec
from ewaldkit.polytope import (
    FaceRef,
    HPolytope,
    VPolytope,
    cartesian_product,
    convex_hull,
    dot,
    facet_description,
)
from lattice_oracles import cube_normalization, in_star, in_star_lower, in_star_star
from linalg_oracles import find_unimodular_basis

POLYGONS = ["triangle", "trapezoid", "square", "pentagon", "hexagon"]


def brute_ewald(p):
    # independent oracle: raw box scan over P's bounding box
    from itertools import product as iproduct
    from math import ceil, floor

    lo, hi = p.bounding_box()
    pts = set()
    for cand in iproduct(*[range(ceil(a), floor(b) + 1) for a, b in zip(lo, hi)]):
        if p.contains(cand) and p.contains(tuple(-x for x in cand)):
            pts.add(cand)
    return pts


def test_ewald_set_examples():
    assert ewald_set(segment()).points == {(-1,), (0,), (1,)}
    assert len(ewald_set(monotone_simplex(2))) == 7
    for n in (1, 2, 3, 4):
        assert len(ewald_set(cube(n))) == 3**n


def test_ewald_set_matches_brute_force_oracle():
    for p in [monotone_simplex(2), monotone_simplex(3), cube(3), ssb(3, 2),
              del_pezzo(2), del_pezzo(3), nill_triangle(2),
              monotone_polygon("pentagon"), smooth_simplex(2, 3)]:
        assert ewald_set(p).points == frozenset(brute_ewald(p))


def test_ewald_negation_closed_and_unimodular_covariant(rng):
    for p in [monotone_simplex(3), ssb(3, 2), monotone_polygon("hexagon")]:
        e = ewald_set(p)
        assert all(tuple(-x for x in q) in e.points for q in e.points)
        m = random_unimodular(rng, p.dim)
        e2 = ewald_set(p.transform(m))
        assert e2.points == frozenset(mat_vec(m, q) for q in e.points)


def test_cube_normalization_bound():
    # after the corner normalization every Ewald point is a sign vector
    for p in [monotone_simplex(3), ssb(3, 2), del_pezzo(2), paffenholz_p6()]:
        m = cube_normalization(p)
        for q in ewald_set(p).points:
            assert all(abs(x) <= 1 for x in mat_vec(m, q))


def test_weak_ewald_examples():
    for p in [monotone_simplex(2), monotone_simplex(3), cube(3), ssb(3, 1)]:
        ok, basis = weak_ewald(p)
        assert ok and abs(det(basis)) == 1
        assert all(b in ewald_set(p).points for b in basis)
    for a in (1, 2, 3):
        ok, basis = weak_ewald(nill_triangle(a))
        assert not ok and basis is None
    with pytest.raises(ValueError):
        weak_ewald(smooth_simplex(2, 2))  # origin not interior


def test_strong_ewald_examples():
    for p in [cube(2), cube(3), monotone_simplex(3), ssb(3, 2), ssb(4, 3)]:
        res = strong_ewald(p)
        assert res.ok and res.failing_facet is None
        for i, basis in enumerate(res.bases):
            u, c = p.normals[i], p.offsets[i]
            assert abs(det(basis)) == 1
            assert all(dot(u, b) == c for b in basis)


def _unguarded_strong(p):
    # every facet searched exhaustively over its λ in scan order, height or not
    order = ewald_set(p).ordered()
    bases = []
    for i, (u, c) in enumerate(zip(p.normals, p.offsets)):
        basis = _basis_search([lam for lam in order if dot(u, lam) == c], p.dim)
        bases.append(basis)
        if basis is None:
            return StrongEwaldResult(False, tuple(bases), i)
    return StrongEwaldResult(True, tuple(bases), None)


def _with_offsets(p, offsets):
    return HPolytope(p.dim, p.normals, offsets)


def test_strong_ewald_searches_only_facets_at_height_one():
    # c_F divides the determinant of any n lattice points of F, so a facet
    # off height 1 fails with no search; an exhaustive search backtracks
    # through every partial basis of its λ and does not finish on [−2, 2]^5
    for n in (4, 5):
        res = strong_ewald(_with_offsets(cube(n), (2,) * 2 * n))
        assert res == StrongEwaldResult(False, (None,), 0)
    cases = [_with_offsets(cube(n), (k,) * 2 * n) for n, k in ((2, 2), (3, 2), (2, 3))]
    cases += [
        _with_offsets(cube(2), (1, 1, 1, 2)),  # the last facet alone is high
        _with_offsets(cube(3), (1, 1, 1, Fraction(3, 2), 1, 2)),  # no λ on facet 3
        _with_offsets(monotone_simplex(2), (1, 2, 1)),
    ]
    cases += list(catalog().values())
    for p in cases:
        assert strong_ewald(p) == _unguarded_strong(p), p


def test_star_sets_examples():
    c2 = cube(2)
    facet = FaceRef((0,), 1)
    ss = star_sets(c2, facet)
    assert ss.star_facets == (0,) and ss.ridges == ()
    # for a facet, Star = Star* = F
    for x in [(1, 0), (1, 1)]:
        assert in_star(c2, ss, x) and in_star_star(c2, ss, x)
    assert not in_star(c2, ss, (0, 1))
    vertex = FaceRef((0, 2), 2)
    sv = star_sets(c2, vertex)
    assert len(sv.ridges) == 1
    assert in_star_lower(c2, sv, (1, 1))
    assert in_star_star(c2, sv, (1, 0)) and in_star_star(c2, sv, (0, 1))
    c3 = cube(3)
    edge = FaceRef((0, 2), 2)
    se = star_sets(c3, edge)
    assert len(se.star_facets) == 2 and len(se.ridges) == 1
    with pytest.raises(ValueError):
        star_sets(c2, FaceRef((0, 1), 2))  # opposite facets meet nowhere
    # a repeated facet names no face: facet 0 must not count twice; the face
    # may be given as a FaceRef or as facet indices
    for fn in (star_sets, star_ewald_face, verify_origin_next_to):
        for bad in (FaceRef((0, 0), 2), FaceRef((0, 1), 2), (0, 0), (0, 1), (0, 9)):
            with pytest.raises(ValueError, match="invalid face"):
                fn(c2, bad)
    for face in ((0, 2), (2, 0)):
        by_indices = star_sets(c3, face)
        assert (by_indices.star_facets, by_indices.ridges) == ((0, 2), se.ridges)
        assert in_star_star(c3, by_indices, (1, 0, 0)) and in_star_lower(c3, by_indices, (1, 1, 0))
    assert star_ewald_face(c3, (0,)) == star_ewald_face(c3, FaceRef((0,), 1))


def test_star_ewald_examples():
    for name in POLYGONS:
        ok, failing = star_ewald(monotone_polygon(name))
        assert ok, (name, failing)
    for n in (2, 3):
        assert star_ewald(cube(n))[0]
    # facet of C_n is star Ewald with an axis witness
    ok, lam = star_ewald_face(cube(3), FaceRef((0,), 1))
    assert ok and dot((1, 0, 0), lam) == 1


def test_paffenholz_star_failure():
    p6 = paffenholz_p6()
    assert strong_ewald(p6).ok
    ok, failing = star_ewald(p6)
    assert not ok
    assert failing.codim == 6
    assert failing.tight == (1, 2, 4, 5, 8, 9)  # printed positions 2,3,5,6,9,10
    assert p6.face_vertices(failing) == ((14, -1, -1, 6, -1, -1),)


def test_fs_property():
    for p in [monotone_simplex(2), monotone_simplex(4), cube(3), ssb(4, 3)]:
        assert fs_property(p)
    with pytest.raises(ValueError):
        fs_property(nill_triangle(1))  # reflexive but not monotone


def test_weak_implies_fs_on_monotone(rng):
    suite = [monotone_polygon(n) for n in POLYGONS]
    suite += [monotone_simplex(3), cube(3), ssb(3, 1), ssb(3, 2), del_pezzo(4)]
    for p in suite:
        if weak_ewald(p)[0]:
            assert fs_property(p)


def test_product_laws():
    # E(P x Q) = E(P) x E(Q) and flag conjunction, over polygon/segment pairs
    members = [segment()] + [monotone_polygon(n) for n in POLYGONS]
    for a, b in combinations_with_replacement(members, 2):
        prod = cartesian_product(a, b)
        ea, eb, ep = ewald_set(a), ewald_set(b), ewald_set(prod)
        assert ep.points == frozenset(x + y for x in ea.points for y in eb.points)
        assert weak_ewald(prod)[0] == (weak_ewald(a)[0] and weak_ewald(b)[0])
        assert strong_ewald(prod).ok == (strong_ewald(a).ok and strong_ewald(b).ok)
        assert star_ewald(prod)[0] == (star_ewald(a)[0] and star_ewald(b)[0])


def test_deeply_monotone_strong_star_and_edge_vectors():
    # deeply monotone catalog members satisfy strong + star, and each vertex's
    # edge vectors u1, u2 lie in E(P) with u1+u2 or u1-u2 in E(P)
    for p in [monotone_simplex(2), monotone_simplex(3), cube(2), cube(3),
              ssb(3, 1), monotone_polygon("hexagon"), monotone_polygon("pentagon")]:
        assert is_deeply_smooth(p)[0]
        assert strong_ewald(p).ok
        assert star_ewald(p)[0]
        e = ewald_set(p)
        for vi in range(len(p.vertices())):
            dirs = adjacency_edge_directions(p, vi)
            assert all(d in e.points for d in dirs)
            for u1, u2 in combinations_with_replacement(dirs, 2):
                if u1 == u2:
                    continue
                plus = tuple(a + b for a, b in zip(u1, u2))
                minus = tuple(a - b for a, b in zip(u1, u2))
                assert plus in e.points or minus in e.points


def test_nill2d_examples():
    for name in POLYGONS:
        got = nill2d_basis(monotone_polygon(name))
        assert got is not None and abs(det(got)) == 1
    assert nill2d_basis(nill_triangle(3)) is None
    b = nill2d_basis(cube(2))
    assert b is not None and abs(det(b)) == 1
    e = ewald_set(cube(2))
    assert all(x in e.points for x in b)


def random_lattice_polygon_with_origin(rng):
    while True:
        pts = {(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 8))}
        try:
            hull = convex_hull(pts, 2)
        except ValueError:
            continue
        if hull.origin_interior():
            return hull


def test_quasi_smooth_implies_ewald_basis_randomized(rng):
    # contrapositive of the dimension-2 result: E = {0} forces non-quasi-smooth
    from ewaldkit.classify import is_quasi_smooth_polygon

    found = 0
    trials = 0
    while found < 30 and trials < 4000:
        trials += 1
        p = random_lattice_polygon_with_origin(rng)
        e = ewald_set(p)
        if e.points == {(0, 0)}:
            assert not is_quasi_smooth_polygon(p)
            continue
        if is_quasi_smooth_polygon(p):
            found += 1
            got = nill2d_basis(p)
            assert got is not None and abs(det(got)) == 1
            assert all(x in e.points for x in got)
    assert found >= 30


def test_verify_origin_next_to_examples():
    d3 = monotone_simplex(3)
    for codim in (1, 2, 3):
        for f in d3.faces(codim):
            assert verify_origin_next_to(d3, f)
    c2 = cube(2)
    v = FaceRef((0, 2), 2)  # vertex (1, 1)
    assert verify_origin_next_to(c2, v)
    # a dilated square: origin no longer next to anything
    big = HPolytope(2, c2.normals, (2, 2, 2, 2))
    assert not verify_origin_next_to(big, FaceRef((0,), 1))


def test_origin_next_to_verifiers():
    # deeply smooth with origin next to the corner vertex: shifted k*delta_n
    rows = [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)]
    p = HPolytope(3, rows, (0, 0, 0, 5)).translate((-1, -1, -1))
    basis = deeply_smooth_origin_vertex_basis(p)
    assert basis is not None and abs(det(basis)) == 1
    b3 = dim3_origin_edge_basis(p)
    assert b3 is not None and abs(det(b3)) == 1
    # monotone simplex: origin next to every vertex
    assert deeply_smooth_origin_vertex_basis(monotone_simplex(3)) is not None


# -- slow oracles for the mask-based checks --------------------------------


def _oracle_star_face(p, f):
    # the per-face scan: re-sort E(P), dot every λ against the face's facets
    e = ewald_set(p).points
    rows = [(p.normals[i], p.offsets[i]) for i in f.tight]
    for lam in sorted(e, key=lambda q: (max((abs(x) for x in q), default=0), q)):
        if sum(1 for u, c in rows if dot(u, lam) == c) != 1:
            continue
        neg = tuple(-x for x in lam)
        if all(dot(u, neg) != c for u, c in rows):
            return True, lam
    return False, None


def _oracle_star(p):
    for codim in range(1, p.dim + 1):
        for f in p.faces(codim):
            if not _oracle_star_face(p, f)[0]:
                return False, f
    return True, None


def _oracle_strong_bases(p):
    e = ewald_set(p).points
    bases = []
    for u, c in zip(p.normals, p.offsets):
        bases.append(find_unimodular_basis([x for x in e if dot(u, x) == c], p.dim))
        if bases[-1] is None:
            break
    return tuple(bases)


def _star_suite(rng):
    members = [p for p in catalog().values() if p.origin_interior()]
    small = [p for p in members if p.dim <= 3]
    products = [cartesian_product(a, b) for a, b in combinations_with_replacement(small[:6], 2)]
    images = [p.transform(random_unimodular(rng, p.dim)) for p in members + products[:8]]
    return members + products + images


def test_star_masks_match_per_face_oracle(rng):
    faces = 0
    for p in _star_suite(rng):
        assert star_ewald(p) == _oracle_star(p)
        for codim in range(1, p.dim + 1):
            for f in p.faces(codim):
                assert star_ewald_face(p, f) == _oracle_star_face(p, f)
                faces += 1
        assert strong_ewald(p).bases == _oracle_strong_bases(p)
        if is_monotone(p):
            e = ewald_set(p).points
            expect = all(any(dot(u, x) == c for x in e) for u, c in zip(p.normals, p.offsets))
            assert fs_property(p) == expect
            for i, u in enumerate(p.normals):
                values = [dot(u, x) for x in e]
                want = FacetEwaldSplit(values.count(1), values.count(0), values.count(-1))
                assert facet_ewald_split(p, i) == want and want.total == len(e)
    assert faces > 2000


def test_star_ewald_face_rejects_invalid_faces():
    with pytest.raises(ValueError):
        star_ewald_face(cube(2), FaceRef((0, 9), 2))
    with pytest.raises(ValueError):
        star_ewald_face(cube(2), FaceRef((0, 0), 2))
    # one check for every face-taking function: a repeated facet, opposite
    # facets (no common vertex), an index out of range on either side, and
    # two facets of the hexagon whose independent rows x <= 1 and y <= 1
    # meet at (1, 1), outside it
    hexagon = monotone_polygon("hexagon")
    assert hexagon.normals[0:3:2] == ((1, 0), (0, 1)) and not hexagon.contains((1, 1))
    bad_faces = [
        (cube(2), FaceRef((0, 0), 2)),
        (cube(2), FaceRef((0, 1), 2)),
        (cube(2), FaceRef((0, 9), 2)),
        (cube(2), FaceRef((4,), 1)),
        (cube(2), FaceRef((-1,), 1)),
        (hexagon, FaceRef((0, 2), 2)),
    ]
    for fn in (star_ewald_face, star_sets, verify_origin_next_to, first_displacement, displacement_slice):
        for p, f in bad_faces:
            with pytest.raises(ValueError, match="invalid face"):
                fn(p, f)


def test_ordered_is_sorted_once():
    e = ewald_set(ssb(3, 2))
    assert e.ordered() is e.ordered()
    assert list(e.ordered()) == sorted(e.points, key=lambda q: (max(map(abs, q)), q))
