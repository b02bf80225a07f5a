"""The bitmask incidence readers against the frozenset ones they replaced.

Faces and their order, face vertices, adjacency, 2-faces, normal fans,
normal isomorphism and displacement analysis must give the same answers as
the references in incidence_oracles.py, and build_bundle's slice check the
same verdict as the reference's slice and total-space incidence checks.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

import incidence_oracles as oracle
from classify_oracles import adjacency_edge_directions
from conftest import random_unimodular, workload_items
from ewaldkit.bundles import (
    BundleSpec,
    build_bundle,
    catalog,
    cube,
    del_pezzo,
    monotone_polygon,
    monotone_simplex,
    segment,
    smooth_simplex,
    ssb,
    ssb_as_bundle,
)
from ewaldkit.classify import _triangles, _two_faces
from ewaldkit.displace import displace
from ewaldkit.fileio import parse_polytope
from ewaldkit.polytope import (
    FaceRef,
    HPolytope,
    _edges,
    cartesian_product,
    face_slice,
    normal_fan_signature,
    normally_isomorphic,
)


def polytopes_under_test():
    rng = random.Random(9)
    named = list(catalog().values())
    hexagon = monotone_polygon("hexagon")
    out = list(named)
    out += [p.translate(tuple(rng.randint(-2, 2) for _ in range(p.dim))) for p in named]
    out += [p.transform(random_unimodular(rng, p.dim)) for p in named if p.dim > 1]
    out += [cartesian_product(hexagon, hexagon), cartesian_product(ssb(3, 2), cube(2))]
    # not simple: the 2-faces from facet steps down the vertex masks
    cross4 = HPolytope(4, list(product((-1, 1), repeat=4)), [1] * 16)
    out += [del_pezzo(3), del_pezzo(5), cartesian_product(del_pezzo(5), segment()), cross4]
    charts = []
    for p in named:
        if 2 < p.dim <= 4:
            for codim in (1, 2):
                for f in p.faces(codim):
                    s = face_slice(p, f, inset=1)
                    if s.polytope is not None:
                        charts.append(s.polytope)
    assert any(not q.is_simple() for q in charts)
    return out + charts


POLYS = polytopes_under_test()


def _large_images():
    # adjacency and faces on simple polytopes of 32 and 36 vertices
    rng = random.Random(41)
    hexagon = monotone_polygon("hexagon")
    out = [cube(5), cartesian_product(hexagon, hexagon)]
    out = [p.transform(random_unimodular(rng, p.dim)) for p in out]
    assert all(p.is_simple() and len(p.vertices()) >= 32 for p in out)
    return out


def test_faces_adjacency_and_two_faces_match_frozensets():
    assert any(not p.is_simple() for p in POLYS)
    for p in POLYS + _large_images():
        assert p.vertex_tight_sets() == oracle.tight_sets(p)
        for codim in range(p.dim + 1):
            try:
                want = oracle.faces(p, codim)
            except ValueError:
                with pytest.raises(ValueError):
                    p.faces(codim)
                continue
            got = p.faces(codim)
            assert tuple(f.tight for f in got) == want, (p, codim)
            for f in got:
                assert f.mask == sum(1 << i for i in f.tight)
                assert p.face_vertices(f) == oracle.face_vertices(p, f.tight)
        for i in range(len(p.vertices())):
            assert p.adjacent_vertex_indices(i) == oracle.adjacent_vertex_indices(p, i)
        if p.dim >= 2:
            # the facet steps give every 2-face's vertex set, in no order;
            # on a simple polytope the edge graph gives the triangles, which
            # sort into the order of faces(n − 2)
            want = [(t, oracle.vertex_mask(p, t)) for t in oracle.two_faces(p)]
            assert sorted(_two_faces(p)) == sorted(verts for _, verts in want), p
            if p.is_simple():
                assert sorted(_triangles(p)) == [(t, verts) for t, verts in want if verts.bit_count() == 3], p


def test_the_edge_graph_matches_the_double_description_adjacency():
    # the vertex cones, the charts and deep smoothness read _edges, and
    # adjacency reads the rows tight at both ends: each checks the other
    rng = random.Random(28)
    named = list(catalog().values())
    polys = named + [p.transform(random_unimodular(rng, p.dim)) for p in named] + [cube(6)]
    polys += [
        parse_polytope(text).polytope
        for name in ("check", "neat")
        for seed in (1, 5)
        for item in workload_items(name, seed)
        for text in item.texts
    ]
    simple = [p for p in polys if p.is_simple()]
    assert len(simple) > 300
    for p in simple:
        masks = p.vertex_masks()
        for v, edges in enumerate(_edges(p)):
            assert tuple(sorted(w for _, w, _ in edges)) == p.adjacent_vertex_indices(v), (p, v)
            for s, w, j in edges:
                assert masks[v] >> s & 1 and not masks[w] >> s & 1, (p, v, s, w)
                assert masks[w] >> j & 1 and not masks[v] >> j & 1, (p, v, w, j)


def test_face_vertices_of_names_that_are_no_face():
    # the rows of C_2 are x <= 1, -x <= 1, y <= 1, -y <= 1: a repeated facet
    # counts once, and opposite facets or a row out of range, past the last
    # or negative, meet no vertex
    c2 = cube(2)
    assert c2.face_vertices(FaceRef((0, 0), 2)) == c2.face_vertices(FaceRef((0,), 1)) == ((1, -1), (1, 1))
    for tight in ((0, 1), (0, 9), (4,), (-1,), (-1, 0)):
        assert c2.face_vertices(FaceRef(tight, len(tight))) == ()


def test_non_simple_vertices_keep_every_edge():
    # the 16-cell, with vertices ±e_k: every vertex is adjacent to all but
    # itself and its antipode, along the differences, which are primitive
    cross4 = HPolytope(4, list(product((-1, 1), repeat=4)), [1] * 16)
    verts = cross4.vertices()
    for i, v in enumerate(verts):
        antipode = verts.index(tuple(-x for x in v))
        nbrs = [j for j in range(len(verts)) if j not in (i, antipode)]
        assert cross4.adjacent_vertex_indices(i) == tuple(nbrs)
        edges = sorted(tuple(a - b for a, b in zip(verts[j], v)) for j in nbrs)
        assert adjacency_edge_directions(cross4, i) == tuple(edges)
    # DP5 × segment: every vertex has its edge along the segment
    p = cartesian_product(del_pezzo(5), segment())
    assert not p.is_simple()
    up = (0,) * 5 + (1,)
    for i, v in enumerate(p.vertices()):
        along = up if v[-1] < 0 else tuple(-x for x in up)
        assert along in adjacency_edge_directions(p, i), v


def test_fans_and_normal_isomorphism_match_frozensets():
    rng = random.Random(17)
    for p in POLYS:
        cones = normal_fan_signature(p).cones
        assert oracle.fan_cones(oracle.decode(cones, p.nfacets)) == oracle.fan_cones(
            oracle.tight_sets(p)
        )
        order = list(range(p.nfacets))
        rng.shuffle(order)
        permuted = HPolytope(p.dim, [p.normals[i] for i in order], [p.offsets[i] for i in order])
        others = [
            permuted,
            p.translate((1,) + (0,) * (p.dim - 1)),
            p.transform(random_unimodular(rng, p.dim)),
        ]
        for q in others + [rng.choice(POLYS)]:
            assert normally_isomorphic(p, q) == oracle.normally_isomorphic(p, q)
            assert normally_isomorphic(q, p) == oracle.normally_isomorphic(q, p)
        assert normally_isomorphic(p, permuted)


def test_displacement_analysis_matches_frozensets():
    rng = random.Random(23)
    seen = set()
    for p in POLYS:
        for _ in range(3):
            b = tuple(rng.randint(-1, 1) for _ in range(p.nfacets))
            got = displace(p, b).analyze()
            assert got == oracle.analyze(displace(p, b)), (p, b)
            seen.add(got["normally_isomorphic_to_parent"])
    assert seen == {True, False}


def _bundle_specs(rng, bases, fibers, count):
    """count specs over the bases and fibers: half twist with entries in
    [−2, 2], half make each slice over x the fiber translated by −M x for an
    integer M, with up to two twist rows perturbed; each shift is 0, ±1,
    1/2 or −1/3, and half the specs take zero shifts."""
    specs = []
    for i in range(count):
        base, fiber = rng.choice(bases), rng.choice(fibers)
        k, n = base.dim, fiber.dim
        if i % 2:
            twist = [[rng.randint(-2, 2) for _ in range(k)] for _ in fiber.normals]
        else:
            m = [[rng.randint(-1, 1) for _ in range(k)] for _ in range(n)]
            twist = [[sum(t[a] * m[a][c] for a in range(n)) for c in range(k)] for t in fiber.normals]
            for j in rng.sample(range(fiber.nfacets), rng.randint(0, 2)):
                twist[j] = [x + rng.randint(-1, 1) for x in twist[j]]
        shifts = (0,) * fiber.nfacets
        if i % 4 >= 2:
            shifts = tuple(rng.choice((0, 1, -1, Fraction(1, 2), Fraction(-1, 3))) for _ in fiber.normals)
        specs.append(BundleSpec(base=base, fiber=fiber, twist=tuple(map(tuple, twist)), shifts=shifts))
    return specs


def test_bundle_incidence_check_matches_frozensets():
    rng = random.Random(29)
    specs = [ssb_as_bundle(3, 1), ssb_as_bundle(3, 2), ssb_as_bundle(4, 3)]
    bases = [segment(), monotone_simplex(2), smooth_simplex(1, 2), cube(2)]
    fibers = [segment(), monotone_simplex(2), smooth_simplex(2, 2), cube(2), del_pezzo(3)]
    for _ in range(60):
        base, fiber = rng.choice(bases), rng.choice(fibers)
        twist = tuple(
            tuple(rng.randint(-1, 1) for _ in range(base.dim)) for _ in range(fiber.nfacets)
        )
        specs.append(BundleSpec(base=base, fiber=fiber, twist=twist, shifts=(0,) * fiber.nfacets))
    # the slice check alone decides; the oracle checks the incidence of the
    # total space apart, over DP3 (not simple) and 3-dimensional fibers too
    specs += _bundle_specs(
        random.Random(31),
        [segment(), monotone_simplex(2), smooth_simplex(1, 2), cube(2), monotone_polygon("hexagon"),
         del_pezzo(3), monotone_simplex(3), ssb(3, 1)],
        [segment(), monotone_simplex(2), smooth_simplex(2, 2), cube(2), del_pezzo(3),
         monotone_polygon("pentagon"), monotone_simplex(3), cube(3), ssb(3, 2)],
        520,
    )
    verdicts = set()
    for spec in specs:
        want = oracle.build_bundle_verdict(spec)
        if want is None:
            # the total's vertices are left to their first reader
            assert "vertices" not in build_bundle(spec)._cache
        else:
            with pytest.raises(ValueError, match=want):
                build_bundle(spec)
        verdicts.add(want)
    assert None in verdicts and len(verdicts) >= 2
