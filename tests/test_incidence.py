"""The bitmask incidence readers against the frozenset ones they replaced.

Faces and their order, face vertices, adjacency, 2-faces, normal fans,
normal isomorphism, displacement analysis and the bundle incidence check
must give the same answers as the references in incidence_oracles.py.
"""

import random
from itertools import product

import pytest

import incidence_oracles as oracle
from conftest import random_unimodular
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
from ewaldkit.classify import _two_faces
from ewaldkit.displace import displace
from ewaldkit.polytope import (
    HPolytope,
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


def test_faces_adjacency_and_two_faces_match_frozensets():
    assert any(not p.is_simple() for p in POLYS)
    for p in POLYS:
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
            assert _two_faces(p) == oracle.two_faces(p), p


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
    verdicts = set()
    for spec in specs:
        want = oracle.build_bundle_verdict(spec)
        if want is None:
            build_bundle(spec)
        else:
            with pytest.raises(ValueError, match=want):
                build_bundle(spec)
        verdicts.add(want)
    assert None in verdicts and len(verdicts) >= 2
