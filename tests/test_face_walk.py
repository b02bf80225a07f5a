"""The depth-first face walk (polytope._walk_faces) and the star check that
rides on it, the linear transpose of a mask table
(polytope._row_vertex_masks) and the digit scan of wide masks
(polytope._bits), against the face lists, the per-codimension star scan and
the per-bit loops of incidence_oracles."""

import random

import incidence_oracles as oracle
from conftest import random_unimodular
from ewaldkit import ewald
from ewaldkit.bundles import catalog, cube, monotone_polygon
from ewaldkit.ewald import ewald_set, star_ewald
from ewaldkit.polytope import _bits, _row_vertex_masks, _walk_faces, cartesian_product
from lattice_oracles import dot_tight_masks


def test_the_walk_yields_every_face_once_in_face_order():
    rng = random.Random(27)
    hexagon = monotone_polygon("hexagon")
    polys = [cube(6), cartesian_product(hexagon, cube(2))]
    polys += [q for p in catalog().values() for q in (p, p.transform(random_unimodular(rng, p.dim)))]
    for p in polys:
        walked = list(_walk_faces(p, [p.dim]))
        by_codim = {}
        for codim, facets, verts, last in walked:
            tight = _bits(facets)
            assert len(tight) == codim and last == tight[-1]
            assert verts == oracle.vertex_mask(p, tight)
            by_codim.setdefault(codim, []).append(tight)
        for codim in range(1, p.dim + 1):
            assert tuple(by_codim.get(codim, ())) == oracle.faces(p, codim), (p, codim)
        assert len(set(f for _, f, _, _ in walked)) == len(walked)
    assert len(list(_walk_faces(cube(6), [6]))) == 3**6 - 1 == 728


def test_a_lowered_limit_stops_the_walk_at_that_codimension():
    # on cube(4) the walk meets (0,) and then (0, 2); lowered to 1 there,
    # it yields only the facets after 0
    limit, seen = [4], []
    for codim, facets, _, _ in _walk_faces(cube(4), limit):
        seen.append(facets)
        if facets == 0b101:
            limit[0] = 1
    assert seen == [0b1, 0b101] + [1 << i for i in range(1, 8)]


def test_star_reports_the_first_failure_by_codimension_then_order(monkeypatch):
    # crafted columns on cube(3): facets 0 and 2 are tight together at scan
    # position 0 only, so each alone has a witness and the face (0, 2) has
    # none; facets 1, 3 and 5 have one witness each, facet 4 none.  The walk
    # meets (0, 2) before (4,), and the per-codimension scan reports (4,).
    p = cube(3)
    on = (1, 1 << 2, 1, 1 << 4, 0, 1 << 6)
    monkeypatch.setattr(ewald, "_ewald_listing", lambda q: ((), on, (0,) * 6))
    assert not ewald._star_witnesses(p, 0b101)
    assert ewald._star_witnesses(p, 0b1) and ewald._star_witnesses(p, 0b100)
    walked = [facets for _, facets, _, _ in _walk_faces(p, [3])]
    assert walked.index(0b101) < walked.index(0b10000)
    scan = next(f for c in range(1, 4) for f in p.faces(c) if not ewald._star_witnesses(p, sum(1 << i for i in f)))
    assert scan == (4,)
    assert star_ewald(p) == (False, scan)


def _tables():
    rng = random.Random(44)
    for nrows in (1, 7, 8, 9, 17, 44):
        yield [rng.getrandbits(nrows) for _ in range(rng.randint(1, 60))], nrows
        yield [0] * 5, nrows
        yield [(1 << nrows) - 1] * 3, nrows
    for _ in range(40):
        nrows = rng.randint(1, 70)
        yield [rng.getrandbits(nrows) for _ in range(rng.randint(1, 300))], nrows
    p = cube(9)
    m = p.nfacets
    yield [t | tn << m for _, t, tn in dot_tight_masks(p, ewald_set(p).points)], 2 * m


def test_the_transpose_matches_the_per_bit_loop():
    assert _row_vertex_masks([], 5) == [0] * 5
    assert _row_vertex_masks([], 0) == []
    for masks, nrows in _tables():
        assert _row_vertex_masks(masks, nrows) == oracle.row_vertex_masks(masks, nrows), nrows


def test_bits_matches_the_low_bit_loop_at_every_width():
    rng = random.Random(85)
    masks = [0, 1, 1 << 700]
    for width in (63, 64, 65, 511, 512, 513):
        masks += [1 << (width - 1), (1 << width) - 1]
        masks += [rng.getrandbits(width) | 1 << (width - 1) for _ in range(5)]
    # a column of cube(11)'s E(P): one bit in three of 3^11 = 177,147
    masks.append(int("001" * 3**10, 2))
    for mask in masks:
        assert _bits(mask) == oracle.low_bits(mask)
