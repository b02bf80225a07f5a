"""The one lattice-point enumerator of polytope (behind ewald_set,
lattice_points and the probe cross-check's sample grid) against the box
scans it replaced, kept in lattice_oracles."""

import io
import random
import sys
from fractions import Fraction

from conftest import CROSS4, random_unimodular, smooth_suite
from ewaldkit.bundles import catalog, del_pezzo, monotone_polygon, nill_triangle, segment
from ewaldkit.cli import main
from ewaldkit.ewald import _ewald_search, ewald_set
from ewaldkit.fileio import serialize_polytope
from ewaldkit.polytope import HPolytope, _cone_rows, _lattice_search, _point_search, _slab_frame, cartesian_product, dot
from ewaldkit.probes import _sample_search
from lattice_oracles import (
    ewald_box_scan,
    ewald_scan,
    frame,
    interior_sample_grid,
    product_grid,
    scan_lattice,
    slab_box_scan,
)

# x + y >= -1/2, x <= 3/2, y <= 5/3, x - y <= 7/4: no vertex is a lattice point
RATIONAL_POLYGON = HPolytope(
    2, ((-1, -1), (0, 1), (1, -1), (1, 0)), (Fraction(1, 2), Fraction(5, 3), Fraction(7, 4), Fraction(3, 2))
)


def _cases():
    for name, p in catalog().items():
        for shift in (0, 1, -2):
            yield "%s%+de1" % (name, shift), p.translate((shift,) + (0,) * (p.dim - 1))
    hexagon, triangle = monotone_polygon("hexagon"), monotone_polygon("triangle")
    yield "triangle_x_segment", cartesian_product(triangle, segment())
    yield "hexagon_x_segment", cartesian_product(hexagon, segment())
    for k, p in enumerate(smooth_suite(random.Random(20261018), max_dim=4, count=20)):
        yield "gl%d" % k, p
    yield "dp3", del_pezzo(3)
    yield "dp5", del_pezzo(5)
    yield "t2", nill_triangle(2)
    yield "rational", RATIONAL_POLYGON
    yield "off_centre_box", HPolytope(2, ((-1, 0), (0, -1), (0, 1), (1, 0)), (-1, 2, 3, 4))
    yield "dim0", HPolytope(0, (), ())
    yield "dim1", HPolytope(1, ((-1,), (1,)), (Fraction(3, 2), 4))


# the dim-3 inputs whose grids are compared: the box scan of a 3-dimensional
# GL image at samples 4 takes seconds
GRID_3D = ("simplex3+0e1", "cube3+1e1", "ssb31-2e1", "ssb32+0e1", "triangle_x_segment", "dp3")


def test_lattice_points_match_the_box_scans():
    empty_ewald = grids = 0
    for label, p in _cases():
        e = ewald_set(p).points
        assert e == ewald_scan(p), label
        empty_ewald += not e
        if p.dim <= 4:
            assert p.lattice_points() == scan_lattice(p), label
        if p.dim <= 2 or label in GRID_3D:
            grids += 1
            for samples in (1, 2, 4):
                assert interior_sample_grid(p, samples) == product_grid(p, samples), (label, samples)
    assert empty_ewald >= 5 and grids == 36


def test_both_coordinate_choices_are_exercised():
    # DP3 and DP5 have more than n rows at their first vertex, whose pivot
    # rows (_cone_rows) are unimodular, so both search in their own rows;
    # T_2 (simple, |det| 5 there) and the 16-cell (not simple, |det| 8)
    # search in the unit coordinates; smooth inputs use their own rows
    for p in (del_pezzo(3), del_pezzo(5)):
        rows, coords, _ = _slab_frame(p)
        assert p.vertex_masks()[0].bit_count() > p.dim
        assert len(rows) == p.nfacets and tuple(coords) == _cone_rows(p, 0)
        assert ewald_set(p).points == ewald_box_scan(p)
    for p in (nill_triangle(2), CROSS4):
        rows, coords, _ = _slab_frame(p)
        assert len(rows) == p.nfacets + p.dim and coords == list(range(p.nfacets, len(rows)))
        assert ewald_set(p).points == ewald_box_scan(p)
    for p in catalog().values():
        rows, coords, _ = _slab_frame(p)
        assert len(rows) == p.nfacets


# a GL(5, Z) image of DP5: its bounding box is large, its Ewald set is not
DP5_IMAGE_ROWS = (
    (5, 1, 2, -5, -16),
    (-5, -1, -2, 5, 16),
    (-4, 2, -2, 3, 10),
    (4, -2, 2, -3, -10),
    (2, -1, 1, -1, -6),
    (-2, 1, -1, 1, 6),
    (0, 3, 0, -2, -4),
    (0, -3, 0, 2, 4),
    (2, 4, 0, -4, -7),
    (-2, -4, 0, 4, 7),
    (5, 9, 1, -9, -23),
    (-5, -9, -1, 9, 23),
)


def test_a_skewed_non_simple_input_searches_in_its_own_rows(monkeypatch, capsys):
    # in the unit coordinates its bounding box made the count run out of
    # memory and the listing take tens of seconds
    q = HPolytope(5, DP5_IMAGE_ROWS, (1,) * 12)
    assert len(_slab_frame(q)[0]) == 12
    fresh = HPolytope(5, DP5_IMAGE_ROWS, (1,) * 12)
    assert len(ewald_set(q)) == len(ewald_set(fresh).points) == len(ewald_set(del_pezzo(5))) == 141
    monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_polytope(q, "dp5_image")))
    assert main(["check", "-", "--skip-neat"]) == 0
    assert "|E(P)| = 141" in capsys.readouterr().out.splitlines()


def _random_slab_system(rng):
    """(rows, coords, half): the rows of a random unimodular matrix, at the
    positions coords among up to three other random integer rows, and random
    half-widths."""
    n = rng.randint(1, 4)
    rows = [tuple(u) for u in random_unimodular(rng, n)]
    rows += [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 3))]
    order = list(range(len(rows)))
    rng.shuffle(order)
    coords = [order.index(t) for t in range(n)]
    return [rows[i] for i in order], coords, [rng.randint(0, 3) for _ in rows]


def _systems():
    """(rows, coords, half, d): the 60 seeded slab systems, each at a random
    centre, then systems in dimension 0 and systems with no point."""
    rng = random.Random(20261018)
    for _ in range(60):
        rows, coords, half = _random_slab_system(rng)
        yield rows, coords, half, [rng.randint(-2, 2) for _ in rows]
    for d in ([0, 0], [1, 0], [2, 0]):
        yield [(), ()], [], [1, 0], d
    triangle = [(1, 0), (0, 1), (1, 1)]
    yield triangle, [0, 1], [1, 1, -1], [0, 0, 0]  # an empty slab
    yield triangle, [0, 1], [1, 1, 0], [0, 0, 5]  # x + y = 5 beyond the box
    yield triangle, [2, 0], [0, 3, 0], [1, 0, 0]  # x = 1, x + y = 0, |y| <= 3


def _visits(search, d, **kwargs):
    """The (x, e) the search visits at centre d."""
    leaves = []
    search(d, lambda x, e: leaves.append((x, e)), **kwargs)
    return leaves


def test_visited_points_are_the_box_scan_with_every_residual():
    empty = 0
    for rows, coords, half, d in _systems():
        search = _lattice_search(*frame(rows, coords), half)
        leaves = _visits(search, d)
        points = [x for x, _ in leaves]
        assert len(set(points)) == len(points), (rows, d)
        assert set(points) == slab_box_scan(rows, coords, half, d), (rows, d)
        # e[j] = d_j − u_j·x on every row, coordinate rows included
        for x, e in leaves:
            assert type(x) is tuple
            assert e == [dj - dot(u, x) for u, dj in zip(rows, d)]
        empty += not points
    assert empty >= 5


def test_the_count_is_the_number_of_visits():
    # at every centre, dimension 0 and the empty systems included
    for rows, coords, half, d in _systems():
        search = _lattice_search(*frame(rows, coords), half)
        assert search(d) == (len(_visits(search, d)), True), (rows, d)


def test_a_capped_count_is_exact_up_to_its_cap():
    # above the cap it is a running total: a lower bound, itself above the cap
    for rows, coords, half, d in _systems():
        search = _lattice_search(*frame(rows, coords), half)
        total, _ = search(d)
        assert search(d, cap=total) == (total, True)
        if total:
            found, ended = search(d, cap=total - 1)
            assert found == total if ended else total - 1 < found <= total


def test_a_count_capped_at_0_tells_whether_a_system_has_a_point():
    # the existence test of the neat classes, at the seeded systems and at
    # 200 more random ones, each at three random centres
    rng = random.Random(35)
    systems = [(rows, coords, half, [d]) for rows, coords, half, d in _systems()]
    for _ in range(200):
        rows, coords, half = _random_slab_system(rng)
        systems.append((rows, coords, half, [[rng.randint(-4, 4) for _ in rows] for _ in range(3)]))
    kinds = set()
    for rows, coords, half, centres in systems:
        search = _lattice_search(*frame(rows, coords), half)
        for d in centres:
            has = bool(slab_box_scan(rows, coords, half, d))
            assert (search(d, cap=0)[0] > 0) == has, (rows, half, d)
            kinds.add(has)
    assert kinds == {True, False}


def test_the_search_box_bounds_every_count():
    # search.box, which a limit reads before it counts, is at least the
    # count at every centre, and 0 exactly where some slab is empty: on the
    # seeded systems, 200 random ones at three centres each, and the point
    # sets, E(P) and scaled sample grids of the cases, in both frames
    rng = random.Random(41)
    systems = [(rows, coords, half, [d]) for rows, coords, half, d in _systems()]
    for _ in range(200):
        rows, coords, half = _random_slab_system(rng)
        systems.append((rows, coords, half, [[rng.randint(-4, 4) for _ in rows] for _ in range(3)]))
    empty = 0
    for rows, coords, half, centres in systems:
        search = _lattice_search(*frame(rows, coords), half)
        assert (search.box == 0) == any(h < 0 for h in half), (rows, half)
        assert all(search.box >= search(d)[0] for d in centres), (rows, half)
        empty += not search.box
    frames = set()
    for label, p in _cases():
        frames.add(len(_slab_frame(p)[0]) > p.nfacets)
        for search, centre in [_point_search(p), _ewald_search(p), _sample_search(p, 1), _sample_search(p, 3)]:
            assert search.box >= search(centre)[0], label
    assert empty and frames == {True, False}


def test_half_space_search_and_its_mirrors_are_the_full_search():
    for rows, coords, half, _ in _systems():
        search = _lattice_search(*frame(rows, coords), half)
        zero = [0] * len(rows)
        full = {x for x, _ in _visits(search, zero)}
        halves = [x for x, _ in _visits(search, zero, halfspace=True)]
        assert len(set(halves)) == len(halves) == (len(full) + 1) // 2
        # the first nonzero coordinate of y = A x is negative
        ys = [tuple(dot(rows[i], x) for i in coords) for x in halves]
        assert all(next((v for v in y if v), -1) < 0 for y in ys)
        assert set(halves) | {tuple(-v for v in x) for x in halves} == full

