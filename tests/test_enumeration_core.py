"""The double-description core against the subset scans it replaced.

The oracles below are the former brute-force routines: basic solutions over
all C(m, n) row subsets, the hull over all C(k, n) point subsets, and
boundedness from kernel directions over all C(m, n - 1) row subsets.  They
are exponential and kept only as references.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import pytest

from conftest import random_unimodular
from linalg_oracles import fraction_free_solve, kernel_direction
from ewaldkit import polytope
from ewaldkit.bundles import catalog, cube, del_pezzo, monotone_polygon, ssb
from ewaldkit.fileio import parse_polytope
from ewaldkit.intlinalg import primitive_part, rank
from ewaldkit.polytope import (
    HPolytope,
    _exact,
    _facet_rows,
    _integerize,
    _point,
    affine_rank,
    cartesian_product,
    convex_hull,
    dot,
    enumerate_vertices,
    facet_description,
    irredundant_rows,
    minkowski_sum,
    oda_instance_check,
)


def oracle_vertices(dim, normals, offsets):
    offsets = tuple(_exact(c) for c in offsets)
    scale = lcm(1, *(c.denominator for c in offsets))
    rows = tuple(zip(normals, (int(c * scale) for c in offsets)))
    found = {}
    for subset in combinations(rows, dim):
        sol = fraction_free_solve([list(u) + [c] for u, c in subset])
        if sol is None:
            continue
        d, y = sol
        if any(dot(u, y) > c * d for u, c in rows):
            continue
        x = tuple(_exact(Fraction(v, d * scale)) for v in y)
        found.setdefault(x, sum(1 << i for i, (u, c) in enumerate(rows) if dot(u, y) == c * d))
    verts = tuple(sorted(found))
    return verts, tuple(found[v] for v in verts)


def oracle_bounded(dim, normals):
    if rank(normals) < dim:
        return False
    if dim == 1:
        return any(u[0] > 0 for u in normals) and any(u[0] < 0 for u in normals)
    for sub in combinations(normals, dim - 1):
        d = kernel_direction(sub)
        if d is None:
            continue
        if all(dot(u, d) <= 0 for u in normals) or all(dot(u, d) >= 0 for u in normals):
            return False
    return True


def oracle_feasible(dim, normals, offsets):
    """Whether normals @ x <= offsets has a solution: the subset scan of the
    system cut by the box |x_i| <= 10^6.  A nonempty system has a point of
    that size here: a minimal face holds a basic solution, whose Cramer
    quotients stay below 4! · 54 · 2^3 for normals in [−2, 2]^n, n <= 4,
    and offsets a/b with |a| <= 9, b <= 3."""
    box = [tuple(s * (i == k) for k in range(dim)) for i in range(dim) for s in (1, -1)]
    return bool(oracle_vertices(dim, list(normals) + box, list(offsets) + [10**6] * len(box))[0])


def oracle_hull(points, dim):
    pts = sorted({_point(p) for p in points})
    if affine_rank(pts) != dim:
        raise ValueError("not full-dimensional")
    if dim == 1:
        return ((1,), (-1,)), (pts[-1][0], -pts[0][0])
    rows = {}
    for subset in combinations(pts, dim):
        diffs = [[a - b for a, b in zip(p, subset[0])] for p in subset[1:]]
        d = kernel_direction([_integerize(r) for r in diffs])
        if d is None:
            continue
        u = primitive_part(d)
        c = dot(u, subset[0])
        vals = [dot(u, p) for p in pts]
        if max(vals) == c:
            rows.setdefault(u, c)
        elif min(vals) == c:
            rows.setdefault(tuple(-x for x in u), -c)
    normals = tuple(sorted(rows))
    return normals, tuple(_exact(rows[u]) for u in normals)


def assert_matches_oracles(p, hull_budget=16000):
    got = enumerate_vertices(p.dim, p.normals, p.offsets)
    assert got == oracle_vertices(p.dim, p.normals, p.offsets)
    assert oracle_bounded(p.dim, p.normals)
    verts = got[0]
    if comb(len(verts), p.dim) <= hull_budget:
        h = convex_hull(verts, p.dim)
        assert (h.normals, h.offsets) == oracle_hull(verts, p.dim)


def polytopes_under_test():
    rng = random.Random(31)
    out = list(catalog().values())
    out += [del_pezzo(3), del_pezzo(5)]  # not simple
    hexagon = monotone_polygon("hexagon")
    out += [cartesian_product(hexagon, hexagon), cartesian_product(ssb(3, 2), cube(2))]
    for base in list(out):
        if base.dim <= 4:
            q = base.transform(random_unimodular(rng, base.dim))
            out.append(q.translate(tuple(rng.randint(-2, 2) for _ in range(q.dim))))
    return out


def test_vertices_and_hulls_match_subset_scans():
    polys = polytopes_under_test()
    assert any(not p.is_simple() for p in polys)
    for p in polys:
        assert_matches_oracles(p)


def test_infeasible_systems_are_empty_whatever_their_normals():
    # x <= -1 and -x <= -1: infeasible with normals of rank 1, and with a row
    # on y whose normals span the plane but leave the recession ray (0, -1)
    strip = [(1, 0), (-1, 0)]
    for normals in (strip, strip + [(0, 1)], strip + [(1, 1)]):
        assert enumerate_vertices(2, normals, [-1] * 2 + [1] * (len(normals) - 2)) == ((), ())
        assert not oracle_feasible(2, normals, [-1] * 2 + [1] * (len(normals) - 2))
        with pytest.raises(ValueError, match="unbounded"):
            enumerate_vertices(2, normals, [1] * len(normals))
    assert enumerate_vertices(3, [(0, 0, 1), (0, 0, -1)], [Fraction(1, 2), Fraction(-2, 3)]) == ((), ())
    with pytest.raises(ValueError, match="empty"):
        irredundant_rows(2, tuple(strip), (-1, -1))


def random_system(rng, dim):
    """Small normals, Fraction offsets, duplicate and weakly redundant rows."""
    m = rng.randint(1, dim + 5)
    normals, offsets = [], []
    for _ in range(m):
        u = tuple(rng.randint(-2, 2) for _ in range(dim))
        if not any(u):
            u = (1,) + (0,) * (dim - 1)
        normals.append(u)
        offsets.append(Fraction(rng.randint(-3, 9), rng.randint(1, 3)))
    if rng.random() < 0.3:  # the same row twice, or a looser copy of it
        i = rng.randrange(m)
        normals.append(normals[i])
        offsets.append(offsets[i] + rng.choice((0, 1)))
    if rng.random() < 0.3:  # a row through the vertices of the system so far
        try:
            verts, _ = enumerate_vertices(dim, normals, offsets)
        except ValueError:
            verts = ()
        if verts:
            u = tuple(rng.randint(-2, 2) for _ in range(dim))
            if any(u):
                normals.append(u)
                offsets.append(max(dot(u, v) for v in verts))
    return normals, offsets


def test_random_systems_match_subset_scans():
    # vertices, tight sets and the boundedness verdict; on full-dimensional
    # systems also the facet rows against the affine rank of their vertices
    rng = random.Random(20261018)
    seen = {"bounded": 0, "unbounded": 0, "empty": 0, "full_dim": 0}
    empty_unbounded = flat = 0
    for _ in range(600):
        dim = rng.randint(1, 4)
        normals, offsets = random_system(rng, dim)
        if not oracle_bounded(dim, normals):
            # normals that bound no polytope: unbounded when feasible, else empty
            if oracle_feasible(dim, normals, offsets):
                seen["unbounded"] += 1
                with pytest.raises(ValueError, match="unbounded"):
                    enumerate_vertices(dim, normals, offsets)
            else:
                empty_unbounded += 1
                assert enumerate_vertices(dim, normals, offsets) == ((), ()), (normals, offsets)
            continue
        want = oracle_vertices(dim, normals, offsets)
        seen["bounded" if want[0] else "empty"] += 1
        assert enumerate_vertices(dim, normals, offsets) == want, (normals, offsets)
        verts, tights = want
        full_dim, facets = _facet_rows(tights, len(normals))
        assert full_dim == (affine_rank(verts) == dim)
        flat += bool(verts) and not full_dim
        if full_dim:
            seen["full_dim"] += 1
            on_row = [[v for v, t in zip(verts, tights) if t >> i & 1] for i in range(len(normals))]
            assert facets == [i for i, vs in enumerate(on_row) if affine_rank(vs) == dim - 1]
    assert min(seen.values()) >= 30 and empty_unbounded >= 5, (seen, empty_unbounded)
    assert flat >= 5, flat  # nonempty and lower-dimensional


def test_irredundant_rows_cache_a_fresh_enumeration_of_the_kept_rows():
    # the parse keeps the vertices and masks of its one enumeration: as they
    # are when every distinct normal stays, re-indexed to the kept rows when
    # one drops (a duplicate normal is collapsed before the enumeration)
    rng = random.Random(20261019)
    seen = {"reindexed": 0, "as_is": 0}
    for _ in range(3000):
        dim = rng.randint(1, 4)
        normals, offsets = random_system(rng, dim)
        try:
            p, dropped, full_dim = irredundant_rows(dim, normals, offsets)
        except ValueError:  # unbounded or empty
            continue
        if not full_dim:
            continue
        seen["reindexed" if p.nfacets < len(set(normals)) else "as_is"] += 1
        fresh = enumerate_vertices(p.dim, p.normals, p.offsets)
        assert (p._cache["vertices"], p._cache["tights"]) == fresh, (normals, offsets)
        p.validate()
    assert min(seen.values()) >= 30, seen


def test_random_point_hulls_match_subset_scan():
    rng = random.Random(7)
    seen_flat = 0
    for trial in range(300):
        dim = rng.randint(1, 4)
        k = rng.randint(1, dim + 6)
        pts = [
            tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(dim))
            for _ in range(k)
        ]
        if trial % 5 == 0:  # a midpoint and the centroid: points that are not vertices
            pts.append(tuple((a + b) / 2 for a, b in zip(pts[0], pts[-1])))
            pts.append(tuple(sum(xs) / len(pts) for xs in zip(*pts)))
        try:
            want = oracle_hull(pts, dim)
        except ValueError:
            seen_flat += 1
            with pytest.raises(ValueError, match="not full-dimensional"):
                convex_hull(pts, dim)
            continue
        h = convex_hull(pts, dim)
        assert (h.normals, h.offsets) == want, pts
    assert seen_flat > 0
    assert convex_hull([(3,), (-1,), (0,)]).normals == ((1,), (-1,))


def test_hull_of_cube8_vertices_is_cube8():
    c8 = cube(8)
    h = convex_hull(c8.vertices())
    assert set(zip(h.normals, h.offsets)) == set(zip(c8.normals, c8.offsets))
    assert h.vertices() == c8.vertices()


def _fresh(h):
    # the vertex table of a new polytope on the same rows, enumerated anew
    f = HPolytope(h.dim, h.normals, h.offsets)
    return f.vertices(), f.vertex_masks()


def test_hull_caches_a_fresh_enumeration_of_its_rows():
    # convex_hull reads its vertices and masks off its own rays: a point is a
    # vertex when the facets through it meet in it alone
    rng = random.Random(20261020)
    seen = {"interior": 0, "boundary": 0, "duplicate": 0}
    for _ in range(300):
        dim = rng.randint(1, 4)
        pts = [tuple(2 * rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(dim + 1, dim + 6))]
        pts += [tuple((a + b) // 2 for a, b in zip(*rng.sample(pts, 2))) for _ in range(3)]  # midpoints
        pts += rng.sample(pts, 2)
        try:
            h = convex_hull(pts, dim)
        except ValueError:  # not full-dimensional
            continue
        assert (h.vertices(), h.vertex_masks()) == _fresh(h), pts
        verts = set(h.vertices())
        seen["duplicate"] += len(set(pts)) < len(pts)
        for x in set(pts) - verts:
            seen["boundary" if any(dot(u, x) == c for u, c in zip(h.normals, h.offsets)) else "interior"] += 1
    assert min(seen.values()) >= 30, seen
    quarter = Fraction(1, 4)
    hulls = [
        convex_hull([(0, 0), (Fraction(5, 2), 0), (Fraction(1, 3), Fraction(7, 4)), (-quarter, 1)]),
        convex_hull([(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)]),  # pyramid
        convex_hull([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]),  # bipyramid
    ]
    for p in catalog().values():
        hulls.append(convex_hull(p.transform(random_unimodular(rng, p.dim)).vertices(), p.dim))
    for h in hulls:
        assert (h.vertices(), h.vertex_masks()) == _fresh(h), (h.normals, h.offsets)


def test_each_hull_runs_one_double_description(monkeypatch):
    calls = []

    def spy(rows, d):
        calls.append(d)
        return extreme_rays(rows, d)

    def count(run):
        calls.clear()
        out = run()
        assert len(calls) == 1
        return out

    extreme_rays = polytope._extreme_rays
    monkeypatch.setattr(polytope, "_extreme_rays", spy)
    parsed = count(lambda: parse_polytope("dim 2\nvertices 5\n0 0\n2 0\n0 2\n2 2\n1 1\n"))
    assert parsed.warnings == ("vertex list contained non-extreme points; hull taken",)

    def hull_table():
        h = convex_hull([(0, 0), (3, 0), (0, 3), (1, 1), (1, 0)])
        return h.vertices(), h.vertex_masks()

    assert count(hull_table)[0] == ((0, 0), (0, 3), (3, 0))
    count(lambda: facet_description([(1, 0), (0, 1), (-2, -2)]))
    with pytest.raises(ValueError, match="not the vertex set"):
        count(lambda: facet_description([(0, 0), (2, 0), (0, 2), (1, 1)]))
    seg_x, seg_y = [(0, 0), (1, 0)], [(0, 0), (0, 2)]
    assert count(lambda: minkowski_sum(seg_x, seg_y)) == ((0, 0), (0, 2), (1, 0), (1, 2))
    p, q = monotone_polygon("hexagon"), monotone_polygon("triangle")
    p.vertices(), q.vertices()
    assert count(lambda: oda_instance_check(p, q))
