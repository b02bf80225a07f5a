"""The single elimination core against the routines it replaced.

ewaldkit.intlinalg keeps one fraction-free elimination (_reduce) and one
saturation echelon (_extend_saturated, behind is_saturated and
find_unimodular_basis).  The references in linalg_oracles are the former
implementations: the Smith normal form, the column-subset scan for a
particular solution, the row-by-row rank loop, and the unimodular-basis
search that re-ran a transpose echelon on every partial basis.
"""

import math
import random
from fractions import Fraction

from conftest import random_unimodular, workload_items
from ewaldkit import intlinalg, polytope
from ewaldkit.bundles import catalog, monotone_polygon
from ewaldkit.classify import is_smooth
from ewaldkit.ewald import ewald_set, strong_ewald, weak_ewald
from ewaldkit.fileio import parse_polytope, serialize_polytope
from ewaldkit.intlinalg import (
    _reduce,
    det,
    inverse_unimodular,
    is_saturated,
    mat_mul,
    scaled_inverse,
)
from linalg_oracles import (
    find_unimodular_basis,
    first_independent_rows,
    per_step_basis_search,
    smith_saturated,
    solve_rational,
    subset_particular,
)


def planted_rows(rng, k, n, lo=-3, hi=3):
    """k integer rows of length n with planted dependent and zero rows."""
    m = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(k)]
    if k >= 2 and rng.random() < 0.3:
        i, j = rng.sample(range(k), 2)
        c = rng.randint(-2, 2)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    if k and rng.random() < 0.15:
        m[rng.randrange(k)] = [0] * n
    return m


def test_is_saturated_matches_smith_oracle():
    rng = random.Random(41)
    seen = {"saturated": 0, "not": 0, "dependent": 0, "zero_row": 0, "tall": 0}
    for _ in range(3000):
        n = rng.randint(1, 6)
        k = rng.randint(0, n + 2)
        m = planted_rows(rng, k, n, *rng.choice(((-1, 1), (-3, 3))))
        got = is_saturated(m)
        assert got == smith_saturated(m), m
        seen["saturated" if got else "not"] += 1
        seen["zero_row"] += any(not any(r) for r in m)
        seen["tall"] += k > n
        seen["dependent"] += 0 < k <= n and polytope.rank(m) < k
    assert min(seen.values()) >= 100, seen


def _check_workload_inputs(seed):
    """The polytopes of the benchmark's `check` workload for one seed."""
    return [parse_polytope(item.texts[0]).polytope for item in workload_items("check", seed)]


def test_find_unimodular_basis_matches_per_step_search_on_check_inputs():
    # every point set the weak and strong Ewald checks search: E(P) and
    # E(P) on each facet, on the check inputs of two seeds and on the
    # catalog with a GL(n, Z) image of each member; the bases weak_ewald
    # and strong_ewald return are those of the per-step search too
    rng = random.Random(26)
    inputs = _check_workload_inputs(1) + _check_workload_inputs(5)
    inputs += [q for p in catalog().values() for q in (p, p.transform(random_unimodular(rng, p.dim)))]
    searched = 0
    for p in inputs:
        if not p.origin_interior():
            continue
        points = ewald_set(p).points
        sets = [points] + [
            [x for x in points if polytope.dot(u, x) == c] for u, c in zip(p.normals, p.offsets)
        ]
        bases = [per_step_basis_search(pts, p.dim) for pts in sets]
        assert [find_unimodular_basis(pts, p.dim) for pts in sets] == bases
        searched += len(sets)
        assert weak_ewald(p)[1] == bases[0]
        facets = bases[1:]
        stop = facets.index(None) + 1 if None in facets else len(facets)
        assert strong_ewald(p).bases == tuple(facets[:stop]), p
    assert searched > 1000


def test_is_saturated_on_unimodular_rows():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 6)
        u = random_unimodular(rng, n)
        for k in range(n + 1):
            assert is_saturated(u[:k])
        scaled = (tuple(2 * x for x in u[0]),) + u[1:]
        assert not is_saturated(scaled)


def test_inverse_unimodular_on_gl_images():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 7)
        u = random_unimodular(rng, n, steps=rng.randint(0, 12))
        inv = inverse_unimodular(u)
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert mat_mul(u, inv) == identity and mat_mul(inv, u) == identity
        assert inverse_unimodular(inv) == u
    for bad in (((2, 0), (0, 1)), ((1, 2), (2, 4)), ((0, 0), (0, 0))):
        try:
            inverse_unimodular(bad)
        except ValueError:
            continue
        raise AssertionError("accepted %r" % (bad,))


def test_scaled_inverse_matches_solve_rational():
    rng = random.Random(44)
    singular = 0
    for _ in range(500):
        n = rng.randint(1, 5)
        m = planted_rows(rng, n, n)
        got = scaled_inverse(m)
        if got is None:
            singular += 1
            assert det(m) == 0
            continue
        d, e = got
        assert abs(d) == abs(det(m))
        for col in range(n):
            want = solve_rational(m, [int(i == col) for i in range(n)])
            assert tuple(Fraction(e[r][col], d) for r in range(n)) == want
    assert singular > 20


def test_rational_particular_matches_column_subset_scan():
    rng = random.Random(45)
    checked = 0
    while checked < 800:
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        rows = planted_rows(rng, k, n)
        if rng.random() < 0.3:  # leading zero columns push the pivots right
            for row in rows:
                row[0] = 0
        targets = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]
        if polytope.rank(rows) < k:
            for fn in (polytope._rational_particular, subset_particular):
                try:
                    fn(rows, targets)
                except ValueError:
                    continue
                raise AssertionError("dependent rows accepted")
            continue
        assert polytope._rational_particular(rows, targets) == subset_particular(rows, targets)
        checked += 1


def test_extreme_rays_basis_matches_rank_loop(monkeypatch):
    # _extreme_rays starts from the pivots of its one _reduce call
    picked = []

    def spy(rows, width):
        out = _reduce(rows, width)
        picked.append(out[0])
        return out

    monkeypatch.setattr(polytope, "_reduce", spy)
    rng = random.Random(46)
    for _ in range(400):
        d = rng.randint(1, 5)
        rows = planted_rows(rng, rng.randint(1, 9), d)
        picked.clear()
        try:
            polytope._extreme_rays(rows, d)
        except ValueError:
            assert len(first_independent_rows(rows, d)) < d
            continue
        assert picked[0] == first_independent_rows(rows, d)


def test_first_cone_takes_one_reduce_and_no_inverse(monkeypatch):
    # _extreme_rays reads its basis and its first cone off one _reduce of
    # [R^T | I]; the first cone equals the former construction, the columns
    # of -R_B^-1 from scaled_inverse, and every ray is primitive, in the
    # cone and tight on exactly its mask's rows.  Vertex 0's chart tells a
    # unimodular cone by its edge rays, with no elimination.
    rng = random.Random(47)
    want = []
    for _ in range(400):
        d = rng.randint(1, 5)
        rows = planted_rows(rng, rng.randint(1, 9), d)
        basis = first_independent_rows(rows, d)
        first = None
        if len(basis) == d:
            q, e = scaled_inverse([rows[i] for i in basis])
            first = [intlinalg.primitive_part([-q * x for x in col]) for col in zip(*e)]
        want.append((d, rows, basis, first))
    catalog_cones = []
    for p in catalog().values():
        s = polytope._cone_rows(p, 0)
        catalog_cones.append((p, abs(scaled_inverse([p.normals[i] for i in s])[0])))
    calls = []

    def spy(module, name):
        real = getattr(module, name)
        return lambda *args: calls.append(name) or real(*args)

    monkeypatch.setattr(polytope, "_reduce", spy(polytope, "_reduce"))
    monkeypatch.setattr(polytope, "scaled_inverse", spy(polytope, "scaled_inverse"))
    monkeypatch.setattr(intlinalg, "scaled_inverse", spy(intlinalg, "scaled_inverse"))
    pointed = 0
    for d, rows, basis, first in want:
        calls.clear()
        try:
            rays = polytope._extreme_rays(rows, d)
        except ValueError:
            assert first is None and calls == ["_reduce"]
            continue
        assert calls == ["_reduce"]
        pointed += 1
        for y, mask in rays:
            assert math.gcd(*y) == 1
            dots = [polytope.dot(r, y) for r in rows]
            assert max(dots) <= 0 and mask == sum(1 << i for i, x in enumerate(dots) if x == 0)
        calls.clear()
        assert [y for y, _ in polytope._extreme_rays([rows[i] for i in basis], d)] == first
        assert calls == ["_reduce"]
    assert pointed > 100
    for p, want_det in catalog_cones:
        p = polytope.HPolytope(p.dim, p.normals, p.offsets)
        p.vertices()
        calls.clear()
        assert polytope._unimodular(polytope._vertex_chart(p, 0)[1]) == (want_det == 1)
        assert p.is_simple() and not calls


def test_parse_makes_at_most_two_rank_calls(monkeypatch):
    hexagon = monotone_polygon("hexagon")
    cube_like = polytope.cartesian_product(hexagon, polytope.cartesian_product(hexagon, hexagon))
    assert cube_like.nfacets == 18
    text = serialize_polytope(cube_like, "hexagon3")
    calls = []
    rank = polytope.rank

    def counted(m):
        calls.append(len(m))
        return rank(m)

    monkeypatch.setattr(polytope, "rank", counted)
    parse_polytope(text)
    assert len(calls) <= 2, calls


def test_a_face_chart_takes_one_hermite_form(monkeypatch):
    # face_slice reads its direction lattice, the independence of its facets
    # and its integer origin off one hermite_normal_form, and runs no rank
    calls = []
    hnf, rank = intlinalg.hermite_normal_form, polytope.rank

    def counted_hnf(m):
        calls.append("hermite_normal_form")
        return hnf(m)

    def counted_rank(m):
        calls.append("rank")
        return rank(m)

    monkeypatch.setattr(intlinalg, "hermite_normal_form", counted_hnf)
    monkeypatch.setattr(polytope, "rank", counted_rank)
    charts = 0
    for name, p in catalog().items():
        if not (is_smooth(p)[0] and p.is_lattice()):
            continue
        for codim in range(1, p.dim + 1):
            for face in p.faces(codim):
                for inset in (0, 1):
                    calls.clear()
                    polytope.face_slice(p, face, inset)
                    assert calls == ["hermite_normal_form"], (name, face, inset, calls)
                    charts += 1
    assert charts == 1792
