"""The listing of E(P) with its facet columns (ewald._ewald_listing), built
by one half-space lattice search and one transpose, against the dot-product
facet masks and the brute-force E(P), both kept in lattice_oracles; and the
count of E(P) that len(ewald_set(p)) reads where nothing lists E(P)."""

import gc
import io
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

from conftest import random_unimodular
from ewaldkit import ewald, intlinalg
from ewaldkit.bundles import (
    catalog,
    cube,
    del_pezzo,
    monotone_polygon,
    monotone_simplex,
    nill_triangle,
    segment,
    ssb,
)
from ewaldkit.classify import is_monotone
from ewaldkit.cli import main
from ewaldkit.counting import ewald_count_simplex, ewald_count_ssb, facet_ewald_split
from ewaldkit.ewald import (
    _LISTED,
    _ewald_listing,
    ewald_set,
    fs_property,
    star_ewald,
    strong_ewald,
)
from ewaldkit.fileio import analyze_polytope, serialize_polytope
from ewaldkit.intlinalg import mat_vec
from ewaldkit.polytope import HPolytope, _first_cone_det, _lattice_search, _slab_frame, cartesian_product
from lattice_oracles import brute_ewald, dot_tight_masks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cases():
    """The catalog, its GL(n, Z) images, translates (some with an empty
    E(P)), rational offsets and dilates; products; DP3 and DP5, whose
    frames take the unimodular pivot rows of their non-simple first vertex;
    the 16-cell (|det| 8 there) and polygons whose first vertex has
    |det| = 2 (|x| + |y| <= 1 and its triple) or 5 (T_2), so that their
    frames append the unit rows; and dimensions 0 and 1."""
    rng = random.Random(20261018)
    for name, p in catalog().items():
        yield name, p
        for k in range(2):
            yield "%s@gl%d" % (name, k), p.transform(random_unimodular(rng, p.dim))
        # the origin at the first vertex, then beyond the lowest first coordinate
        yield name + "@vertex", p.translate(tuple(-x for x in p.vertices()[0]))
        yield name + "@thirds", _thirds(p)
        low = min(v[0] for v in p.vertices())
        yield name + "@outside", p.translate((1 - low,) + (0,) * (p.dim - 1))
        double = HPolytope(p.dim, p.normals, [2 * c for c in p.offsets])
        yield name + "*2", double
        yield name + "*2+e1", double.translate((1,) + (0,) * (p.dim - 1))
    hexagon, triangle = monotone_polygon("hexagon"), monotone_polygon("triangle")
    yield "triangle_x_segment", cartesian_product(triangle, segment())
    yield "hexagon_x_triangle", cartesian_product(hexagon, triangle)
    yield "simplex3_x_segment", cartesian_product(monotone_simplex(3), segment())
    for k in (3, 5):
        p = del_pezzo(k)
        yield "dp%d" % k, p
        yield "dp%d@gl" % k, p.transform(random_unimodular(rng, p.dim))
        yield "dp%d@thirds" % k, _thirds(p)
    cross4 = HPolytope(4, list(product((-1, 1), repeat=4)), [1] * 16)
    yield "16-cell", cross4
    yield "16-cell@gl", cross4.transform(random_unimodular(rng, 4))
    yield "16-cell+e1/2", cross4.translate((Fraction(1, 2), 0, 0, 0))
    diamond = HPolytope(2, list(product((-1, 1), repeat=2)), [1] * 4)
    for k, p in enumerate((diamond, HPolytope(2, diamond.normals, [3] * 4), nill_triangle(2))):
        yield "frame%d" % k, p
        yield "frame%d@gl" % k, p.transform(random_unimodular(rng, 2))
        yield "frame%d+e1/3" % k, p.translate((Fraction(1, 3), 0))
    yield "dim0", HPolytope(0, (), ())
    yield "dim0_row", HPolytope(0, ((),), (1,))
    yield "dim1", HPolytope(1, ((-1,), (1,)), (Fraction(3, 2), 4))
    yield "dim1_boundary", HPolytope(1, ((-1,), (1,)), (0, 3))
    yield "dim1_outside", HPolytope(1, ((-1,), (1,)), (-1, 3))


def _thirds(p):
    """2P − v, v the first vertex of P, with each offset c made (2c + 1)/3:
    integral where c ≡ 1 mod 3, as on the rows through v when P's offsets
    are 1, and a third elsewhere."""
    q = HPolytope(p.dim, p.normals, [2 * c for c in p.offsets])
    q = q.translate(tuple(-x for x in p.vertices()[0]))
    return HPolytope(p.dim, p.normals, [Fraction(2 * c + 1, 3) for c in q.offsets])


def _fresh(p):
    return HPolytope(p.dim, p.normals, p.offsets)  # a copy with nothing cached


_COUNTED = (ewald._ewald_count.__wrapped__, ())  # where a polytope caches its count


def _build(p, monkeypatch):
    """The listing of a fresh copy of p, with the number of leaves its
    search visited and of mat_vec calls it made."""
    counts = {"leaves": 0, "mat_vec": 0}

    def counted_search(*args):
        search = _lattice_search(*args)

        def counted(d, visit, **kwargs):
            def leaf(x, e):
                counts["leaves"] += 1
                return visit(x, e)

            return search(d, leaf, **kwargs)

        return counted

    def counted_mat_vec(m, v):
        counts["mat_vec"] += 1
        return mat_vec(m, v)

    monkeypatch.setattr(ewald, "_lattice_search", counted_search)
    for module in (ewald, intlinalg):
        monkeypatch.setattr(module, "mat_vec", counted_mat_vec)
    q = _fresh(p)
    listing = _ewald_listing(q)
    monkeypatch.undo()
    return q, listing, counts


def test_table_matches_dot_products_and_brute_force(monkeypatch):
    empty = unit_frames = pivot_frames = mixed = det_two = 0
    for label, p in _cases():
        # |E(P)| before any listing is counted, and lists nothing
        fresh = _fresh(p)
        size = len(ewald_set(fresh))
        assert _LISTED not in fresh._cache, label
        q, (order, on, opp), counts = _build(p, monkeypatch)
        want = brute_ewald(q)
        assert size == len(want) == len(ewald_set(q)) and _COUNTED not in q._cache, label
        table = dot_tight_masks(q, want)
        assert order == tuple(lam for lam, _, _ in table), label
        e = ewald_set(q)
        assert e.points == want and e.ordered() == order, label
        # the columns are the dot-product masks transposed
        for k, (_, t, tn) in enumerate(table):
            assert t == sum(1 << i for i, col in enumerate(on) if col >> k & 1), label
            assert tn == sum(1 << i for i, col in enumerate(opp) if col >> k & 1), label
        assert len(on) == len(opp) == q.nfacets, label
        assert max(on + opp, default=0) >> len(table) == 0, label
        # one leaf per pair ±λ and one for 0; the leaves carry λ, so no
        # matrix product maps them
        assert counts["leaves"] == (len(want) + 1) // 2, label
        assert counts["mat_vec"] == 0, label
        empty += not want
        unit = len(_slab_frame(q)[0]) > q.nfacets
        unit_frames += unit
        pivot_frames += not unit and not q.is_simple()
        integral = {isinstance(c, int) for c in q.offsets}
        mixed += len(integral) == 2
        det_two += _first_cone_det(q) == 2
    assert empty == 16 and unit_frames >= 12 and pivot_frames >= 6 and mixed >= 15 and det_two == 6


def test_the_conditions_walk_the_table_a_bounded_number_of_times(monkeypatch):
    runs, transposes = _runs(monkeypatch), []
    transpose = ewald._row_vertex_masks

    def counted(masks, nrows):
        transposes.append(nrows)
        return transpose(masks, nrows)

    monkeypatch.setattr(ewald, "_row_vertex_masks", counted)
    p = cube(4)
    q = HPolytope(p.dim, p.normals, p.offsets)  # a fresh copy: nothing cached
    assert strong_ewald(q).ok and star_ewald(q) == (True, None) and fs_property(q)
    splits = [facet_ewald_split(q, i) for i in range(q.nfacets)]
    assert splits == [splits[0]] * q.nfacets
    # one listing of E(P) and one transpose of it; star alone checks 80 faces
    assert runs == ["list"] and transposes == [2 * q.nfacets]
    assert len(runs) + len(transposes) < sum(len(q.faces(c)) for c in range(1, q.dim + 1))


def test_a_count_keys_its_memo_on_the_live_rows_and_frees_it():
    # [-1, 1]^12 on its own coordinates: the row -x_t <= 1 is live up to
    # level t, so every level sees one key; keyed on a finished row or on a
    # coordinate, level k would hold 3^k keys
    n = 12
    units = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    rows = units + [tuple(-x for x in u) for u in units]
    search = _lattice_search(rows, list(range(n)), [1] * 2 * n)
    search([0] * 2 * n)  # warm up, so that the interpreter's own caches are made
    gc.disable()  # a memo kept alive by a reference cycle would show below
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        size = search([0] * 2 * n)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert size == 3**n
    assert peak - before < 32_000 and after - before < 1_000


def test_a_count_memoizes_only_levels_that_are_not_flat():
    # the triangle x, y >= -c, x + y <= c, searched in the rows of its
    # vertex (-c, -c): z_0 moves the row x + y, which level 1 reads, so
    # level 0 walks its 2c + 1 values; level 1 is flat, and each of them
    # costs one span and no memo key, where a key per value would hold
    # some 30 MB
    c = 10**5
    p = HPolytope(2, [(-1, 0), (0, -1), (1, 1)], [c, c, c])
    ewald._ewald_search(p)  # the search's own tables, built before the count
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        size = ewald_set(p).size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert size == 3 * c * c + 3 * c + 1  # the hexagon |x|, |y|, |x + y| <= c
    assert peak - before < 100_000


def test_a_box_counts_without_walking_its_ranges():
    # every level of a box is flat, in its own rows and in a GL(3, Z) image:
    # the count reads no value of any coordinate, and a walk of 2c + 1
    # values would not end before the timeout
    c = 10**15
    script = (
        "from ewaldkit.bundles import cube\n"
        "from ewaldkit.ewald import ewald_set\n"
        "from ewaldkit.polytope import HPolytope\n"
        "box = HPolytope(3, cube(3).normals, [%d] * 6)\n"
        "image = box.transform(((1, 2, 0), (0, 1, 1), (1, 2, 1)))\n"
        "print(ewald_set(box).size, ewald_set(image).size)\n" % c
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert run.stdout.split() == [str((2 * c + 1) ** 3)] * 2, run.stderr
    square = "dim 2\nfacets 4\n1 0 {0}\n-1 0 {0}\n0 1 {0}\n0 -1 {0}\n".format(c)
    cli = "import sys\nfrom ewaldkit.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    run = subprocess.run(
        [sys.executable, "-c", cli, "check", "-", "--skip-neat"],
        input=square, capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == "error: E(P) has %d points, above the listing limit of 200000; pass --allow-large to override\n" % (
        2 * c + 1
    ) ** 2


def _simplex(n, c):
    """x_i >= −c, x_1 + ... + x_n <= c: the triangle at n = 2."""
    rows = [tuple(-int(i == k) for k in range(n)) for i in range(n)] + [(1,) * n]
    return HPolytope(n, rows, [c] * (n + 1))


def test_the_limit_stops_the_count_at_its_first_total_above_it():
    # the triangle searched in the rows of its vertex (−c, −c): level 0
    # walks 2c + 1 values, and the first one's c + 1 completions pass the
    # limit, so the count stops there; EwaldSet.size still walks them all
    c = 10**9
    triangle = "dim 2\nfacets 3\n-1 0 {0}\n0 -1 {0}\n1 1 {0}\n".format(c)
    cli = "import sys\nfrom ewaldkit.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run(
        [sys.executable, "-c", cli, "check", "-", "--skip-neat"],
        input=triangle, capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == (
        "error: E(P) has at least %d points, above the listing limit of 200000; pass --allow-large to override\n"
        % (c + 1)
    )
    for c in (10**3, 10**6):
        assert ewald_set(_simplex(2, c)).size == 3 * c * c + 3 * c + 1


def test_values_without_completions_do_not_dominate_a_capped_count(monkeypatch):
    # a walk also takes the values of z_k that have no completion, which add
    # nothing to the running total; on simplices and their GL(n, Z) images
    # they stay few, so a capped count walks under a thousand values at any c
    polytope = sys.modules["ewaldkit.polytope"]
    steps = [0]

    def counted(*args):
        for v in range(*args):
            steps[0] += 1
            yield v

    rng = random.Random(20261019)
    for c in (10**3, 10**6, 10**9):
        for n in (2, 3, 4):
            p = _simplex(n, c)
            for q in (p, p.transform(random_unimodular(rng, n))):
                search, centre, _ = ewald._ewald_search(q)
                monkeypatch.setattr(polytope, "range", counted, raising=False)
                steps[0] = 0
                found, ended = search(centre, cap=200_000)
                monkeypatch.undo()
                assert found > 200_000 and not ended
                assert steps[0] < 1000, (n, c, steps[0])


def test_reading_e_p_leaves_no_reference_to_the_polytope():
    # a cache entry that referred back to its polytope would make a cycle
    # that only the cyclic collector frees
    for read in (len, lambda e: e.ordered(), lambda e: e.points, lambda e: (0, 0, 0) in e):
        p = _fresh(cube(3))
        before = sys.getrefcount(p)
        read(ewald_set(p))
        assert sys.getrefcount(p) == before and p._cache


def test_exact_counts_that_no_listing_reaches(monkeypatch):
    def unlisted(p):
        raise AssertionError("E(P) was listed")

    monkeypatch.setattr(ewald, "_ewald_listing", unlisted)
    sizes = [len(ewald_set(monotone_simplex(n))) for n in range(1, 25)]
    assert sizes == [ewald_count_simplex(n) for n in range(1, 25)]
    assert sizes[-1] == 82_176_836_301
    for n in range(2, 17):
        assert [len(ewald_set(ssb(n, k))) for k in range(n)] == [ewald_count_ssb(n, k) for k in range(n)]
    assert [len(ewald_set(cube(n))) for n in range(1, 13)] == [3**n for n in range(1, 13)]


def _runs(monkeypatch):
    """'list' or 'count' for every run of E(P)'s lattice search from now on
    that lists or counts E(P): the search also answers neat classes, and
    those runs are not recorded."""
    runs = []

    def recorded(*frame):
        search = _lattice_search(*frame)

        def run(d, visit=None, halfspace=False):
            if visit is None or halfspace:
                runs.append("count" if visit is None else "list")
            return search(d, visit, halfspace)

        return run

    monkeypatch.setattr(ewald, "_lattice_search", recorded)
    return runs


def test_no_input_both_lists_and_counts(capsys, monkeypatch):
    runs = _runs(monkeypatch)
    for name, p in catalog().items():
        # the Ewald conditions list E(P), and ewald_count reads that listing
        assert p.origin_interior()
        r = analyze_polytope(_fresh(p), run_neat=False)["result"]
        assert runs == ["list"] and r["ewald_count"] == len(brute_ewald(p)), name
        runs.clear()
        low = min(v[0] for v in p.vertices())
        outside = p.translate((1 - low,) + (0,) * (p.dim - 1))
        r = analyze_polytope(outside)["result"]
        assert runs == ["count"] and r["ewald_count"] == len(brute_ewald(outside)), name
        runs.clear()
        # the ewald command prints the size of the order it lists
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_polytope(p, name)))
        assert main(["ewald", "-"]) == 0 and runs == ["list"], name
        head, *points = capsys.readouterr().out.splitlines()
        assert head == "%d Ewald points" % len(points) and len(points) == len(brute_ewald(p)), name
        runs.clear()
        if is_monotone(p):
            facet_ewald_split(_fresh(p), 0)
            assert runs == ["list"], name
            runs.clear()
