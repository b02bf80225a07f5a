"""The table of E(P) and its facet masks (ewald._tight_masks), built by one
half-space lattice search, against the dot-product build it replaced and the
brute-force E(P), both kept in lattice_oracles; and its per-facet columns
(ewald._facet_columns), the one view of it the Ewald conditions read."""

import random
from fractions import Fraction

from conftest import random_unimodular
from ewaldkit import ewald, intlinalg
from ewaldkit.bundles import catalog, cube, del_pezzo, monotone_polygon, monotone_simplex, segment
from ewaldkit.counting import facet_ewald_split
from ewaldkit.ewald import (
    _facet_columns,
    _tight_masks,
    ewald_set,
    fs_property,
    star_ewald,
    strong_ewald,
)
from ewaldkit.intlinalg import mat_vec
from ewaldkit.polytope import HPolytope, _lattice_search, _slab_frame, cartesian_product
from lattice_oracles import brute_ewald, dot_tight_masks


def _cases():
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
    hexagon, triangle = monotone_polygon("hexagon"), monotone_polygon("triangle")
    yield "triangle_x_segment", cartesian_product(triangle, segment())
    yield "hexagon_x_triangle", cartesian_product(hexagon, triangle)
    yield "simplex3_x_segment", cartesian_product(monotone_simplex(3), segment())
    for k in (3, 5):
        p = del_pezzo(k)
        yield "dp%d" % k, p
        yield "dp%d@gl" % k, p.transform(random_unimodular(rng, p.dim))
        yield "dp%d@thirds" % k, _thirds(p)
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


def _build(p, monkeypatch):
    """The table of a fresh copy of p, with the number of leaves its search
    visited and of mat_vec calls it made."""
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
    q = HPolytope(p.dim, p.normals, p.offsets)
    table = _tight_masks(q)
    monkeypatch.undo()
    return q, table, counts


def test_table_matches_dot_products_and_brute_force(monkeypatch):
    empty = unit_frames = mixed = 0
    for label, p in _cases():
        q, table, counts = _build(p, monkeypatch)
        want = brute_ewald(q)
        assert table == dot_tight_masks(q, want), label
        e = ewald_set(q)
        assert e.points == want and e.ordered() == tuple(lam for lam, _, _ in table), label
        # the columns are the table's masks transposed
        on, opp = _facet_columns(q)
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
        unit_frames += len(_slab_frame(q)[0]) > q.nfacets
        integral = {isinstance(c, int) for c in q.offsets}
        mixed += len(integral) == 2
    assert empty == 16 and unit_frames >= 6 and mixed >= 15


def test_the_conditions_walk_the_table_a_bounded_number_of_times(monkeypatch):
    walks = []

    class Counted(tuple):
        def __iter__(self):
            walks.append(1)
            return super().__iter__()

    table = ewald._tight_masks
    monkeypatch.setattr(ewald, "_tight_masks", lambda p: Counted(table(p)))
    p = cube(4)
    q = HPolytope(p.dim, p.normals, p.offsets)  # a fresh copy: nothing cached
    assert strong_ewald(q).ok and star_ewald(q) == (True, None) and fs_property(q)
    splits = [facet_ewald_split(q, i) for i in range(q.nfacets)]
    assert splits == [splits[0]] * q.nfacets
    # ewald_set and _facet_columns walk it once each; star alone checks 80 faces
    assert len(walks) <= 2 < sum(len(q.faces(c)) for c in range(1, q.dim + 1))
