"""oda_instance_check, which compares the number of distinct sums of a
lattice point of P and one of Q with the count of the lattice points of
P + Q, against the pairwise tuple sums it replaced (lattice_oracles)."""

import importlib

import pytest

from conftest import workload_items
from ewaldkit.bundles import catalog
from ewaldkit.fileio import parse_polytope
from ewaldkit.polytope import HPolytope, convex_hull, oda_instance_check
from lattice_oracles import oda_pairwise_sums

polytope = importlib.import_module("ewaldkit.polytope")


def _dilate(p, k):
    return HPolytope(p.dim, p.normals, [k * c for c in p.offsets])


def _reeve(r):
    """conv(0, e1, e2, e1 + e2 + r·e3): no lattice point but its vertices."""
    return convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, r)])


def _oda_pairs():
    for seed in (1, 5):
        for it in workload_items("crosscheck", seed):
            if it.kind == "oda":
                p, q = (parse_polytope(text).polytope for text in it.texts)
                yield "%s@%d" % (it.label, seed), p, q
                yield "%s@%d swapped" % (it.label, seed), q, p
    for name, p in catalog().items():
        # the oracle takes some 17 s on paffenholz (dimension 6) at k = 2
        for k in (1, 2, 3) if p.dim <= 4 else (1,):
            yield "%s, %d%s" % (name, k, name), p, _dilate(p, k)


def test_the_count_agrees_with_the_pairwise_sums():
    held = 0
    for label, p, q in _oda_pairs():
        got = oda_instance_check(p, q)
        assert got == oda_pairwise_sums(p, q), label
        held += got
    assert held > 100


def test_the_reeve_tetrahedra_fail_the_identity_on_both_sides():
    # T_r + T_r holds the lattice point (1, 1, 1), which is no sum of two
    # of T_r's four lattice points, its vertices
    for r in (2, 3):
        t = _reeve(r)
        assert sorted(t.lattice_points()) == sorted(t.vertices())
        assert oda_instance_check(t, t) is False
        assert oda_pairwise_sums(t, t) is False


def test_the_sum_is_counted_not_listed(monkeypatch):
    # the lattice points of P and Q are listed, those of P + Q only counted
    listed, counted = [], []
    slab_points, slab_search = polytope._slab_points, polytope._slab_search

    def listing(p, *args):
        listed.append(p)
        return slab_points(p, *args)

    def search(p, *args):
        found, centre = slab_search(p, *args)

        def spy(d, visit=None, **kwargs):
            (counted if visit is None else []).append(p)
            return found(d, visit, **kwargs)

        return spy, centre

    monkeypatch.setattr(polytope, "_slab_points", listing)
    monkeypatch.setattr(polytope, "_slab_search", search)
    p = catalog()["hexagon"]
    q = _dilate(p, 2)
    assert oda_instance_check(p, q)
    assert listed == [q, p] and len(counted) == 1
    assert sorted(zip(counted[0].normals, counted[0].offsets)) == sorted(zip(p.normals, (3 * c for c in p.offsets)))


def test_non_lattice_inputs_are_refused():
    half = HPolytope(2, catalog()["square"].normals, [1, 1, 1, 0.5])
    with pytest.raises(ValueError, match="integer vertices"):
        oda_instance_check(catalog()["square"], half)
