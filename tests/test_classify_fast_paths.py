"""Classification and the weak/strong Ewald bases against the paths they
replaced: edge directions from one scaled inverse per simple vertex, the
margin test for deep smoothness and the basis search over the presorted
E(P) must give the same flags, witnesses and bases as the adjacency scan,
the corner scan and the sort-then-search in classify_oracles."""

import importlib
import random

import pytest

from classify_oracles import (
    adjacency_edge_directions,
    corner_scan_deeply_smooth,
    determinant_smooth,
    missing_corners_at_first_failure,
    sorted_basis_search,
    sorted_strong_bases,
    sorted_weak_basis,
)
from conftest import random_unimodular
from ewaldkit.bundles import catalog, del_pezzo, monotone_polygon, segment, smooth_simplex, ssb
from ewaldkit.classify import classify, is_deeply_smooth, is_smooth, vertex_edge_directions
from ewaldkit.ewald import strong_ewald, weak_ewald
from ewaldkit.intlinalg import find_unimodular_basis
from ewaldkit.polytope import HPolytope, cartesian_product

# the package re-exports the function classify under the submodule's name
classify_module = importlib.import_module("ewaldkit.classify")


def _inputs():
    rng = random.Random(8)
    members = list(catalog().values())
    out = list(members)
    for p in members:
        e1 = tuple(int(i == 0) for i in range(p.dim))
        out.append(p.translate(e1))
        out.append(p.translate(tuple(-2 * x for x in e1)))
        out.append(p.transform(random_unimodular(rng, p.dim)))
    out.append(cartesian_product(segment(), ssb(3, 2)))
    out.append(cartesian_product(monotone_polygon("triangle"), monotone_polygon("square")))
    out += [del_pezzo(3), del_pezzo(5), smooth_simplex(3, 1), smooth_simplex(4, 2)]
    return out


def _fresh(p):
    return HPolytope(p.dim, p.normals, p.offsets)


def test_classification_matches_the_adjacency_and_corner_scans(monkeypatch):
    several_missing = 0
    for p in _inputs():
        for i in range(len(p.vertices())):
            assert vertex_edge_directions(p, i) == adjacency_edge_directions(p, i)
        assert is_smooth(p) == determinant_smooth(p)
        if is_smooth(p)[0] and p.is_lattice():
            got = is_deeply_smooth(p)
            assert got == corner_scan_deeply_smooth(p)
            if missing_corners_at_first_failure(p) > 1:
                assert not got[0]
                several_missing += 1
        fast = classify(_fresh(p)).as_dict()
        with monkeypatch.context() as m:
            m.setattr(classify_module, "is_smooth", determinant_smooth)
            m.setattr(classify_module, "is_deeply_smooth", corner_scan_deeply_smooth)
            assert fast == classify(_fresh(p)).as_dict()
    # the witness order is exercised where the first failing vertex misses
    # more than one corner
    assert several_missing >= 5


def test_weak_and_strong_bases_match_the_sorted_search():
    checked = 0
    for p in _inputs():
        if not p.origin_interior():
            continue
        assert weak_ewald(p)[1] == sorted_weak_basis(p)
        assert strong_ewald(p).bases == sorted_strong_bases(p)
        checked += 1
    assert checked > 30


def test_find_unimodular_basis_matches_the_sorted_search():
    rng = random.Random(88)
    for _ in range(300):
        n = rng.randint(1, 4)
        pts = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 14))]
        want = sorted_basis_search(pts, n)
        assert find_unimodular_basis(pts, n) == want
        rng.shuffle(pts)
        assert find_unimodular_basis(pts + [(0,) * n], n) == want
    with pytest.raises(ValueError):
        find_unimodular_basis([(1,)], 0)
