"""Nill's conjecture, read as: a smooth lattice polytope with the origin in
its interior has a lattice basis in E(P).  The sweep moves every interior
lattice point t of a smooth lattice polytope to the origin and asks
weak_ewald for a basis of P − t; where one of the paper's partial results
applies (nill2d_basis in dimension 2, dim3_origin_edge_basis with the
origin next to an edge of a 3-polytope), it must return a basis as well.
A translate with no basis would be a counterexample.  Each translate is a
fresh polytope, so the sweep also runs E(P)'s lattice search on its own
frame thousands of times."""

import os
from collections import Counter

from ewaldkit.bundles import catalog
from ewaldkit.classify import is_smooth
from ewaldkit.ewald import dim3_origin_edge_basis, nill2d_basis, weak_ewald
from ewaldkit.fileio import parse_polytope
from ewaldkit.intlinalg import det
from ewaldkit.polytope import HPolytope

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "monotone_dim3")


def _sweep(q):
    """(translates, applied): the number of interior lattice points t of q,
    and of the translates P − t on which a partial result applies; each
    translate has a basis."""
    interior = [x for x in q.lattice_points() if q.contains(x, strict=True)]
    applied = 0
    for t in sorted(interior):
        r = q.translate(tuple(-x for x in t))
        ok, basis = weak_ewald(r)
        assert ok and abs(det(basis)) == 1, (q.normals, q.offsets, t)
        if r.dim == 2:
            found = nill2d_basis(r)
        elif r.dim == 3 and any(all(r.offsets[i] == 1 for i in f.tight) for f in r.faces(2)):
            found = dim3_origin_edge_basis(r)
        else:
            continue
        assert found is not None, (q.normals, q.offsets, t)
        applied += 1
    return len(interior), applied


def test_every_interior_lattice_point_of_a_smooth_polytope_sees_a_basis():
    # the catalog's smooth lattice members and their dilates by 2 up to
    # dimension 4 (2·P6 alone has 1,040 interior points, at 4 ms each), and
    # the 18 smooth Fano 3-polytopes of tests/data/monotone_dim3 and their
    # dilates by 2 and 3: 3,383 translates
    counts = Counter()
    for p in catalog().values():
        if not (is_smooth(p)[0] and p.is_lattice()):
            continue
        for k in (1, 2) if p.dim <= 4 else (1,):
            translates, applied = _sweep(HPolytope(p.dim, p.normals, [k * c for c in p.offsets]))
            counts["catalog", k] += translates
            counts["catalog applied", k] += applied
    for name in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            p = parse_polytope(fh.read()).polytope
        for k in (1, 2, 3):
            translates, applied = _sweep(HPolytope(p.dim, p.normals, [k * c for c in p.offsets]))
            counts["fano3", k] += translates
            counts["fano3 applied", k] += applied
    assert counts == {
        ("catalog", 1): 15,
        ("catalog applied", 1): 9,
        ("catalog", 2): 590,
        ("catalog applied", 2): 127,
        ("fano3", 1): 18,
        ("fano3 applied", 1): 18,
        ("fano3", 2): 490,
        ("fano3 applied", 2): 358,
        ("fano3", 3): 2270,
        ("fano3 applied", 3): 790,
    }
