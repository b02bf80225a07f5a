"""The 18 smooth Fano 3-polytopes of tests/data/monotone_dim3, which
acceptance criterion 10 reads, are the ones tests/fano_census.py generates."""

import os
import random
from collections import Counter

from conftest import random_unimodular
from ewaldkit.fileio import parse_polytope
from ewaldkit.intlinalg import mat_vec
from ewaldkit.polytope import _bits
from fano_census import canonical_form, smooth_fano_3

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "monotone_dim3")


def _rays_and_facets(p):
    """The rays of the Fano polytope dual to the monotone p, and its facets:
    the rows tight at each vertex of p."""
    return p.normals, [tuple(p.normals[i] for i in _bits(t)) for t in p.vertex_masks()]


def _committed():
    out = []
    for name in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            out.append(parse_polytope(fh.read()).polytope)
    return out


def test_the_committed_census_is_the_generated_one():
    generated = smooth_fano_3(2)
    committed = sorted(canonical_form(*_rays_and_facets(p)) for p in _committed())
    assert committed == generated
    assert sorted(Counter(map(len, generated)).items()) == [(4, 1), (5, 4), (6, 7), (7, 4), (8, 2)]
    # the box [−1, 1]^3 misses one of them
    assert len(smooth_fano_3(1)) == 17


def test_canonical_form_is_a_lattice_invariant():
    rng = random.Random(3)
    for p in _committed():
        rays, facets = _rays_and_facets(p)
        m = random_unimodular(rng, 3)
        moved = [mat_vec(m, r) for r in rays]
        moved_facets = [tuple(mat_vec(m, r) for r in f) for f in facets]
        assert canonical_form(moved, moved_facets) == canonical_form(rays, facets)
