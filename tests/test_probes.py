from fractions import Fraction

import pytest

from ewaldkit.bundles import cube, monotone_polygon, monotone_simplex
from ewaldkit.intlinalg import mat_vec
from ewaldkit.polytope import dot
from ewaldkit.probes import (
    displaceable_by_probe,
    is_integrally_transverse,
    star_probe_crosscheck,
)
from lattice_oracles import cube_normalization, interior_sample_grid


def test_integrally_transverse_examples():
    assert is_integrally_transverse((-1, 0), (1, 0))
    assert not is_integrally_transverse((2, 0), (1, 0))
    assert is_integrally_transverse((0, -1), (1, 1))  # hexagon facet normal
    with pytest.raises(ValueError):
        is_integrally_transverse((0, 0), (1, 0))


def test_integrally_transverse_refuses_a_length_mismatch():
    # zip would read (1, 0, 0)·(1, 0) as 1 and answer True
    for lam, u in (((1, 0, 0), (1, 0)), ((1,), (1, 0))):
        with pytest.raises(ValueError, match="length"):
            is_integrally_transverse(lam, u)


def verify_probe(p, u, probe):
    # independent re-check of the three membership conditions
    nf, cf = p.normals[probe.facet], p.offsets[probe.facet]
    assert dot(nf, probe.direction) == -1
    assert dot(nf, probe.start) == cf
    assert all(
        dot(n, probe.start) < c
        for j, (n, c) in enumerate(zip(p.normals, p.offsets))
        if j != probe.facet
    )
    mirror = tuple(2 * Fraction(a) - b for a, b in zip(u, probe.start))
    assert p.contains(mirror, strict=True)
    assert p.contains(u, strict=True)


def test_probe_example_square():
    c2 = cube(2)
    u = (Fraction(1, 2), 0)
    probe = displaceable_by_probe(c2, u, 2)
    assert probe is not None
    verify_probe(c2, u, probe)


def test_center_of_monotone_polytope_never_displaceable():
    for p in [cube(2), cube(3), monotone_simplex(2), monotone_polygon("hexagon")]:
        assert displaceable_by_probe(p, (0,) * p.dim, 3) is None


def test_probe_base_point_must_be_interior():
    with pytest.raises(ValueError):
        displaceable_by_probe(cube(2), (1, 0), 2)


def test_probe_point_must_have_the_polytope_dimension():
    for point in ((Fraction(1, 2),), (Fraction(1, 2), 0, 0)):
        message = "probe point of length %d in dimension 2" % len(point)
        with pytest.raises(ValueError, match=message):
            displaceable_by_probe(cube(2), point, 2)


def test_probe_bound_monotone():
    hexa = monotone_polygon("hexagon")
    for u in interior_sample_grid(hexa, 3)[:10]:
        p1 = displaceable_by_probe(hexa, u, 1)
        if p1 is not None:
            p3 = displaceable_by_probe(hexa, u, 3)
            assert p3 is not None


def test_probe_invariant_under_corner_normalization():
    hexa = monotone_polygon("hexagon")
    m = cube_normalization(hexa)
    image = hexa.transform(m)
    for u in interior_sample_grid(hexa, 3):
        a = displaceable_by_probe(hexa, u, 3) is not None
        b = displaceable_by_probe(image, tuple(mat_vec(m, u)), 3) is not None
        assert a == b


def test_crosscheck_hexagon_and_cube():
    rep = star_probe_crosscheck(monotone_polygon("hexagon"), 4, 3)
    assert rep.star_ewald and rep.all_displaceable and rep.total == 36
    rep = star_probe_crosscheck(cube(3), 3, 2)
    assert rep.star_ewald and rep.all_displaceable


def test_crosscheck_requires_monotone():
    from ewaldkit.bundles import nill_triangle

    with pytest.raises(ValueError):
        star_probe_crosscheck(nill_triangle(1), 3, 2)


def test_probe_library_refuses_a_bound_below_one():
    for bound in (0, -1):
        with pytest.raises(ValueError, match="probe bound must be at least 1, got %d" % bound):
            displaceable_by_probe(cube(2), (Fraction(1, 2), 0), bound)
        with pytest.raises(ValueError, match="probe bound must be at least 1"):
            star_probe_crosscheck(monotone_polygon("square"), 3, bound)
