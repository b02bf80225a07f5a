"""displaceable_by_probe on integers scaled by the common denominator
against the Fraction computation it replaced, on the probe grids of the
benchmark's crosscheck workload and on polytopes with rational offsets."""

from fractions import Fraction

import pytest

from conftest import workload_items
from ewaldkit.bundles import cube, monotone_polygon
from ewaldkit.fileio import parse_polytope
from ewaldkit.polytope import HPolytope
from ewaldkit.probes import displaceable_by_probe, interior_sample_grid
from probe_oracles import fraction_probe


def _same_probes(p, points, bound):
    found = 0
    for pt in points:
        got = displaceable_by_probe(p, pt, bound)
        assert got == fraction_probe(p, pt, bound)
        if got is not None:
            assert all(type(x) is Fraction for x in got.start + got.end)
            found += 1
    return found


def test_probes_match_the_fraction_oracle_on_the_crosscheck_grids():
    probes = [it for it in workload_items("crosscheck", 1) if it.kind == "probe"]
    assert probes
    for it in probes:
        p = parse_polytope(it.texts[0]).polytope
        grid = interior_sample_grid(p, it.args["samples"])
        assert _same_probes(p, grid, 3) > 0


def test_probes_match_the_fraction_oracle_with_rational_offsets():
    half = HPolytope(2, cube(2).normals, (Fraction(3, 2), 1, Fraction(5, 3), 2))
    hexagon = monotone_polygon("hexagon")
    points = [(Fraction(1, 2), Fraction(-1, 3)), (Fraction(-5, 6), Fraction(1, 4)), (0, 0), (1, Fraction(1, 7))]
    for p in (half, hexagon):
        inside = [x for x in points if p.contains(x, strict=True)]
        for bound in (1, 2, 3):
            _same_probes(p, inside, bound)
    with pytest.raises(ValueError):
        displaceable_by_probe(half, (Fraction(3, 2), 0))
    with pytest.raises(ValueError):
        fraction_probe(half, (Fraction(3, 2), 0), 3)
