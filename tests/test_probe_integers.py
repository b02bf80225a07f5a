"""displaceable_by_probe and star_probe_crosscheck, which read the probes
of a point as the AND of one threshold mask per row on integers scaled by
the common denominator, against the Fraction computation they replaced, on
the probe grids of the benchmark's crosscheck workload and on polytopes with
rational offsets."""

from fractions import Fraction
from itertools import product

import pytest

import probe_oracles
from conftest import workload_items
from ewaldkit import probes
from ewaldkit.bundles import cube, monotone_polygon
from ewaldkit.fileio import parse_polytope
from ewaldkit.intlinalg import scan_key
from ewaldkit.polytope import HPolytope
from ewaldkit.probes import displaceable_by_probe, star_probe_crosscheck
from lattice_oracles import interior_sample_grid
from probe_oracles import fraction_probe

# x + 2y <= 7/2, x >= -2, y >= -3/2, 2x - y <= 9/4, -x + 3y <= 5: not
# monotone, no offset 1, and rows that read both coordinates
SKEW = HPolytope(
    2, ((1, 2), (-1, 0), (0, -1), (2, -1), (-1, 3)), (Fraction(7, 2), 2, Fraction(3, 2), Fraction(9, 4), 5)
)


def _probe_items(seed):
    for it in workload_items("crosscheck", seed):
        if it.kind == "probe":
            yield it.label, parse_polytope(it.texts[0]).polytope, it.args["samples"]


def _oracle_report(p, samples, bound):
    """(total, displaceable, undisplaceable points) by fraction_probe."""
    grid = interior_sample_grid(p, samples)
    bad = tuple(pt for pt in grid if fraction_probe(p, pt, bound) is None)
    return len(grid), len(grid) - len(bad), bad


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


def test_probes_match_the_fraction_oracle_off_the_monotone_case():
    points = [pt for samples in (2, 3, 4) for pt in interior_sample_grid(SKEW, samples)]
    points += [(Fraction(-7, 4), Fraction(1, 9)), (Fraction(1, 3), Fraction(-4, 3)), (Fraction(5, 6), 1)]
    assert len(points) > 100
    for bound in (1, 2, 3):
        found = _same_probes(SKEW, points, bound)
        assert 0 < found < len(points)


def test_crosscheck_reports_match_the_fraction_oracle():
    for seed in (1, 5):
        for label, p, samples in _probe_items(seed):
            rep = star_probe_crosscheck(p, samples, 3)
            assert (rep.total, rep.displaceable, rep.undisplaceable_points) == _oracle_report(p, samples, 3), label


def _spy(monkeypatch, name):
    made = []
    real = getattr(probes, name)

    def spy(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(probes, name, spy)
    return made


def test_crosscheck_builds_no_probe_and_no_fraction_per_displaceable_sample(monkeypatch):
    made, fractions = _spy(monkeypatch, "Probe"), _spy(monkeypatch, "Fraction")
    for label, p, samples in _probe_items(1):
        rep = star_probe_crosscheck(p, samples, 3)
        assert rep.displaceable == rep.total > 0, label
    assert made == [] and fractions == []


def test_undisplaceable_samples_match_the_oracle_in_a_half_box(monkeypatch):
    # every star Ewald sample has a probe at bound 1, so no crosscheck grid
    # has an undisplaceable one: drop the directions with a negative first
    # coordinate, on both sides, and the facets that need one have no probe
    full = probes._directions

    def half(n, bound):
        dirs = tuple(lam for lam in full(n, bound)[0] if lam[0] >= 0)
        return dirs, tuple(zip(*dirs))

    monkeypatch.setattr(probes, "_directions", half)
    monkeypatch.setattr(probe_oracles, "_directions", half)
    fractions, undisplaceable = _spy(monkeypatch, "Fraction"), 0
    for label, p, samples in _probe_items(1):
        before = len(fractions)
        rep = star_probe_crosscheck(p, samples, 2)
        # one Fraction per coordinate of each undisplaceable sample
        assert len(fractions) - before == p.dim * len(rep.undisplaceable_points), label
        assert (rep.total, rep.displaceable, rep.undisplaceable_points) == _oracle_report(p, samples, 2), label
        undisplaceable += len(rep.undisplaceable_points)
    assert undisplaceable > 0


def test_directions_are_the_nonzero_box_in_scan_order():
    # the sort by scan_key, which the shells make unnecessary, as the oracle
    for n in range(1, 5):
        for bound in range(1, 4):
            box = sorted((t for t in product(range(-bound, bound + 1), repeat=n) if any(t)), key=scan_key)
            dirs, cols = probes._directions(n, bound)
            assert dirs == tuple(box) and cols == tuple(zip(*box)), (n, bound)
