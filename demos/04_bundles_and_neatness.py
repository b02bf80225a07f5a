#!/usr/bin/env python3
"""Polytope bundles in canonical coordinates, displacement enumeration, and
bounded neatness verdicts."""

from ewaldkit import (
    BundleSpec,
    build_bundle,
    bundle_classification,
    ewald_set,
    is_neat,
    monotone_polygon,
    monotone_simplex,
    neat_transfer_bundle_check,
    normally_isomorphic_displacements,
    paffenholz_p6,
    segment,
    small_fiber_bundle,
    ssb_as_bundle,
)
from ewaldkit.displace import displace

print("=== a bundle: hexagon base, segment fiber, twisted by (1,1) ===")
spec = BundleSpec(
    base=monotone_polygon("hexagon"),
    fiber=segment(),
    twist=((0, 0), (1, 1)),
    shifts=(0, 0),
)
total = build_bundle(spec)
print(f"total space: dim {total.dim}, {total.nfacets} facets, "
      f"{len(total.vertices())} vertices")
print("classification (simple, smooth, monotone):", bundle_classification(spec))
print("fiber Ewald points lift:", all(
    (0, 0) + y in ewald_set(total).points for y in ewald_set(segment()).points))

print()
print("=== SSB(3,2) as a bundle over the segment ===")
print("rows:", list(zip(build_bundle(ssb_as_bundle(3, 2)).normals,
                        build_bundle(ssb_as_bundle(3, 2)).offsets)))

print()
print("=== displacements of the square ===")
sq = monotone_polygon("square")
qual = list(normally_isomorphic_displacements(sq, 1))
print(f"fan-preserving b with |b| <= 1: {len(qual)} of 81")
shrunk = displace(sq, (-1, -1, -1, -1))
print("b = (-1,-1,-1,-1) flags:", shrunk.analyze())

print()
print("=== neatness: bounded search for a symmetric-lattice-point failure ===")
for name, p in [
    ("segment", segment()),
    ("simplex dim 3", monotone_simplex(3)),
    ("hexagon", monotone_polygon("hexagon")),
]:
    v = is_neat(p, 2)
    print(f"  {name}: {v.status} (radius {v.radius})")

print()
print("=== neatness transfers through bundles ===")
ok = neat_transfer_bundle_check(segment(), monotone_simplex(2), ((0,), (0,), (1,)), 1)
print(f"base [-1,1], fiber monotone triangle, twist 1: transfer holds = {ok}")
ok = neat_transfer_bundle_check(monotone_polygon("hexagon"), segment(), ((0, 0), (1, 1)), 1)
print(f"base hexagon, fiber segment, twist (1,1): transfer holds = {ok}")

print()
print("=== exploratory: the Paffenholz 6-polytope (no paper claim) ===")
p6 = paffenholz_p6()
v = is_neat(p6, 1)
print(f"paffenholz radius 1: {v.status}")
v = is_neat(p6, 2)
print(f"paffenholz radius 2: {v.status}")
print("(only a counterexample would be conclusive; these are bounded searches)")

print()
print("=== iterated small fiber bundles: few Ewald points ===")
b = segment()
for fiber_dim in (2, 3):
    sfb = small_fiber_bundle(segment(), 0, fiber_dim)
    print(f"segment + Delta_{fiber_dim}: dim {sfb.dim}, |E| = {len(ewald_set(sfb))}")
b2 = small_fiber_bundle(segment(), 0, 2)
twice = small_fiber_bundle(b2, b2.nfacets - 1, 2)
print(f"iterated twice with Delta_2: dim {twice.dim}, |E| = {len(ewald_set(twice))}")
