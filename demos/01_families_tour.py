#!/usr/bin/env python3
"""Tour of the built-in polytope families: construction, classification,
vertex sets, and Ewald counts."""

from ewaldkit import (
    cube,
    del_pezzo,
    ewald_set,
    monotone_polygon,
    monotone_simplex,
    nill_triangle,
    paffenholz_p6,
    smooth_simplex,
    ssb,
)
from ewaldkit.classify import classify


def show(name, p):
    r = classify(p)
    flags = []
    for key in ("simple", "lattice", "smooth", "reflexive", "monotone",
                "ut_free", "deeply_smooth", "deeply_monotone"):
        val = getattr(r, key)
        if val is True:
            flags.append(key)
        elif val is False:
            flags.append("~" + key)
    print(f"{name:24s} dim={p.dim} facets={p.nfacets} "
          f"vertices={len(p.vertices())} |E|={len(ewald_set(p))}")
    print(f"{'':24s} {' '.join(flags)}")


print("=== the five monotone polygons ===")
for name in ("triangle", "trapezoid", "square", "pentagon", "hexagon"):
    show(name, monotone_polygon(name))

print()
print("=== monotone simplices and cubes ===")
for n in (1, 2, 3, 4, 5):
    show(f"simplex dim {n}", monotone_simplex(n))
for n in (2, 3, 4):
    show(f"cube dim {n}", cube(n))

print()
print("=== smooth simplices k*delta_n (deeply smooth iff k >= n) ===")
for k in (1, 2, 3, 4):
    show(f"3delta; size {k}", smooth_simplex(3, k))

print()
print("=== del Pezzo polytopes (monotone iff n = 1 or n even) ===")
for n in (2, 3, 4):
    show(f"del Pezzo dim {n}", del_pezzo(n))

print()
print("=== simplex-segment bundles SSB(n,k) ===")
for n in (2, 3, 4):
    for k in range(n):
        show(f"SSB({n},{k})", ssb(n, k))
print("SSB(3,2) vertices:", sorted(ssb(3, 2).vertices()))

print()
print("=== the Nill triangles T_a: reflexive polygons with E = {0} ===")
for a in (1, 2, 3):
    show(f"T_{a}", nill_triangle(a))

print()
print("=== the Paffenholz 6-polytope ===")
show("paffenholz", paffenholz_p6())
