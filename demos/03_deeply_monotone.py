#!/usr/bin/env python3
"""Deeply smooth polytopes: corner parallelepipeds, face displacements, and
the three equivalent characterizations."""

from ewaldkit import (
    HPolytope,
    deeply_smooth_characterizations_agree,
    face_slice,
    first_displacement,
    is_deeply_smooth,
    is_reflexive,
    is_smooth,
    monotone_simplex,
    smooth_simplex,
    ssb,
    star_ewald,
    strong_ewald,
)

print("=== smooth simplices: k*delta_n is deeply smooth iff k >= n ===")
for n in (2, 3):
    for k in (1, 2, 3, 4):
        ok, corner = is_deeply_smooth(smooth_simplex(n, k))
        marker = "" if ok else f"  (missing corner {corner})"
        print(f"  {k}delta_{n}: deeply smooth = {ok}{marker}")

print()
print("=== the three characterizations, evaluated independently ===")
cases = {
    "monotone simplex dim 3": monotone_simplex(3),
    "2delta_3": smooth_simplex(3, 2),
    "SSB(3,1)": ssb(3, 1),
    "SSB(3,2)": ssb(3, 2),
}
# the size-3 tetrahedron with all four corners cut at distance one: every
# facet displacement is deeply smooth, yet the polytope itself is not
blown = HPolytope(
    3,
    [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1),
     (1, 1, 1), (-1, -1, -1)],
    (0, 0, 0, 2, 2, 2, 3, -1),
)
cases["blown-up 3delta_3"] = blown
for name, p in cases.items():
    corners, fans, utfree = deeply_smooth_characterizations_agree(p)
    print(f"  {name:24s} corners={corners} displacement-fans={fans} "
          f"UT-free-closure={utfree}")

print()
print("=== first displacements ===")
d3 = monotone_simplex(3)
f = d3.faces(1)[0]
disp = first_displacement(d3, f)
print(f"facet of the monotone 3-simplex displaced once: dim {disp.dim}, "
      f"offsets {set(disp.offsets)} -> reflexive: {is_reflexive(disp)}")
s32 = ssb(3, 2)
bad = first_displacement(s32, (2,))
print(f"SSB(3,2) facet x_3 = -1 displaced: reflexive={is_reflexive(bad)}, "
      f"smooth={is_smooth(bad)[0]}  (a non-smooth reflexive simplex)")
slice2 = face_slice(ssb(4, 3), (1, 2), inset=1)
print(f"codim-2 displacement of SSB(4,3): vertices {slice2.polytope.vertices()}")
print("  (a non-lattice vertex: displacements of smooth polytopes can leave "
      "the lattice below codimension one)")

print()
print("=== deeply monotone polytopes satisfy strong + star ===")
for name, p in [("simplex dim 4", monotone_simplex(4)), ("SSB(3,1)", ssb(3, 1))]:
    assert is_deeply_smooth(p)[0]
    print(f"  {name}: strong={strong_ewald(p).ok} star={star_ewald(p)[0]}")
