#!/usr/bin/env python3
"""The weak, strong, and star Ewald conditions, and the one known kind of
failure: a monotone 6-polytope that is strong but not star."""

from ewaldkit import (
    cube,
    ewald_set,
    fs_property,
    monotone_polygon,
    monotone_simplex,
    nill_triangle,
    paffenholz_p6,
    star_ewald,
    star_ewald_face,
    star_sets,
    strong_ewald,
    weak_ewald,
)

print("=== the monotone simplex in dimension 3 ===")
d3 = monotone_simplex(3)
e = ewald_set(d3)
print(f"|E| = {len(e)}; points sorted by max-norm: {e.ordered()[:6]} ...")
ok, basis = weak_ewald(d3)
print(f"weak Ewald: {ok}, basis found: {basis}")
res = strong_ewald(d3)
print(f"strong Ewald: {res.ok} (a basis inside E(P) ∩ F for each of "
      f"{d3.nfacets} facets)")
ok, failing = star_ewald(d3)
print(f"star Ewald: {ok}")
print(f"FS property (every facet meets E): {fs_property(d3)}")

print()
print("=== star sets of a vertex of the square ===")
sq = monotone_polygon("square")
vertex_face = sq.faces(2)[0]
ss = star_sets(sq, vertex_face)
print(f"vertex face tight facets: {vertex_face}")
print(f"Star(f) facet indices: {ss.star_facets}; ridges through f: "
      f"{list(ss.ridges)}")
ok, lam = star_ewald_face(sq, vertex_face)
print(f"star condition at the vertex: {ok}, witness λ = {lam}")
print(f"  λ lies on exactly one facet through f and -λ = {tuple(-x for x in lam)} "
      f"avoids Star(f)")

print()
print("=== E(T_a) = {0}: no Ewald basis exists ===")
t2 = nill_triangle(2)
print(f"T_2 Ewald set: {sorted(ewald_set(t2).points)}")
print(f"T_2 weak Ewald: {weak_ewald(t2)[0]}")

print()
print("=== the Paffenholz example: strong does not imply star ===")
p6 = paffenholz_p6()
print(f"dim {p6.dim}, {p6.nfacets} facets, {len(p6.vertices())} vertices, "
      f"|E| = {len(ewald_set(p6))}")
print(f"weak: {weak_ewald(p6)[0]}   strong: {strong_ewald(p6).ok}")
ok, failing = star_ewald(p6)
print(f"star: {ok}")
print(f"the unique failing face is the vertex on facets {failing} "
      f"(printed positions 2,3,5,6,9,10):")
print(f"  {p6.face_vertices(failing)[0]}")

print()
print("=== products multiply Ewald sets and conjoin the conditions ===")
from ewaldkit import cartesian_product

hexa = monotone_polygon("hexagon")
prod = cartesian_product(hexa, cube(2))
print(f"hexagon x square: |E| = {len(ewald_set(prod))} = 7 * 9")
print(f"star(product) = {star_ewald(prod)[0]} = star(hexagon) and star(square)")
