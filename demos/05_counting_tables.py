#!/usr/bin/env python3
"""Reproduce the Ewald counting tables: simplex counts, the SSB table, the
facet splits, and the minimum-count constructions in dimensions 3..7."""

from ewaldkit import (
    emin_upper_bound,
    ewald_count_simplex,
    ewald_count_ssb,
    ewald_set,
    facet_ewald_split,
    monotone_simplex,
    segment,
    small_bundle_split_recursion_check,
    small_fiber_bundle,
    ssb,
    trinomial,
)

print("=== trinomial coefficients T(n,k) = [x^k](1+x+x^2)^n ===")
for n in range(5):
    print(f"  n={n}: {[trinomial(n, k) for k in range(2 * n + 1)]}")

print()
print("=== |E(simplex_n)| = T(n+1, n+1), checked against the exact count ===")
formula = [ewald_count_simplex(n) for n in range(1, 10)]
print("  formula n=1..9:", formula)
counted = [len(ewald_set(monotone_simplex(n))) for n in range(1, 10)]
print("  exact count n=1..9:", counted)

print()
print("=== |E(SSB(n,k))| = T(n,n) + 2 T(n,n-k) ===")
print("  k:", " ".join(f"{k:5d}" for k in range(9)))
for n in range(2, 10):
    row = [ewald_count_ssb(n, k) for k in range(n)]
    print(f"  n={n}: " + " ".join(f"{v:5d}" for v in row))

print()
print("=== facet splits: e0(simplex_n) and e+(simplex_n) ===")
for n in range(1, 7):
    sp = facet_ewald_split(monotone_simplex(n), 0)
    print(f"  n={n}: e0 = {sp.e_zero:4d}  e+ = e- = {sp.e_plus:4d}")

print()
print("=== small-fiber-bundle split recursion ===")
for n in (2, 3):
    ok = small_bundle_split_recursion_check(segment(), 0, n)
    print(f"  base segment, fiber Delta_{n}: recursion matches enumeration: {ok}")

print()
print("=== constructions hitting the minimum counts of dims 3..7 ===")
b2 = small_fiber_bundle(segment(), 0, 2)
b3 = small_fiber_bundle(segment(), 0, 3)
builds = {
    3: ("segment + Delta_2", b2),
    4: ("segment + Delta_3", b3),
    5: ("segment + Delta_2 + Delta_2", small_fiber_bundle(b2, b2.nfacets - 1, 2)),
    6: ("segment + Delta_3 + Delta_2", small_fiber_bundle(b3, b3.nfacets - 1, 2)),
    7: ("segment + Delta_3 + Delta_3", small_fiber_bundle(b3, b3.nfacets - 1, 3)),
}
for d, (recipe, p) in builds.items():
    print(f"  dim {d}: |E| = {len(ewald_set(p)):3d} = bound {emin_upper_bound(d):3d}"
          f"   [{recipe}]")

print()
print("=== the upper bound for larger n ===")
for n in (8, 9, 10, 12, 20, 31):
    print(f"  n={n:2d}: {emin_upper_bound(n)}")
