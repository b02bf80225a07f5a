"""Polytope bundles in canonical coordinates, and the named polytope families:
monotone simplices and cubes, smooth simplices, del Pezzo polytopes, SSB
bundles, small fiber bundles, the Paffenholz 6-polytope, the Nill triangles
T_a, and the five monotone polygons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from inspect import signature

from .classify import is_monotone, is_smooth
from .displace import _keeps_fan, _vertex_margin_constraints, is_neat
from .intlinalg import _as_mat, _as_vec
from .polytope import HPolytope, VPolytope, dot, facet_description

__all__ = [
    "BundleSpec",
    "build_bundle",
    "bundle_classification",
    "neat_transfer_bundle_check",
    "ssb",
    "ssb_as_bundle",
    "small_fiber_bundle",
    "monotone_simplex",
    "smooth_simplex",
    "cube",
    "segment",
    "del_pezzo",
    "paffenholz_p6",
    "nill_triangle",
    "monotone_polygon",
    "catalog",
    "generate",
    "member_dim",
]


@dataclass(frozen=True)
class BundleSpec:
    """Bundle data in canonical coordinates.

    Total space rows are (u_i | 0) <= b_i over the base and
    (s_j | t_j) <= a_j + shift_j over the fiber, i.e. the fiber inequality
    offsets vary affinely over the base through the twist rows s_j.
    """

    base: HPolytope
    fiber: HPolytope
    twist: tuple  # one integer row of length base.dim per fiber facet
    shifts: tuple  # one exact constant per fiber facet

    def __post_init__(self):
        twist = _as_mat(self.twist)
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "shifts", tuple(self.shifts))
        if len(twist) != self.fiber.nfacets or len(self.shifts) != self.fiber.nfacets:
            raise ValueError("twist/shift rows must match the fiber facets")
        if any(len(row) != self.base.dim for row in twist):
            raise ValueError("twist rows must live in the base space")


def build_bundle(spec: BundleSpec) -> HPolytope:
    """Assemble the total space and verify the bundle axioms.

    Slices over every base vertex must be normally isomorphic to the fiber:
    the slice over x is the fiber displaced by b = shift − twist·x, checked
    against the fiber's margin constraints, built once.  The offsets that
    keep the fiber's fan form a convex cone and the slice offsets are affine
    over the base, so the vertex checks cover all of it.

    The slices also fix the vertex-facet incidence of the total space as
    base × fiber, so it is not checked again and no vertex is enumerated
    here.  Over a base vertex x with mask t_x, the total's face on the rows
    t_x is {x} × slice(x), and slice(x) has the fiber's vertex masks t_q,
    so its vertices carry t_x | t_q << l (l base rows).  Over an interior
    point of a larger base face, each slice vertex moves affinely with the
    point, so it is no vertex of the total.
    """
    base, fiber = spec.base, spec.fiber
    constraints = _vertex_margin_constraints(fiber)
    for x in base.vertices():
        b = [sh - dot(s, x) for sh, s in zip(spec.shifts, spec.twist)]
        if not _keeps_fan(constraints, b):
            raise ValueError(
                "not a bundle: slice over base point %r is not normally "
                "isomorphic to the fiber" % (x,)
            )
    zeros_n = (0,) * fiber.dim
    normals = tuple(u + zeros_n for u in base.normals) + tuple(
        s + t for s, t in zip(spec.twist, fiber.normals)
    )
    offsets = base.offsets + tuple(a + sh for a, sh in zip(fiber.offsets, spec.shifts))
    return HPolytope(base.dim + fiber.dim, normals, offsets)


def bundle_classification(spec: BundleSpec):
    """(simple, smooth, monotone) of the total space; each flag must equal
    the conjunction over base and fiber, and a violation raises."""
    total = build_bundle(spec)
    flags = (
        total.is_simple(),
        is_smooth(total)[0],
        is_monotone(total),
    )
    conj = (
        spec.base.is_simple() and spec.fiber.is_simple(),
        is_smooth(spec.base)[0] and is_smooth(spec.fiber)[0],
        is_monotone(spec.base) and is_monotone(spec.fiber),
    )
    if flags != conj:
        raise AssertionError(
            "bundle classification %r disagrees with base/fiber conjunction %r"
            % (flags, conj)
        )
    return flags


def neat_transfer_bundle_check(base, fiber, twist, radius: int) -> bool:
    """Instance test of neatness transfer through bundles: when base and
    fiber are neat up to the radius, the bundle must be too."""
    total = build_bundle(BundleSpec(base=base, fiber=fiber, twist=tuple(twist), shifts=(0,) * fiber.nfacets))
    if is_neat(base, radius).is_counterexample or is_neat(fiber, radius).is_counterexample:
        return True
    return not is_neat(total, radius).is_counterexample


# -- named families -------------------------------------------------------


def monotone_simplex(n: int) -> HPolytope:
    """Δ_n = {x_i >= -1, sum x_i <= 1}."""
    if n < 1:
        raise ValueError("dimension must be positive")
    rows = [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    rows.append((1,) * n)
    return HPolytope(n, rows, (1,) * (n + 1))


def smooth_simplex(n: int, k: int) -> HPolytope:
    """kδ_n = {x_i >= 0, sum x_i <= k}, the smooth simplex of size k."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and size k >= 1")
    rows = [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    rows.append((1,) * n)
    return HPolytope(n, rows, (0,) * n + (k,))


def cube(n: int) -> HPolytope:
    """C_n = [-1, 1]^n."""
    if n < 1:
        raise ValueError("dimension must be positive")
    rows = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows.append(tuple(e))
        rows.append(tuple(-x for x in e))
    return HPolytope(n, rows, (1,) * (2 * n))


def segment() -> HPolytope:
    return cube(1)


def del_pezzo(n: int) -> HPolytope:
    """DP_n = {|x_i| <= 1, |sum x_i| <= 1}; for n = 1 the two constraints
    coincide and DP_1 is the monotone segment."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if n == 1:
        return segment()
    base = cube(n)
    rows = base.normals + ((1,) * n, (-1,) * n)
    return HPolytope(n, rows, (1,) * (2 * n + 2))


_PAFFENHOLZ_A = (
    (-1, 0, 0, 1, 0, 0),
    (-1, 0, 1, 2, 0, 0),
    (-1, 1, 1, 3, 1, 0),
    (1, 0, 0, -2, 0, 1),
)


def paffenholz_p6() -> HPolytope:
    """The 6-dimensional monotone polytope {(-I; A) x <= 1}; strong Ewald
    holds but the star condition fails at one vertex."""
    rows = [tuple(-1 if j == i else 0 for j in range(6)) for i in range(6)]
    rows.extend(_PAFFENHOLZ_A)
    return HPolytope(6, rows, (1,) * 10)


def nill_triangle(a: int) -> HPolytope:
    """T_a = conv{(1,0), (0,1), (-a,-a)}; its Ewald set is {0}."""
    if a < 1:
        raise ValueError("need a >= 1")
    return facet_description(VPolytope.from_points([(1, 0), (0, 1), (-a, -a)]))


def monotone_polygon(name: str) -> HPolytope:
    """The five monotone polygons: triangle, trapezoid, square, pentagon,
    hexagon (the hexagon equals DP_2, the trapezoid SSB(2,1))."""
    if name == "triangle":
        return monotone_simplex(2)
    if name == "trapezoid":
        return ssb(2, 1)
    if name == "square":
        return cube(2)
    if name == "pentagon":
        return HPolytope(
            2, ((-1, 0), (0, -1), (1, 0), (0, 1), (1, 1)), (1, 1, 1, 1, 1)
        )
    if name == "hexagon":
        return del_pezzo(2)
    raise ValueError("unknown polygon %r" % name)


def ssb(n: int, k: int) -> HPolytope:
    """SSB(n,k): x_i >= -1 for all i, x_1 <= 1, k x_1 + x_2 + ... + x_n <= 1."""
    if n < 2 or not 0 <= k <= n - 1:
        raise ValueError("SSB needs n >= 2 and 0 <= k <= n-1")
    rows = [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    rows.append(tuple(1 if j == 0 else 0 for j in range(n)))
    rows.append(tuple(k if j == 0 else 1 for j in range(n)))
    return HPolytope(n, rows, (1,) * (n + 2))


def ssb_as_bundle(n: int, k: int) -> BundleSpec:
    """SSB(n,k) as a bundle with base [-1,1] and fiber Δ_{n-1}."""
    fiber = monotone_simplex(n - 1)
    twist = tuple((0,) for _ in range(n - 1)) + ((k,),)
    return BundleSpec(base=segment(), fiber=fiber, twist=twist, shifts=(0,) * n)


def small_fiber_bundle(base: HPolytope, facet: int, n: int) -> HPolytope:
    """Bundle over a monotone base with fiber Δ_n twisted by φ(x) = -n·u_F·x
    at the chosen facet; rows are the base rows, then -y_j <= 1, then
    sum y_j + n·u_F·x <= 1."""
    if not is_monotone(base):
        raise ValueError("small fiber bundles need a monotone base")
    if not 0 <= facet < base.nfacets:
        raise ValueError("invalid facet index")
    if n < 1:
        raise ValueError("fiber dimension must be positive")
    u = base.normals[facet]
    fiber = monotone_simplex(n)
    twist = tuple((0,) * base.dim for _ in range(n)) + (
        tuple(n * x for x in u),
    )
    spec = BundleSpec(base=base, fiber=fiber, twist=twist, shifts=(0,) * (n + 1))
    return build_bundle(spec)


def catalog() -> dict:
    """The named builtin instances the test-suite and demos cycle through."""
    entries = {
        "segment": segment(),
        "triangle": monotone_polygon("triangle"),
        "trapezoid": monotone_polygon("trapezoid"),
        "square": monotone_polygon("square"),
        "pentagon": monotone_polygon("pentagon"),
        "hexagon": monotone_polygon("hexagon"),
        "simplex3": monotone_simplex(3),
        "cube3": cube(3),
        "ssb31": ssb(3, 1),
        "ssb32": ssb(3, 2),
        "simplex4": monotone_simplex(4),
        "cube4": cube(4),
        "ssb43": ssb(4, 3),
        "delpezzo4": del_pezzo(4),
        "paffenholz": paffenholz_p6(),
    }
    return entries


# family name -> (the member's dimension, builder), both of the family's
# integer arguments
_FAMILIES = {
    "simplex": (lambda n: n, monotone_simplex),
    "smooth-simplex": (lambda n, k: n, smooth_simplex),
    "cube": (lambda n: n, cube),
    "delpezzo": (lambda n: n, del_pezzo),
    "ssb": (lambda n, k: n, ssb),
    "smallfiber": (lambda dim, facet, n: dim + n, lambda dim, facet, n: small_fiber_bundle(cube(dim), facet, n)),
    "paffenholz": (lambda: 6, paffenholz_p6),
    "t": (lambda a: 2, nill_triangle),
    "segment": (lambda: 1, segment),
    **{
        name: (lambda: 2, partial(monotone_polygon, name))
        for name in ("triangle", "trapezoid", "square", "pentagon", "hexagon")
    },
}


def _family(family: str, args: tuple):
    """(dimension, builder) of a family member, once the family is known
    and takes as many arguments as given."""
    if family not in _FAMILIES:
        raise ValueError("unknown family %r" % family)
    dim, build = _FAMILIES[family]
    if len(args) != (arity := len(signature(dim).parameters)):
        raise ValueError("%s takes %d argument(s), got %d" % (family, arity, len(args)))
    return dim, build


def member_dim(family: str, args: tuple = ()) -> int:
    """The dimension of generate(family, args), read off the arguments
    without building the member."""
    args = _as_vec(args)
    return _family(family, args)[0](*args)


def generate(family: str, args: tuple = ()) -> HPolytope:
    """Catalog access by family name and integer arguments (the CLI `gen`
    surface)."""
    args = _as_vec(args)
    return _family(family, args)[1](*args)
