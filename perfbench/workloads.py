"""The benchmark's three workloads: check, neat and crosscheck.

Each workload is a fixed list of cases (a base polytope and what to do with
it).  A pass turns every case into one item: a fresh GL(n,Z) image drawn
from the seed, serialised to the ewaldkit file format, with its expected
answer attached.  Running an item calls the same public functions as the
matching ewaldkit command and compares the outcome with the expectation.

Run functions take a tracer.  With tracing off it only forwards calls; with
tracing on it records one span per call into an ewaldkit module and the
per-item work counts.  Items run the same code in both modes: the traced
run also sends fileio's calls into the other layers (FILEIO_CALLS) through
spans, so parse_polytope and analyze_polytope show where their time goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product as cartesian
from math import comb

import families as F
import oracles as O


@dataclass
class Item:
    label: str  # names the case; the same label recurs in every pass
    kind: str
    texts: tuple  # polytope files handed to ewaldkit
    args: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)  # computed from input sizes
    known_defect: str | None = None  # documented reason this item fails today
    base: str = ""  # the input polytope up to GL(n,Z)


# what parse_polytope and analyze_polytope call in the other layers
FILEIO_CALLS = ("convex_hull", "classify", "ewald_set", "weak_ewald", "strong_ewald", "star_ewald", "fs_property")


class KnownDefect(Exception):
    """Raised by an item that fails in the documented way."""


# -- base polytopes ----------------------------------------------------------


def _atoms():
    atoms = {
        "segment": F.cube(1),
        "triangle": F.simplex(2),
        "trapezoid": F.ssb(2, 1),
        "square": F.cube(2),
        "pentagon": F.PENTAGON,
        "hexagon": F.del_pezzo(2),
        "paffenholz": F.PAFFENHOLZ,
    }
    for n in range(3, 9):
        atoms["simplex%d" % n] = F.simplex(n)
    for n in range(3, 7):
        atoms["cube%d" % n] = F.cube(n)
    for n in range(3, 7):
        atoms["delpezzo%d" % n] = F.del_pezzo(n)
    for n in range(3, 9):
        for k in range(n):
            atoms["ssb%d%d" % (n, k)] = F.ssb(n, k)
    for n in range(2, 5):
        for k in (2, 3):
            atoms["delta%d_x%d" % (n, k)] = F.smooth_simplex(n, k)
    # iterated small fiber bundles: ssb32 and ssb43 are the first two levels
    atoms["sfb5"] = F.small_fiber_bundle(atoms["ssb32"], 4, 2)
    atoms["sfb6"] = F.small_fiber_bundle(atoms["ssb43"], 5, 2)
    for base, facet, n in (
        ("cube3", 0, 2), ("hexagon", 0, 3), ("pentagon", 4, 4), ("ssb31", 4, 3),
        ("hexagon", 0, 1), ("square", 0, 2), ("pentagon", 4, 1),
        ("triangle", 2, 3), ("trapezoid", 3, 3), ("square", 0, 3),
    ):
        atoms["sfb_%s_%d" % (base, n)] = F.small_fiber_bundle(atoms[base], facet, n)
    return atoms


ATOMS = _atoms()

CATALOG = (
    "triangle", "trapezoid", "square", "pentagon", "hexagon",
    "simplex3", "cube3", "ssb31", "ssb32",
    "simplex4", "cube4", "ssb43", "delpezzo4", "paffenholz",
)

# products equal, up to GL(n,Z), to a polytope listed elsewhere in the check set
_ISOMORPHIC_PRODUCTS = {
    ("segment", "segment"), ("segment", "square"), ("segment", "cube3"),
    ("segment", "cube4"), ("square", "square"), ("square", "cube3"),
    ("square", "cube4"), ("cube3", "cube3"), ("segment", "triangle"),
    ("segment", "simplex3"), ("segment", "simplex4"),
}
# larger products cost 1.5-6.6 s per item and would leave room for less
# than one pass per run
MAX_PRODUCT_FACETS = 11
MAX_PRODUCT_FACETS_DIM6 = 8


def check_products():
    factors = ("segment",) + tuple(n for n in CATALOG if n != "paffenholz")
    out = []
    for a, b in combinations_with_replacement(factors, 2):
        pa, pb = ATOMS[a], ATOMS[b]
        d = F.dim(pa) + F.dim(pb)
        if d > 6 or (a, b) in _ISOMORPHIC_PRODUCTS:
            continue
        if len(pa[0]) + len(pb[0]) > (MAX_PRODUCT_FACETS_DIM6 if d == 6 else MAX_PRODUCT_FACETS):
            continue
        out.append((a, b))
    return tuple(out)


CHECK_ATOMS = (
    CATALOG
    + ("simplex5", "simplex6", "simplex7", "cube5", "cube6", "delpezzo6")
    + tuple("ssb%d%d" % (n, k) for n in (3, 4, 5, 6) for k in range(n) if "ssb%d%d" % (n, k) not in CATALOG)
    + ("sfb5", "sfb6", "sfb_cube3_2", "sfb_hexagon_3", "sfb_pentagon_4", "sfb_ssb31_3")
    + ("sfb_triangle_3", "sfb_trapezoid_3", "sfb_square_3")
)
CHECK_TRANSLATED = (
    "triangle", "pentagon", "hexagon", "cube3", "ssb31", "simplex3", "simplex4", "cube4",
    "ssb43", "ssb52", "delpezzo4", "triangle_x_square", "trapezoid_x_pentagon",
    "segment_x_hexagon", "segment_x_ssb32", "square_x_hexagon",
)
CHECK_NON_SIMPLE = ("delpezzo3", "delpezzo5")
NON_SIMPLE_DEFECT = "face lattice requires simple polytope"

NEAT_CASES = (
    # (base, radii) -- symmetric inputs first, then low-symmetry ones
    ("square", (1, 2)), ("cube3", (1, 2)), ("cube4", (1,)), ("cube5", (1,)),
    ("delpezzo4", (1,)), ("hexagon", (1, 2)),
    ("hexagon_x_cube3", (1,)), ("hexagon_x_square", (1,)),
    ("triangle", (1, 2)), ("trapezoid", (1, 2)), ("pentagon", (1, 2)),
    ("simplex3", (1, 2)), ("simplex4", (1, 2)), ("simplex5", (1,)),
    ("ssb30", (1, 2)), ("ssb31", (1, 2)), ("ssb32", (1, 2)),
    ("ssb40", (1,)), ("ssb41", (1,)), ("ssb42", (1, 2)), ("ssb43", (1, 2)),
    ("ssb50", (1,)), ("ssb51", (1,)), ("ssb52", (1,)), ("ssb53", (1,)), ("ssb54", (1,)),
    ("delta2_x2", (1, 2)), ("delta2_x3", (1, 2)), ("delta3_x2", (1, 2)),
    ("delta3_x3", (1, 2)), ("delta4_x2", (1, 2)), ("delta4_x3", (1,)),
    ("sfb_hexagon_1", (1, 2)), ("sfb_square_2", (1, 2)), ("sfb_pentagon_1", (1, 2)),
    ("sfb5", (1,)),
)
NEAT_SYMMETRIC = ("square", "cube3", "cube4", "cube5", "delpezzo4", "hexagon", "hexagon_x_square", "hexagon_x_cube3")


def base_polytope(name):
    if name in ATOMS:
        return ATOMS[name]
    a, b = name.split("_x_")
    return F.product_of(ATOMS[a], ATOMS[b])


def neat_cases():
    """(base, radius, shift) for every neat item; shift 0 keeps the base,
    1 moves it by e_1 (origin on the boundary), 2 by 2 e_1 (origin outside).
    Shifted copies alternate between 1 and 2 along the list."""
    pairs = [(name, r) for name, radii in NEAT_CASES for r in radii]
    return tuple(
        (name, r, shift) for i, (name, r) in enumerate(pairs) for shift in (0, 1 + i % 2)
    )


def neat_key(name, r, shift):
    return "%s|r=%d|shift=%d" % (name, r, shift)


def shifted(p, shift):
    return F.translate(p, (shift,) + (0,) * (F.dim(p) - 1)) if shift else p


# -- comparison helpers ------------------------------------------------------


def _mismatch(observed, expect):
    return sorted(k for k, v in expect.items() if observed.get(k) != v)


def _fresh(lib, p):
    return lib.polytope.HPolytope(p.dim, p.normals, p.offsets)


def _parse(lib, tr, text):
    p = tr.call("fileio.parse_polytope", lib.fileio.parse_polytope, text).polytope
    if tr.on:
        # parse enumerates vertices inside itself; re-time that on a copy
        # whose vertex cache is empty
        tr.attribute("polytope.vertices", lambda: lib.polytope.vertices(_fresh(lib, p)))
    return p


# -- check -------------------------------------------------------------------


class Check:
    """parse_polytope + analyze_polytope(run_neat=False): `ewaldkit check --skip-neat`."""

    name = "check"
    shears = 1
    pass_seconds = 12.0  # seconds of one pass at the reference speed (see reference.py)
    single_sample = ()

    def __init__(self, tables):
        self.atoms = tables["atoms"]

    def expectation(self, label):
        if "_x_" in label:
            a, b = label.split("_x_")
            return O.product_expectation(self.atoms[a], self.atoms[b])
        return dict(self.atoms[label])

    def cases(self):
        out = [(name, name, 0) for name in CHECK_ATOMS]
        out += [("%s_x_%s" % ab, "%s_x_%s" % ab, 0) for ab in check_products()]
        out += [("%s+shift" % name, name, 2) for name in CHECK_TRANSLATED]
        out += [(name, name, 0) for name in CHECK_NON_SIMPLE]
        return out

    def make_pass(self, rng):
        items = []
        for label, base, shift in self.cases():
            p = base_polytope(base)
            n = F.dim(p)
            expect = self.expectation(base)
            if shift:
                # every base has the rows -x_i <= 1, so -t = -2 e_i lies
                # outside P and the origin outside P + t
                i = rng.randrange(n)
                p = F.translate(p, tuple(shift if j == i else 0 for j in range(n)))
                expect = O.translate_expectation(expect)
            _, inv = F.unimodular(rng, n, self.shears)
            faces = expect.pop("faces")
            counts = {
                "vertex_subsets": comb(len(p[0]), n),
                "ewald_points": expect["ewald"],
                "star_faces": faces - 1 if min(p[1]) > 0 else 0,
            }
            known = NON_SIMPLE_DEFECT if base in CHECK_NON_SIMPLE else None
            if known:
                expect.pop("star")  # nothing independent decides it yet
            items.append(Item(label, "check", (F.facet_text(F.image(p, inv), label),), {}, expect, counts, known, label))
        return items

    def run(self, item, lib, tr):
        p = _parse(lib, tr, item.texts[0])
        try:
            result = tr.call("fileio.analyze_polytope", lib.fileio.analyze_polytope,
                             p, item.label, run_neat=False)["result"]
        except ValueError as exc:
            if item.known_defect and item.known_defect in str(exc):
                raise KnownDefect(str(exc)) from None
            raise
        if "star_ewald" in result:
            tr.add("star_runs", 1)
            tr.add("star_fails", int(not result["star_ewald"]))
        return _mismatch(_flatten(result), item.expect)


def _flatten(result):
    out = {"facets": result["facets"], "vertices": result["vertices"], "ewald": result["ewald_count"]}
    out.update({k: result["class"][k] for k in O.FLAGS})
    out.update(
        weak=result.get("weak_ewald"),
        strong=result.get("strong_ewald"),
        star=result.get("star_ewald"),
        fs=result.get("fs_property"),
    )
    return out


# -- neat --------------------------------------------------------------------


class Neat:
    """parse_polytope + is_neat(P, r): `ewaldkit neat --radius r`."""

    name = "neat"
    shears = 1
    pass_seconds = 9.0
    # inputs that take a second or more: one sample averages over the
    # machine's sub-second swings, and a second one would not leave the run
    # time the benchmark has
    single_sample = ("cube5|r=1|shift=0", "hexagon_x_cube3|r=1|shift=0")

    def __init__(self, tables):
        self.verdicts = tables["neat"]

    def make_pass(self, rng):
        items = []
        for name, r, shift in neat_cases():
            p = shifted(base_polytope(name), shift)
            _, inv = F.unimodular(rng, F.dim(p), self.shears)
            status, witness = self.verdicts[neat_key(name, r, shift)]
            label = neat_key(name, r, shift)
            items.append(
                Item(label, "neat", (F.facet_text(F.image(p, inv), name),), {"radius": r},
                     {"status": status, "witness_b": witness},
                     {"vertex_subsets": comb(len(p[0]), F.dim(p))}, base="%s|shift=%d" % (name, shift))
            )
        return items

    def run(self, item, lib, tr):
        p = _parse(lib, tr, item.texts[0])
        r = item.args["radius"]
        verdict = tr.call("displace.is_neat", lib.displace.is_neat, p, r)
        witness = list(verdict.witness_b) if verdict.witness_b is not None else None
        if tr.on:
            # p caches only its vertices, which is_neat had as well
            qualifying = tr.attribute(
                "displace.normally_isomorphic_displacements",
                lambda: list(lib.displace.normally_isomorphic_displacements(p, r)),
            )
            tr.add("neat_items", 1)
            tr.add("counterexamples", int(verdict.is_counterexample))
            tr.add("qualifying", len(qualifying))
            tr.add("pairs", _pairs_tested(qualifying, verdict.witness_b))
        return _mismatch({"status": verdict.status, "witness_b": witness}, item.expect)


def _pairs_tested(qualifying, witness):
    """(b, -b) pairs is_neat tests before its verdict: b <= -b, both
    qualifying, in lexicographic order up to the witness."""
    qset = set(qualifying)
    n = 0
    for b in qualifying:
        nb = tuple(-x for x in b)
        if nb in qset and b <= nb and (witness is None or b <= tuple(witness)):
            n += 1
    return n


# -- crosscheck --------------------------------------------------------------

CROSS_EWALD = ("simplex7", "simplex8") + tuple("ssb%d%d" % (n, k) for n in (7, 8) for k in range(n))
# (base, facet, fiber dimension); the expected |E| is the minimum for the total dimension
CROSS_TOWERS = (
    ("segment", 0, 2), ("segment", 0, 3), ("ssb32", 4, 2),
    ("ssb43", 5, 2), ("ssb43", 5, 3), ("sfb6", 8, 2),
)
CROSS_BUNDLES = (
    ("hexagon", 0, 1), ("hexagon", 3, 2), ("pentagon", 4, 2), ("square", 0, 3),
    ("triangle", 2, 2), ("cube3", 0, 2), ("trapezoid", 1, 2), ("simplex3", 3, 1),
)
CROSS_SPLITS = (
    "hexagon", "pentagon", "trapezoid", "cube3", "ssb31", "simplex4", "ssb43",
    "delpezzo4", "cube4", "simplex5", "ssb52", "paffenholz",
)
CROSS_RECURSIONS = (("segment", 0, 2), ("hexagon", 0, 2), ("ssb32", 4, 2), ("square", 0, 3), ("ssb43", 5, 3))
CROSS_VOLUMES = (
    "triangle", "trapezoid", "square", "pentagon", "hexagon",
    "simplex3", "simplex4", "simplex5", "simplex6", "cube3", "cube4", "cube5",
    "triangle_x_square", "triangle_x_triangle", "simplex3_x_square", "square_x_simplex4",
)
CROSS_HULLS = (
    "triangle", "trapezoid", "square", "pentagon", "hexagon", "simplex3", "cube3",
    "simplex4", "cube4", "segment_x_triangle", "segment_x_hexagon", "triangle_x_square",
)
CROSS_ODA = tuple((name, f) for name in ("triangle", "trapezoid", "square", "pentagon", "hexagon") for f in (1, 2)) + (
    ("simplex3", 1), ("simplex3", 2), ("cube3", 1), ("segment_x_triangle", 1),
    ("triangle", 3), ("trapezoid", 3), ("pentagon", 3),
)
CROSS_PROBES = (
    ("hexagon", 4), ("square", 4), ("triangle", 3), ("pentagon", 3), ("trapezoid", 3),
    ("ssb31", 2), ("ssb32", 2), ("cube3", 2), ("simplex3", 2),
)
PROBE_BOUND = 3


def base_vertices(name):
    """Vertex lists of the bases used in vertex mode, written out by hand."""
    if "_x_" in name:
        a, b = name.split("_x_")
        return F.product_vertices(base_vertices(a), base_vertices(b))
    if name == "segment":
        return ((-1,), (1,))
    if name in F.POLYGON_VERTICES:
        return F.POLYGON_VERTICES[name]
    if name.startswith("simplex"):
        return F.simplex_vertices(int(name[7:]))
    return F.cube_vertices(int(name[4:]))


def _dim_of(name):
    return F.dim(base_polytope(name))


class Crosscheck:
    """The paper's identities on constructed families, one per item."""

    name = "crosscheck"
    pass_seconds = 5.5
    single_sample = ()

    def __init__(self, tables):
        self.atoms = tables["atoms"]

    def make_pass(self, rng):
        items = []

        def image(p, shears):
            return F.image(p, F.unimodular(rng, F.dim(p), shears)[1])

        for name in CROSS_EWALD:
            n = int(name[-1]) if name.startswith("simplex") else int(name[3])
            want = O.SIMPLEX_COUNTS[n] if name.startswith("simplex") else O.SSB_TABLE[n][int(name[4])]
            p = ATOMS[name]
            items.append(Item(name, "ewald", (F.facet_text(image(p, 3)),), {}, {"ewald": want},
                              {"vertex_subsets": comb(len(p[0]), n), "ewald_points": want}, base=name))
        for base, facet, n in CROSS_TOWERS:
            p = ATOMS[base]
            total_dim = F.dim(p) + n
            want = O.SFB_MINIMA.get(total_dim) or O.emin_bound(total_dim)
            items.append(Item("tower:%s+%d" % (base, n), "bundle", (F.facet_text(image(p, 2)),),
                              {"facet": facet, "n": n}, {"ewald": want},
                              {"vertex_subsets": comb(len(p[0]), F.dim(p)), "ewald_points": want}, base=base))
        for base, facet, n in CROSS_BUNDLES:
            p = ATOMS[base]
            fiber = tuple(y for y in cartesian((-1, 0, 1), repeat=n) if abs(sum(y)) <= 1)
            items.append(Item("bundle:%s/%d+%d" % (base, facet, n), "bundle", (F.facet_text(image(p, 2)),),
                              {"facet": facet, "n": n, "fiber_points": fiber},
                              {"vertices": self.atoms[base]["vertices"] * (n + 1), "fiber_embedded": True},
                              {"vertex_subsets": comb(len(p[0]), F.dim(p))}, base=base))
        for name in CROSS_SPLITS:
            p = ATOMS[name]
            facet = rng.randrange(len(p[0]))
            items.append(Item("split:%s" % name, "split", (F.facet_text(image(p, 3)),), {"facet": facet},
                              {"total": self.atoms[name]["ewald"]},
                              {"vertex_subsets": comb(len(p[0]), F.dim(p))}, base=name))
        for base, facet, n in CROSS_RECURSIONS:
            p = ATOMS[base]
            items.append(Item("recursion:%s+%d" % (base, n), "recursion", (F.facet_text(image(p, 2)),),
                              {"facet": facet, "n": n}, {"holds": True},
                              {"vertex_subsets": comb(len(p[0]), F.dim(p))}, base=base))
        for name in CROSS_VOLUMES:
            p = base_polytope(name)
            items.append(Item("volume:%s" % name, "volume", (F.facet_text(image(p, 3)),), {},
                              {"volume": _volume(name)}, {"vertex_subsets": comb(len(p[0]), F.dim(p))}, base=name))
        for name in CROSS_HULLS:
            p = base_polytope(name)
            m, inv = F.unimodular(rng, F.dim(p), 3)
            pts = F.image_points(base_vertices(name), m)
            rows = sorted(zip(*F.image(p, inv)))
            items.append(Item("hull:%s" % name, "hull", (F.vertex_text(pts),), {"points": pts},
                              {"rows": [[list(u), c] for u, c in rows]},
                              {"hull_subsets": comb(len(pts), F.dim(p))}, base=name))
        for name, factor in CROSS_ODA:
            p = base_polytope(name)
            m, inv = F.unimodular(rng, F.dim(p), 1)
            verts = base_vertices(name)
            sums = {tuple(a + factor * b for a, b in zip(v, w)) for v in verts for w in verts}
            texts = (F.facet_text(F.image(p, inv)), F.facet_text(F.image(F.dilate(p, factor), inv)))
            items.append(Item("oda:%s*%d" % (name, factor), "oda", texts, {}, {"holds": True},
                              {"vertex_subsets": 2 * comb(len(p[0]), F.dim(p)),
                               "hull_subsets": comb(len(sums), F.dim(p))}, base=name))
        for name, samples in CROSS_PROBES:
            p = ATOMS[name]
            # signed permutations only: they keep the max-norm direction bound
            # and the sample grid, so the bounded search sees the same problem
            items.append(Item("probe:%s" % name, "probe", (F.facet_text(image(p, 0)),),
                              {"samples": samples}, {"star": self.atoms[name]["star"], "all_displaceable": True},
                              {"vertex_subsets": comb(len(p[0]), F.dim(p))}, base=name))
        return items

    def run(self, item, lib, tr):
        kind = item.kind
        if kind == "hull":
            p = _parse(lib, tr, item.texts[0])
            observed = {"rows": [[list(u), c] for u, c in sorted(zip(p.normals, p.offsets))]}
        elif kind == "oda":
            p, q = (_parse(lib, tr, text) for text in item.texts)
            observed = {"holds": tr.call("polytope.oda_instance_check", lib.polytope.oda_instance_check, p, q)}
            if tr.on:
                sums = {tuple(a + b for a, b in zip(x, y)) for x in p.vertices() for y in q.vertices()}
                tr.attribute("polytope.convex_hull", lambda: lib.polytope.convex_hull(sums, p.dim))
        elif kind == "ewald":
            p = _parse(lib, tr, item.texts[0])
            observed = {"ewald": len(tr.call("ewald.ewald_set", lib.ewald.ewald_set, p))}
        elif kind == "bundle":
            base = _parse(lib, tr, item.texts[0])
            total = tr.call("bundles.small_fiber_bundle", lib.bundles.small_fiber_bundle,
                            base, item.args["facet"], item.args["n"])
            e = tr.call("ewald.ewald_set", lib.ewald.ewald_set, total)
            if "fiber_points" in item.args:
                zeros = (0,) * base.dim
                observed = {
                    "vertices": len(total.vertices()),
                    "fiber_embedded": all(zeros + y in e.points for y in item.args["fiber_points"]),
                }
            else:
                observed = {"ewald": len(e)}
        elif kind == "split":
            p = _parse(lib, tr, item.texts[0])
            s = tr.call("counting.facet_ewald_split", lib.counting.facet_ewald_split, p, item.args["facet"])
            observed = {"total": s.total if s.e_plus == s.e_minus else None}
        elif kind == "recursion":
            base = _parse(lib, tr, item.texts[0])
            observed = {"holds": tr.call("counting.small_bundle_split_recursion_check",
                                         lib.counting.small_bundle_split_recursion_check,
                                         base, item.args["facet"], item.args["n"])}
        elif kind == "volume":
            p = _parse(lib, tr, item.texts[0])
            observed = {"volume": tr.call("counting.normalized_volume", lib.counting.normalized_volume, p)}
        elif kind == "probe":
            p = _parse(lib, tr, item.texts[0])
            rep = tr.call("probes.star_probe_crosscheck", lib.probes.star_probe_crosscheck,
                          p, item.args["samples"], PROBE_BOUND)
            tr.add("probe_samples", rep.total)
            tr.add("probe_displaceable", rep.displaceable)
            observed = {"star": rep.star_ewald, "all_displaceable": rep.all_displaceable or not rep.star_ewald}
        else:
            raise ValueError("unknown item kind %r" % kind)
        return _mismatch(observed, item.expect)


def _volume(name):
    if "_x_" in name:
        a, b = name.split("_x_")
        return O.product_volume(_dim_of(a), _volume(a), _dim_of(b), _volume(b))
    if name in F.POLYGON_VERTICES:
        return O.polygon_volume(F.POLYGON_VERTICES[name])
    if name.startswith("simplex"):
        return O.simplex_volume(int(name[7:]))
    return O.cube_volume(int(name[4:]))


WORKLOADS = {w.name: w for w in (Check, Neat, Crosscheck)}
