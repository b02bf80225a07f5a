"""Polytope file format, analysis reports, and database ingestion.

Format (one polytope per file or stream):

    # comment lines start with '#'
    dim 2
    facets 4          # or: vertices k  (hull is taken, H-rep derived)
    name square       # optional
    1 0 1             # m rows of n+1 integers meaning  u . x <= c
    -1 0 1
    0 1 1
    0 -1 1

The dim line and one facets or vertices line come once each, before the
rows.  Rows are normalized to primitive normals (offset rescaled when
divisible), and redundant rows are dropped; both adjustments are reported
as warnings.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd

from .classify import classify, is_smooth
from .displace import DEFAULT_RADIUS, check_radius, is_neat, neat_work
from .ewald import _ewald_search, ewald_set, fs_property, star_ewald, strong_ewald, weak_ewald
from .polytope import HPolytope, _point_search, convex_hull, irredundant_rows
from .probes import _sample_search

__all__ = [
    "ParsedPolytope",
    "parse_polytope",
    "serialize_polytope",
    "analyze_polytope",
    "ingest_database",
    "DatabaseStats",
    "MAX_DIM_DEFAULT",
    "MAX_EWALD_POINTS",
    "MAX_NEAT_CLASS_BOX",
    "MAX_ODA_SUMS",
    "MAX_PROBE_BOX",
]

MAX_DIM_DEFAULT = 12
# the largest |E(P)| that check, ewald, probe and batch list without
# --allow-large: above dimension 9 the star condition does work on
# |E(P)|-bit integers for each face (`--allow-large check --skip-neat`
# takes 1.7 s on cube(11), 177,147 points, and 9.2 s on cube(12), 531,441
# points, one run each on a shared 2-core x86-64 machine), while the count
# that decides the refusal lists nothing
MAX_EWALD_POINTS = 200_000
# the most displacements that neatness walks without --allow-large
# (displace.neat_work), in neat (exact or up to a radius), check and
# batch --neat: a class box it decides whole, or up to a radius r past
# that, the window [-r, r]^m of the radius stream.  The test spends a few
# microseconds on each point, so the limit keeps a run to seconds
MAX_NEAT_CLASS_BOX = 1_000_000
# the most sums |P ∩ Z^n|·|Q ∩ Z^n| that oda forms without --allow-large:
# it adds every pair of lattice points and keeps the distinct sums in a
# set.  Where every sum is distinct (a segment along e_1 plus one along
# e_2) 5·10^6 sums take 1.0 s and 300 MB, where most coincide (two cubes)
# 0.2 s, one run each on a shared 2-core x86-64 machine
MAX_ODA_SUMS = 5_000_000
# the largest direction box (2·bound + 1)^n, and the largest sample grid
# (its points counted with the origin), that probe takes without
# --allow-large: the probe search lists the whole box and a table of every
# row's values over it, and the cross-check probes every point of a grid
# that grows like samples^n.  It
# admits dimension 6 at the default bound 3 (7^6 = 117,649), not dimension
# 7, and on gen cube 3 up to 29 samples (57^3 = 185,193 points), not 30
MAX_PROBE_BOX = 200_000


@dataclass
class ParsedPolytope:
    polytope: HPolytope
    name: str | None
    warnings: tuple


def parse_polytope(text: str, allow_large: bool = False) -> ParsedPolytope:
    """Exact integer parse; redundant or non-primitive rows are normalized
    with a warning, malformed input raises ValueError."""
    dim = None
    count = None
    mode = None  # "facets" | "vertices"
    name = None
    rows = []
    warnings = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in ("dim", "facets", "vertices"):
            try:
                (value,) = map(int, parts[1:])  # exactly one integer
            except ValueError:
                raise ValueError("line %d: expected '%s <integer>'" % (lineno, parts[0])) from None
            # each row is checked against the headers above it, so a header
            # comes once and before every row
            if rows or (dim if parts[0] == "dim" else mode) is not None:
                raise ValueError("line %d: '%s' header repeated or after the rows" % (lineno, parts[0]))
            if parts[0] == "dim":
                dim = value
            else:
                mode, count = parts[0], value
        elif parts[0] == "name":
            name = line.split(None, 1)[1] if len(parts) > 1 else ""
        else:
            if dim is None or mode is None:
                raise ValueError("line %d: row before dim/facets header" % lineno)
            try:
                nums = [int(x) for x in parts]
            except ValueError:
                raise ValueError("line %d: non-integer entry" % lineno) from None
            want = dim + 1 if mode == "facets" else dim
            if len(nums) != want:
                raise ValueError(
                    "line %d: expected %d integers, got %d" % (lineno, want, len(nums))
                )
            rows.append(nums)
    if dim is None or count is None:
        raise ValueError("missing dim/facets header")
    if dim < 1:
        raise ValueError("dimension must be positive")
    _refuse_large_dim(dim, allow_large)
    if len(rows) != count:
        raise ValueError("expected %d rows, found %d" % (count, len(rows)))
    if mode == "vertices":
        hull = convex_hull([tuple(r) for r in rows], dim)
        if len(hull.vertices()) != len({tuple(r) for r in rows}):
            warnings.append("vertex list contained non-extreme points; hull taken")
        return ParsedPolytope(hull, name, tuple(warnings))
    normals = []
    offsets = []
    for r in rows:
        u, c = r[:-1], r[-1]
        if not any(u):
            raise ValueError("zero normal row")
        g = gcd(*u)
        if g > 1:
            if c % g != 0:
                raise ValueError(
                    "row %r: normal gcd %d does not divide the offset" % (r, g)
                )
            u = [x // g for x in u]
            c //= g
            warnings.append("row %r normalized to primitive form" % (r,))
        normals.append(tuple(u))
        offsets.append(c)
    # irredundant_rows collapses duplicate normals and drops redundant rows,
    # so full dimension is the one property of validate() left to check
    p, dropped, full_dim = irredundant_rows(dim, tuple(normals), tuple(offsets))
    if not full_dim:
        raise ValueError("polytope is not full-dimensional")
    if dropped:
        warnings.append("dropped %d redundant row(s): %s" % (len(dropped), list(dropped)))
    return ParsedPolytope(p, name, tuple(warnings))


def serialize_polytope(p: HPolytope, name: str | None = None) -> str:
    if not all(isinstance(c, int) for c in p.offsets):
        raise ValueError("only integer offsets can be serialized")
    lines = ["dim %d" % p.dim, "facets %d" % p.nfacets]
    if name:
        lines.append("name %s" % name)
    for u, c in zip(p.normals, p.offsets):
        lines.append(" ".join(str(x) for x in u) + " " + str(c))
    return "\n".join(lines) + "\n"


def _jsonable(x):
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, (tuple, list, frozenset, set)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def analyze_polytope(
    p: HPolytope,
    name: str | None = None,
    radius: int = DEFAULT_RADIUS,
    run_neat: bool = True,
) -> dict:
    """Full analysis record: classification, |E(P)|, the Ewald condition
    flags with witnesses (origin-interior inputs only; the star condition
    only for simple inputs, null with a reason otherwise), and the bounded
    neatness verdict.  Timing lives under 'meta', outside the stable
    comparable payload under 'result'."""
    start = time.monotonic()
    rep = classify(p)
    result = {
        "name": name,
        "dim": p.dim,
        "facets": p.nfacets,
        "vertices": len(p.vertices()),
        "class": rep.as_dict(),
    }
    if p.origin_interior():
        okw, basis = weak_ewald(p)
        res = strong_ewald(p)
        # the star condition is stated for simple (Delzant) polytopes
        oks, failing = star_ewald(p) if rep.simple else (None, None)
        result["weak_ewald"] = okw
        result["weak_ewald_basis"] = basis or None
        result["strong_ewald"] = res.ok
        result["strong_ewald_failing_facet"] = res.failing_facet
        result["star_ewald"] = oks
        result["star_ewald_failing_face"] = failing.tight if failing is not None else None
        if not rep.simple:
            result["star_ewald_skipped"] = "skipped: polytope not simple"
        if rep.monotone:
            result["fs_property"] = fs_property(p)
    else:
        result["ewald_conditions"] = "skipped: origin not interior"
    # after the conditions, which list E(P): its size is then read off that
    # listing, and counted without one only where nothing lists it
    result["ewald_count"] = ewald_set(p).size
    if run_neat and rep.smooth and rep.lattice:
        verdict = is_neat(p, radius)
        result["neat"] = {
            "status": verdict.status,
            "radius": verdict.radius,
            "witness_b": verdict.witness_b,
        }
    return {
        "result": _jsonable(result),
        "meta": {"elapsed_s": round(time.monotonic() - start, 6)},
    }


def _refuse_large_dim(dim: int, allow_large: bool) -> None:
    """Raise ValueError, unless allow_large, for a dimension above
    MAX_DIM_DEFAULT: the check of every file read and of every gen member,
    before it is built."""
    if dim > MAX_DIM_DEFAULT and not allow_large:
        raise ValueError(
            "dimension %d exceeds the default cap %d (lattice scans grow like 3^n); "
            "pass --allow-large to override" % (dim, MAX_DIM_DEFAULT)
        )


def _refuse_count(what: str, limit_name: str, search, centre, limit: int) -> None:
    """Raise ValueError when the lattice search, a command's own search of
    what it would list, counts more than limit points at centre.  Where
    search.box, which bounds the count from above, is within the limit,
    nothing is counted.  The count lists nothing and stops at its first
    running total above the limit, a lower bound of the count, so the
    refusal is exact and the message says "at least" where it stopped."""
    if search.box <= limit:
        return
    count, ended = search(centre, cap=limit)
    if count > limit:
        raise ValueError(
            "%s has %s%d points, above the %s of %d; pass --allow-large to override"
            % (what, "" if ended else "at least ", count, limit_name, limit)
        )


def _refuse_large_ewald(p: HPolytope, allow_large: bool) -> None:
    """Raise ValueError, unless allow_large, when E(P) has more than
    MAX_EWALD_POINTS points (_refuse_count on E(P)'s own search): the
    check before a caller lists E(P).  The search reads vertex 0's chart
    and no table of every vertex."""
    if not allow_large:
        _refuse_count("E(P)", "listing limit", *_ewald_search(p), MAX_EWALD_POINTS)


def _refuse_large_neat(p: HPolytope, radius, allow_large: bool) -> None:
    """Raise ValueError, unless allow_large, when is_neat(p, radius) would
    walk more than MAX_NEAT_CLASS_BOX displacements (displace.neat_work):
    a class box it decides whole, or the window [−r, r]^m of the radius
    stream.  The check before a caller runs neatness, which runs only on a
    lattice smooth p (radius None: the exact test)."""
    if allow_large or not (p.is_lattice() and is_smooth(p)[0]):
        return
    count, whole = neat_work(p, radius)
    if count > MAX_NEAT_CLASS_BOX:
        mode = "exact neatness" if radius is None else "neatness up to radius %d" % radius
        walk = "decide a class box" if whole else "walk the window [-%d, %d]^%d" % (radius, radius, p.nfacets)
        raise ValueError(
            "%s would %s of %d displacements, above the limit of %d; "
            "pass --allow-large to override" % (mode, walk, count, MAX_NEAT_CLASS_BOX)
        )


def _refuse_large_analysis(p: HPolytope, radius, run_neat: bool, allow_large: bool) -> None:
    """The refusals before analyze_polytope(p, radius=radius,
    run_neat=run_neat), in check and batch: the E(P) limit where the origin
    is interior, as the Ewald conditions list E(P), and the neatness limit
    where neatness runs."""
    if p.origin_interior():
        _refuse_large_ewald(p, allow_large)
    if run_neat:
        _refuse_large_neat(p, radius, allow_large)


def _refuse_large_oda(p: HPolytope, q: HPolytope, allow_large: bool) -> None:
    """Raise ValueError, unless allow_large, when oda_instance_check(p, q)
    would form more than MAX_ODA_SUMS sums of a lattice point of p and one
    of q.  Each set is counted by its own point search
    (polytope._point_search), which oda_instance_check then lists: the
    count lists nothing and stops past the limit, where the message says
    "at least"."""
    if allow_large:
        return
    counts = [search(centre, cap=MAX_ODA_SUMS) for search, centre in map(_point_search, (p, q))]
    if counts[0][0] * counts[1][0] > MAX_ODA_SUMS:
        a, b = ("%s%d" % ("" if ended else "at least ", count) for count, ended in counts)
        raise ValueError(
            "oda would add %s lattice points of the first polytope to %s of the second, "
            "above the limit of %d sums; pass --allow-large to override" % (a, b, MAX_ODA_SUMS)
        )


def _refuse_large_probe(p: HPolytope, bound: int, samples, allow_large: bool) -> None:
    """Raise ValueError, unless allow_large, when probe's direction box
    (2·bound + 1)^n passes MAX_PROBE_BOX, and in cross-check mode (samples
    not None) when its sample grid, the origin counted, has more than
    MAX_PROBE_BOX points (_refuse_count) or E(P), which star_ewald lists,
    passes the listing limit (_refuse_large_ewald), in that order."""
    if allow_large:
        return
    if (box := (2 * bound + 1) ** p.dim) > MAX_PROBE_BOX:
        raise ValueError(
            "probe bound %d in dimension %d spans a box of %d directions, above the "
            "limit of %d; pass --allow-large to override" % (bound, p.dim, box, MAX_PROBE_BOX)
        )
    if samples is not None:
        _refuse_count("probe grid at %d samples" % samples, "limit", *_sample_search(p, samples), MAX_PROBE_BOX)
        _refuse_large_ewald(p, allow_large)


@dataclass
class DatabaseStats:
    """Aggregates for a directory of polytope files."""

    reports: list = field(default_factory=list)
    excluded: list = field(default_factory=list)  # (file name, reason)
    histograms: dict = field(default_factory=dict)  # dim -> {|E|: count}
    class_counts: dict = field(default_factory=dict)  # dim -> (monotone, ut_free, deeply)

    def as_dict(self):
        return {
            "reports": [r["result"] for r in self.reports],
            "excluded": self.excluded,
            "ewald_histograms": {
                str(d): {str(k): v for k, v in sorted(h.items())}
                for d, h in sorted(self.histograms.items())
            },
            "class_counts": {
                str(d): {"monotone": c[0], "ut_free": c[1], "deeply_monotone": c[2]}
                for d, c in sorted(self.class_counts.items())
            },
        }


def _analyze_file(path, radius, run_neat, allow_large):
    fname = os.path.basename(path)
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return fname, None, "read error: %s" % exc
    try:
        parsed = parse_polytope(text, allow_large=allow_large)
    except ValueError as exc:
        return fname, None, "parse error: %s" % exc
    try:
        _refuse_large_analysis(parsed.polytope, radius, run_neat, allow_large)
    except ValueError as exc:
        return fname, None, "refused: %s" % exc
    label = parsed.name or fname
    return fname, analyze_polytope(parsed.polytope, label, radius=radius, run_neat=run_neat), None


def ingest_database(
    directory: str,
    radius: int = DEFAULT_RADIUS,
    run_neat: bool = False,
    jobs: int = 1,
    allow_large: bool = False,
) -> DatabaseStats:
    """Load every polytope file in a directory, validate monotonicity, and
    aggregate Ewald histograms and class counts per dimension.  Non-monotone
    entries are reported but excluded from the monotone statistics.  Files
    are independent; jobs > 1 analyzes them in a process pool of at most one
    worker per file, and the aggregation below is order-insensitive (results
    are keyed by filename).  allow_large lifts parse_polytope's dimension cap
    for every file."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1, got %d" % jobs)
    if run_neat and radius is not None:
        check_radius(radius)  # an input error, not a file's refusal
    stats = DatabaseStats()
    analyze = partial(_analyze_file, radius=radius, run_neat=run_neat, allow_large=allow_large)
    paths = sorted(
        os.path.join(directory, f)
        for f in os.listdir(directory)
        if not f.startswith(".") and os.path.isfile(os.path.join(directory, f))
    )
    workers = min(jobs, len(paths))  # a fork-started pool starts every worker at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = sorted(pool.map(analyze, paths), key=lambda t: t[0])
    else:
        outcomes = [analyze(path) for path in paths]
    for fname, report, error in outcomes:
        if error is not None:
            stats.excluded.append((fname, error))
            continue
        stats.reports.append(report)
        cls = report["result"]["class"]
        if not cls["monotone"]:
            stats.excluded.append((fname, "not monotone"))
            continue
        d = report["result"]["dim"]
        hist = stats.histograms.setdefault(d, {})
        count = report["result"]["ewald_count"]
        hist[count] = hist.get(count, 0) + 1
        mono, ut, deep = stats.class_counts.get(d, (0, 0, 0))
        stats.class_counts[d] = (
            mono + 1,
            ut + (1 if cls["ut_free"] else 0),
            deep + (1 if cls["deeply_monotone"] else 0),
        )
    return stats
