"""Command-line surface.

Subcommands: check, ewald, gen, displace, neat, probe, count, batch, oda.
Exit codes: 0 success, 1 property-check failure (Oda identity false, neat
counterexample, undisplaceable probe sample), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .bundles import generate
from .counting import (
    emin_upper_bound,
    ewald_count_simplex,
    ewald_count_ssb,
)
from .displace import DEFAULT_RADIUS, first_displacement, is_neat
from .ewald import ewald_set
from .fileio import (
    MAX_DIM_DEFAULT,
    MAX_EWALD_POINTS,
    MAX_NEAT_CLASS_BOX,
    _refuse_count,
    _refuse_large_ewald,
    _refuse_large_neat,
    analyze_polytope,
    ingest_database,
    parse_polytope,
    serialize_polytope,
)
from .polytope import FaceRef, _slab_search, oda_instance_check
from .probes import DEFAULT_BOUND, _sample_upper, check_bound, check_samples
from .probes import displaceable_by_probe, star_probe_crosscheck

__all__ = ["main"]


def _env_int(var, fallback):
    val = os.environ.get(var)
    if not val:
        return fallback
    try:
        return int(val)
    except ValueError:
        raise ValueError("%s must be an integer, got %r" % (var, val)) from None


def _read_polytope(path, allow_large):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    parsed = parse_polytope(text, allow_large=allow_large)
    for w in parsed.warnings:
        print("warning: %s" % w, file=sys.stderr)
    return parsed


def _report_text(report):
    r = report["result"]
    lines = ["name: %s" % (r["name"] or "<unnamed>")]
    lines.append("dim %d, %d facets, %d vertices" % (r["dim"], r["facets"], r["vertices"]))
    # the class flags in ClassReport's field order, as as_dict lists them
    flags = [(k, v) for k, v in r["class"].items() if k != "witnesses"]
    lines.append("classes: " + ", ".join("%s=%s" % kv for kv in flags))
    lines.append("|E(P)| = %d" % r["ewald_count"])
    if "weak_ewald" in r:
        lines.append(
            "ewald conditions: weak=%s strong=%s star=%s%s"
            % (
                r["weak_ewald"],
                r["strong_ewald"],
                r["star_ewald"],
                " fs=%s" % r["fs_property"] if "fs_property" in r else "",
            )
        )
        if r["star_ewald_failing_face"] is not None:
            lines.append("star fails at face with facets %s" % r["star_ewald_failing_face"])
        if "star_ewald_skipped" in r:
            lines.append("star condition %s" % r["star_ewald_skipped"])
    else:
        lines.append(r["ewald_conditions"])
    if "neat" in r:
        lines.append(
            "neat: %s (radius %d)%s"
            % (
                r["neat"]["status"],
                r["neat"]["radius"],
                " witness b=%s" % r["neat"]["witness_b"]
                if r["neat"]["witness_b"]
                else "",
            )
        )
    return "\n".join(lines)


def _parse_rational_point(text):
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except ZeroDivisionError:
        raise ValueError("probe point %r has a zero denominator" % text) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ewaldkit",
        description="Exact lattice-polytope analysis: Ewald sets and conditions, "
        "displacements, neatness, bundles, probe displaceability.",
    )
    parser.add_argument(
        "--allow-large",
        action="store_true",
        help="lift the default dimension cap of %d (scans grow like 3^n), the "
        "E(P) listing limit of %d points, the probe limit of %d points on the "
        "direction box and on the sample grid, and the neatness class box limit "
        "of %d displacements (exact, or up to a radius where the box is decided whole)"
        % (MAX_DIM_DEFAULT, MAX_EWALD_POINTS, MAX_PROBE_BOX, MAX_NEAT_CLASS_BOX),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_check = sub.add_parser("check", help="full analysis report for a polytope file")
    p_check.add_argument("file")
    p_check.add_argument("--radius", type=int, default=None, help="neatness search radius")
    p_check.add_argument("--skip-neat", action="store_true")
    p_check.add_argument("--json", action="store_true", help="machine-readable output")

    p_ewald = sub.add_parser("ewald", help="list the Ewald set E(P)")
    p_ewald.add_argument("file")

    p_gen = sub.add_parser("gen", help="emit a builtin family member as a polytope file")
    p_gen.add_argument("family")
    p_gen.add_argument("args", nargs="*", type=int)

    p_disp = sub.add_parser("displace", help="first displacement of a face")
    p_disp.add_argument("file")
    p_disp.add_argument("--facets", required=True, help="comma-separated 0-based facet indices")

    p_neat = sub.add_parser("neat", help="neatness check, up to a radius or exact")
    p_neat.add_argument("file")
    neat_mode = p_neat.add_mutually_exclusive_group()
    neat_mode.add_argument("--radius", type=int, default=None)
    neat_mode.add_argument(
        "--exact", action="store_true", help="decide neatness over every translation class of b"
    )

    p_probe = sub.add_parser("probe", help="probe displaceability")
    p_probe.add_argument("file")
    p_probe.add_argument("--point", help="rational interior point, e.g. 1/2,0")
    p_probe.add_argument("--bound", type=int, default=None)
    p_probe.add_argument("--samples", type=int, default=4)

    p_count = sub.add_parser("count", help="closed-form Ewald counts and tables")
    p_count.add_argument("what", choices=list(_COUNTS))
    p_count.add_argument("args", nargs="*", type=int)
    p_count.add_argument("--json", action="store_true", help="machine-readable rows")

    p_batch = sub.add_parser("batch", help="ingest a directory of polytope files")
    p_batch.add_argument("directory")
    p_batch.add_argument("--radius", type=int, default=None)
    p_batch.add_argument("--neat", action="store_true", help="also run the neatness check per file")
    p_batch.add_argument("--jobs", type=int, default=1, help="worker processes for per-file analysis")
    p_batch.add_argument("--json", action="store_true")

    p_oda = sub.add_parser("oda", help="Minkowski-sum lattice decomposition instance check")
    p_oda.add_argument("file1")
    p_oda.add_argument("file2")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        radius_default = _env_int("EWALDKIT_RADIUS", DEFAULT_RADIUS)
        bound_default = _env_int("EWALDKIT_BOUND", DEFAULT_BOUND)
        return _dispatch(args, radius_default, bound_default)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _dispatch(args, radius_default, bound_default) -> int:
    if args.cmd == "check":
        parsed = _read_polytope(args.file, args.allow_large)
        if parsed.polytope.origin_interior():  # the Ewald conditions list E(P)
            _refuse_large_ewald(parsed.polytope, args.allow_large)
        radius = args.radius if args.radius is not None else radius_default
        if not args.skip_neat:
            _refuse_large_neat(parsed.polytope, radius, args.allow_large)
        report = analyze_polytope(
            parsed.polytope, parsed.name, radius=radius, run_neat=not args.skip_neat
        )
        report["meta"]["radius"] = radius
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(_report_text(report))
        return 0

    if args.cmd == "ewald":
        parsed = _read_polytope(args.file, args.allow_large)
        _refuse_large_ewald(parsed.polytope, args.allow_large)
        order = ewald_set(parsed.polytope).ordered()
        print("%d Ewald points" % len(order))
        for pt in order:
            print(" ".join(str(x) for x in pt))
        return 0

    if args.cmd == "gen":
        p = generate(args.family, tuple(args.args))
        name = args.family + ("" if not args.args else "_" + "_".join(map(str, args.args)))
        sys.stdout.write(serialize_polytope(p, name))
        return 0

    if args.cmd == "displace":
        parsed = _read_polytope(args.file, args.allow_large)
        tight = tuple(int(x) for x in args.facets.split(","))
        face = FaceRef(tight, len(tight))
        disp = first_displacement(parsed.polytope, face)
        name = (parsed.name or "polytope") + "_displaced_" + args.facets
        sys.stdout.write(serialize_polytope(disp, name))
        return 0

    if args.cmd == "neat":
        parsed = _read_polytope(args.file, args.allow_large)
        radius = None if args.exact else (args.radius if args.radius is not None else radius_default)
        _refuse_large_neat(parsed.polytope, radius, args.allow_large)
        verdict = is_neat(parsed.polytope, radius)
        print("status: %s" % verdict.status)
        if radius is not None:
            print("radius: %d" % verdict.radius)
        if verdict.witness_b is not None:
            print("witness b: %s" % (verdict.witness_b,))
        return 1 if verdict.is_counterexample else 0

    if args.cmd == "probe":
        bound = args.bound if args.bound is not None else bound_default
        check_bound(bound)  # before the file is read
        check_samples(args.samples)
        parsed = _read_polytope(args.file, args.allow_large)
        box = (2 * bound + 1) ** parsed.polytope.dim
        if box > MAX_PROBE_BOX and not args.allow_large:
            raise ValueError(
                "probe bound %d in dimension %d spans a box of %d directions, above the "
                "limit of %d; pass --allow-large to override"
                % (bound, parsed.polytope.dim, box, MAX_PROBE_BOX)
            )
        if args.point:
            pt = _parse_rational_point(args.point)
            probe = displaceable_by_probe(parsed.polytope, pt, bound)
            if probe is None:
                print("not found (bound %d)" % bound)
                return 1
            print(
                "displaceable: facet %d, direction %s, start %s"
                % (probe.facet, probe.direction, tuple(map(str, probe.start)))
            )
            return 0
        if not args.allow_large:
            p = parsed.polytope
            search, centre = _slab_search(p, _sample_upper(p, args.samples), args.samples)
            _refuse_count("probe grid at %d samples" % args.samples, "limit", search, centre, MAX_PROBE_BOX)
        _refuse_large_ewald(parsed.polytope, args.allow_large)  # star_ewald lists E(P)
        report = star_probe_crosscheck(parsed.polytope, args.samples, bound)
        print(
            "star_ewald=%s samples=%d bound=%d displaceable=%d/%d"
            % (report.star_ewald, report.samples, report.bound, report.displaceable, report.total)
        )
        for pt in report.undisplaceable_points:
            print("undisplaceable: %s" % (tuple(map(str, pt)),))
        if report.star_ewald and not report.all_displaceable:
            return 1
        return 0

    if args.cmd == "count":
        return _count(args)

    if args.cmd == "batch":
        radius = args.radius if args.radius is not None else radius_default
        stats = ingest_database(
            args.directory,
            radius=radius,
            run_neat=args.neat,
            jobs=args.jobs,
            allow_large=args.allow_large,
        )
        if args.json:
            print(json.dumps(stats.as_dict(), indent=2, sort_keys=True))
        else:
            print("%d files analyzed, %d excluded" % (len(stats.reports), len(stats.excluded)))
            for name, reason in stats.excluded:
                print("excluded %s: %s" % (name, reason))
            for d, hist in sorted(stats.histograms.items()):
                print(
                    "dim %d Ewald histogram: {%s}"
                    % (d, ", ".join("%d: %d" % kv for kv in sorted(hist.items())))
                )
            for d, (mono, ut, deep) in sorted(stats.class_counts.items()):
                print(
                    "dim %d counts: monotone %d, UT-free %d, deeply monotone %d"
                    % (d, mono, ut, deep)
                )
        return 0

    if args.cmd == "oda":
        p1 = _read_polytope(args.file1, args.allow_large)
        p2 = _read_polytope(args.file2, args.allow_large)
        ok = oda_instance_check(p1.polytope, p2.polytope)
        print("decomposition identity: %s" % ("holds" if ok else "FAILS"))
        return 0 if ok else 1

    raise AssertionError("unhandled command")


# count subcommand -> (number of integer arguments, closed form)
_COUNTS = {
    "simplex": (1, ewald_count_simplex),
    "ssb": (2, ewald_count_ssb),
    "emin": (1, emin_upper_bound),
    "tables": (0, None),
}
# the largest direction box (2·bound + 1)^n, and the largest sample grid
# (its points counted with the origin), that `probe` takes without
# --allow-large: the probe search lists and sorts the whole box, and the
# cross-check probes every point of a grid that grows like samples^n.  It
# admits dimension 6 at the default bound 3 (7^6 = 117,649), not dimension
# 7, and on gen cube 3 up to 29 samples (57^3 = 185,193 points), not 30
MAX_PROBE_BOX = 200_000
# the largest n `count` accepts; every answer up to it has fewer than n
# digits, so it also prints within Python's default int-to-str limit
MAX_COUNT_N = 4300


def _count(args) -> int:
    what = args.what
    arity, formula = _COUNTS[what]
    if len(args.args) != arity:
        raise ValueError("count %s takes %d argument(s), got %d" % (what, arity, len(args.args)))
    if args.args and args.args[0] > MAX_COUNT_N:
        raise ValueError(
            "count %s: n = %d is above the limit of %d" % (what, args.args[0], MAX_COUNT_N)
        )
    if formula is not None:
        print(formula(*args.args))
        return 0
    # tables, built once and printed as JSON or as aligned text
    simplex = {n: ewald_count_simplex(n) for n in range(1, 10)}
    ssb = {n: [ewald_count_ssb(n, k) for k in range(n)] for n in range(2, 10)}
    emin = {n: emin_upper_bound(n) for n in range(3, 33)}
    if args.json:
        doc = {
            "simplex": {str(n): c for n, c in simplex.items()},
            "ssb": {str(n): row for n, row in ssb.items()},
            "emin_upper_bound": {str(n): c for n, c in emin.items()},
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print("|E(simplex_n)| for n = 1..9:")
    print("  " + " ".join(map(str, simplex.values())))
    print("|E(SSB(n,k))| for n = 2..9, k = 0..n-1:")
    for n, row in ssb.items():
        print("  n=%d: " % n + " ".join("%5d" % c for c in row))
    print("upper bounds for the minimum Ewald count, n = 3..32:")
    for n, c in emin.items():
        print("  %2d %d" % (n, c))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
