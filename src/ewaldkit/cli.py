"""Command-line surface.

Subcommands: check, ewald, gen, displace, neat, probe, count, batch, oda.
Exit codes: 0 success, 1 property-check failure (Oda identity false, neat
counterexample, undisplaceable probe sample), 2 input error.

Every command runs one input stage (_check_options) before any file is
read: it resolves the radius and the bound and checks every option the
command reads, so a malformed option exits 2 with no file opened.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .bundles import generate, member_dim
from .counting import (
    emin_upper_bound,
    ewald_count_simplex,
    ewald_count_ssb,
)
from .displace import DEFAULT_RADIUS, check_radius, first_displacement, is_neat
from .ewald import ewald_set
from .fileio import (
    MAX_DIM_DEFAULT,
    MAX_EWALD_POINTS,
    MAX_NEAT_CLASS_BOX,
    MAX_ODA_SUMS,
    MAX_PROBE_BOX,
    _refuse_large_analysis,
    _refuse_large_dim,
    _refuse_large_ewald,
    _refuse_large_neat,
    _refuse_large_oda,
    _refuse_large_probe,
    analyze_polytope,
    ingest_database,
    parse_polytope,
    serialize_polytope,
)
from .polytope import oda_instance_check
from .probes import DEFAULT_BOUND, check_bound, check_samples
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
        fs = " fs=%s" % r["fs_property"] if "fs_property" in r else ""
        conditions = (r["weak_ewald"], r["strong_ewald"], r["star_ewald"], fs)
        lines.append("ewald conditions: weak=%s strong=%s star=%s%s" % conditions)
        if r["star_ewald_failing_face"] is not None:
            lines.append("star fails at face with facets %s" % r["star_ewald_failing_face"])
        if "star_ewald_skipped" in r:
            lines.append("star condition %s" % r["star_ewald_skipped"])
    else:
        lines.append(r["ewald_conditions"])
    if "neat" in r:
        neat = r["neat"]
        witness = " witness b=%s" % neat["witness_b"] if neat["witness_b"] else ""
        lines.append("neat: %s (radius %d)%s" % (neat["status"], neat["radius"], witness))
    return "\n".join(lines)


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
        "direction box and on the sample grid, the neatness limit of %d "
        "displacements (a class box decided whole, or the radius stream's window [-r, r]^m), "
        "and oda's limit of %d sums of lattice points"
        % (MAX_DIM_DEFAULT, MAX_EWALD_POINTS, MAX_PROBE_BOX, MAX_NEAT_CLASS_BOX, MAX_ODA_SUMS),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    # check, neat and batch share `radius` and `neat` (neatness requested),
    # which _check_options reads
    p_check = sub.add_parser("check", help="full analysis report for a polytope file")
    p_check.add_argument("file")
    p_check.add_argument("--radius", type=int, default=None, help="neatness search radius")
    p_check.add_argument("--skip-neat", dest="neat", action="store_false")
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
    p_neat.set_defaults(neat=True)

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
    p_oda.add_argument("file", metavar="file1")
    p_oda.add_argument("file2")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        _check_options(args)
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def _check_options(args) -> None:
    """The input stage of every command, before any file is read.  It
    resolves the radius (the flag, else EWALDKIT_RADIUS; None for the exact
    test) and the bound (the flag, else EWALDKIT_BOUND) into args, and checks
    every option the command reads: the radius where neatness is requested,
    the probe bound and point, the samples where no point is given, and the
    --facets list, which it parses into args.point and args.face (facet
    indices).  Raises ValueError on the first bad one."""
    radius = _env_int("EWALDKIT_RADIUS", DEFAULT_RADIUS)
    bound = _env_int("EWALDKIT_BOUND", DEFAULT_BOUND)
    if "radius" in args:  # check, neat and batch; neat --exact keeps None
        if args.radius is None and not getattr(args, "exact", False):
            args.radius = radius
        if args.neat and args.radius is not None:
            check_radius(args.radius)
    if args.cmd == "probe":
        args.bound = bound if args.bound is None else args.bound
        check_bound(args.bound)
        if args.point is None:  # the cross-check; a point reads no samples
            check_samples(args.samples)
        try:
            args.point = None if args.point is None else tuple(map(Fraction, args.point.split(",")))
        except ZeroDivisionError:
            raise ValueError("probe point %r has a zero denominator" % args.point) from None
    if args.cmd == "displace":
        args.face = tuple(int(x) for x in args.facets.split(","))


def _dispatch(args) -> int:
    parsed = _read_polytope(args.file, args.allow_large) if "file" in args else None
    if args.cmd == "check":
        _refuse_large_analysis(parsed.polytope, args.radius, args.neat, args.allow_large)
        report = analyze_polytope(parsed.polytope, parsed.name, radius=args.radius, run_neat=args.neat)
        report["meta"]["radius"] = args.radius
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(_report_text(report))
        return 0

    if args.cmd == "ewald":
        _refuse_large_ewald(parsed.polytope, args.allow_large)
        order = ewald_set(parsed.polytope).ordered()
        print("%d Ewald points" % len(order))
        for pt in order:
            print(" ".join(str(x) for x in pt))
        return 0

    if args.cmd == "gen":
        _refuse_large_dim(member_dim(args.family, args.args), args.allow_large)
        p = generate(args.family, tuple(args.args))
        name = args.family + ("" if not args.args else "_" + "_".join(map(str, args.args)))
        sys.stdout.write(serialize_polytope(p, name))
        return 0

    if args.cmd == "displace":
        disp = first_displacement(parsed.polytope, args.face)
        name = (parsed.name or "polytope") + "_displaced_" + args.facets
        sys.stdout.write(serialize_polytope(disp, name))
        return 0

    if args.cmd == "neat":
        _refuse_large_neat(parsed.polytope, args.radius, args.allow_large)
        verdict = is_neat(parsed.polytope, args.radius)
        print("status: %s" % verdict.status)
        if args.radius is not None:
            print("radius: %d" % verdict.radius)
        if verdict.witness_b is not None:
            print("witness b: %s" % (verdict.witness_b,))
        return 1 if verdict.is_counterexample else 0

    if args.cmd == "probe":
        crosscheck = args.point is None
        _refuse_large_probe(parsed.polytope, args.bound, args.samples if crosscheck else None, args.allow_large)
        if not crosscheck:
            probe = displaceable_by_probe(parsed.polytope, args.point, args.bound)
            if probe is None:
                print("not found (bound %d)" % args.bound)
                return 1
            print(
                "displaceable: facet %d, direction %s, start %s"
                % (probe.facet, probe.direction, tuple(map(str, probe.start)))
            )
            return 0
        report = star_probe_crosscheck(parsed.polytope, args.samples, args.bound)
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
        stats = ingest_database(
            args.directory,
            radius=args.radius,
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
        q = _read_polytope(args.file2, args.allow_large).polytope
        _refuse_large_oda(parsed.polytope, q, args.allow_large)
        ok = oda_instance_check(parsed.polytope, q)
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
