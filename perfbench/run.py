"""Run one ewaldkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {check,neat,crosscheck} --seed N \
        --seconds S --trace {0,1}

One process, one thread, a closed loop: the next item starts when the
previous one has returned.  The workload's inputs come from --seed only;
ewaldkit sees nothing but the generated polytope files.  Every item's
outcome is compared with an expectation from oracles.py.

--trace 0 times the loop in rounds.  A round runs the workload's inputs
once each: the GL(n,Z) images drawn from the seed at set-up, the same in
every round, in an order shuffled by the seed.  Inputs that take a second
or more (the workload's single_sample) run in the first round only.  The
number of rounds follows from --seconds and the workload's nominal pass
time, not from the clock, so a seed attempts the same items on every run.

The machine is shared and its speed drifts: the same code runs up to 2x
slower for stretches of a fraction of a second to minutes, with CPU time
equal to wall time.  So every PROBE_EVERY_S of item time the run also times
reference.probe(), a fixed computation that shares no code with ewaldkit,
and divides every time it reports by the run's slowdown, the mean probe
time over reference.NOMINAL_S: timings are seconds at the reference speed,
and the unscaled values are printed beside them.  An input's latency is
the mean of its samples; items_per_s is the number of inputs that
succeeded per second of one pass over all inputs (the sum of their
latencies); the percentiles are taken over the inputs.  setup_s is the
median of SETUPS fresh interpreters, started at even intervals through the
run, each timed from its start until it has imported ewaldkit and built
and serialised the inputs, i.e. until it would time its first item.

--trace 1 runs each item of the first round untraced and then traced,
records a span around every call the benchmark and fileio make into an
ewaldkit module, and prints the per-layer metrics; the spans go to
.perfbench/ in the checkout.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `failed` counts items that
raised or disagreed with their expectation; `correct` is false when an
item disagreed or raised anything other than its documented known defect.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 9
PROBE_EVERY_S = 1.5  # item time between two probes of the machine's speed
MODULES = ("fileio", "polytope", "classify", "ewald", "displace", "bundles", "counting", "probes")
SRC = os.path.join(ROOT, "src")


def import_ewaldkit():
    """Import ewaldkit from the checkout's src/."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("ewaldkit")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError("ewaldkit was not imported from %s" % SRC)
    return SimpleNamespace(**{m: sys.modules["ewaldkit." + m] for m in MODULES})


def make_pass(workload, seed):
    return workload.make_pass(random.Random("%s:%d" % (workload.name, seed)))


def setup(name, seed):
    """Import ewaldkit and build and serialise the workload's inputs."""
    lib = import_ewaldkit()
    workload = workloads.WORKLOADS[name](oracles.load_tables())
    return lib, workload, make_pass(workload, seed)


def clock():
    # CLOCK_MONOTONIC is one clock for every process of the machine
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def time_setup(name, seed):
    """Seconds from starting a fresh interpreter on run.py until it has
    done setup() and would time its first item."""
    start = clock()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - start


class Outcomes:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = {}

    def run(self, workload, item, lib, tr):
        self.attempted += 1
        try:
            bad = workload.run(item, lib, tr)
        except workloads.KnownDefect as exc:
            self._fail(item, "known defect: %s" % exc)
            return False
        except Exception as exc:  # keep measuring; the failure is reported
            self.correct = False
            self._fail(item, "raised %r" % exc, traceback.format_exc())
            return False
        if bad:
            self.correct = False
            self._fail(item, "disagrees with the oracle on %s" % ", ".join(bad))
            return False
        return True

    def _fail(self, item, why, tb=None):
        self.failed += 1
        if item.label not in self.notes:
            self.notes[item.label] = why
            if tb:
                print(tb, file=sys.stderr)


def quantile(values, q):
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def rounds_for(workload, seconds):
    """Rounds of a --trace 0 run.  They follow from --seconds and the
    workload's nominal pass time, never from the clock, so a seed always
    attempts the same items however fast the machine runs."""
    return max(1, round(seconds / workload.pass_seconds))


def timed_run(workload, lib, items, seed, rounds, out):
    """`rounds` rounds over the items, each in an order shuffled by the
    seed; the workload's single_sample inputs run in the first round only.
    SETUPS set-ups are spread evenly over the run, with a probe of the
    machine's speed before the first item, after every PROBE_EVERY_S of
    item time and after the last.  Samples are kept as (label, seconds)."""
    samples, setups, probes = [], [], [reference.probe()]
    ok = {}  # label -> every sample succeeded
    order = random.Random(seed)
    again = [item for item in items if item.label not in workload.single_sample]
    passes = [items] + [again] * (rounds - 1)
    total = sum(map(len, passes))
    due = [i * total // SETUPS for i in range(SETUPS)]
    t_start = time.perf_counter()
    since_probe = 0.0
    k = 0
    for pool in passes:
        for item in order.sample(pool, len(pool)):
            while due and due[0] <= k:
                due.pop(0)
                setups.append(time_setup(workload.name, seed))
            t = time.perf_counter()
            good = out.run(workload, item, lib, tracing.NullTracer())
            sec = time.perf_counter() - t
            samples.append((item.label, sec))
            ok[item.label] = ok.get(item.label, True) and good
            k += 1
            since_probe += sec
            if since_probe >= PROBE_EVERY_S:
                probes.append(reference.probe())
                since_probe = 0.0
    probes.append(reference.probe())
    return samples, ok, setups, probes, time.perf_counter() - t_start


def end_to_end(workload, lib, items, seed, rounds):
    out = Outcomes()
    samples, ok, setup_times, probes, wall = timed_run(workload, lib, items, seed, rounds, out)
    slow = statistics.fmean(probes) / reference.NOMINAL_S
    per_input = {}
    for label, sec in samples:
        per_input.setdefault(label, []).append(sec)
    unscaled = {label: statistics.fmean(secs) for label, secs in per_input.items()}
    latency = {label: sec / slow for label, sec in unscaled.items()}
    metrics = {
        "setup_s": (statistics.median(setup_times) / slow, "s"),
        "items_per_s": (sum(ok.values()) / sum(latency.values()), "1/s"),
        "latency_p50_s": (quantile(latency.values(), 0.5), "s"),
        "latency_p90_s": (quantile(latency.values(), 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    n_inputs, n_samples = len(latency), len(samples)
    q = statistics.quantiles(probes, n=4)
    print("workload %s, seed %d: %d rounds over %d inputs, %d items in %.1f s; %d probes of reference_work()"
          " took %.4f s on average (quartiles %.4f-%.4f), so the machine ran at %.3f times the reference time"
          % (workload.name, seed, rounds, n_inputs, n_samples, wall, len(probes), statistics.fmean(probes),
             q[0], q[2], slow))
    notes = {
        "setup_s": "median of %d fresh set-ups, unscaled: %s" % (len(setup_times), " ".join("%.4f" % t for t in setup_times)),
        "items_per_s": "%d inputs that succeeded, per second of one pass over all inputs" % sum(ok.values()),
        "latency_p50_s": "n=%d inputs, each the mean of its 1-%d samples, %d samples" % (n_inputs, rounds, n_samples),
        "latency_p90_s": "n=%d inputs, %d beyond the p90" % (n_inputs, sum(v > metrics["latency_p90_s"][0] for v in latency.values())),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, (value, unit) in metrics.items():
        raw = "" if unit == "MB" else "; %.6g %s unscaled" % (value / slow if unit == "1/s" else value * slow, unit)
        print("  %-15s %12.6g %-4s (%s%s)" % (name, value, unit, notes[name], raw))
    print("  %-15s %12.6g %-4s (%d failed of %d attempted; not a bounded metric)"
          % ("failed_ratio", out.failed / out.attempted, "", out.failed, out.attempted))
    return out, metrics


def per_layer(workload, lib, items, seed):
    """Each item untraced and then traced, back to back, so that the two
    walls behind trace.overhead_s see the machine at the same speed."""
    base = Outcomes()
    out = Outcomes()
    tr = tracing.Tracer()
    counts = {}
    wall_untraced = wall_traced = 0.0
    for item in items:
        t = time.perf_counter()
        base.run(workload, item, lib, tracing.NullTracer())
        wall_untraced += time.perf_counter() - t
        t = time.perf_counter()
        with tr.patched(lib.fileio, workloads.FILEIO_CALLS):
            tr.item = item.label
            with tr.span("item"):
                out.run(workload, item, lib, tr)
        wall_traced += time.perf_counter() - t
        for key, value in item.counts.items():
            counts[key] = counts.get(key, 0) + value

    own = tr.self_times()
    c = tr.counters

    def busy(*names):
        return sum(own.get((n, False), 0.0) for n in names)

    def attributed(name):
        return own.get((name, True), 0.0)

    def share(a, b):
        return c.get(a, 0) / c[b] if c.get(b) else 0.0

    neat_s = busy("displace.is_neat")
    enumerate_s = attributed("displace.normally_isomorphic_displacements")
    metrics = {
        "fileio.parse_s": (busy("fileio.parse_polytope"), "s"),
        "fileio.parse_calls": (tr.calls("fileio.parse_polytope"), "count"),
        "polytope.vertices_s": (attributed("polytope.vertices"), "s"),
        "polytope.vertex_subsets": (counts.get("vertex_subsets", 0), "count"),
        "polytope.convex_hull_s": (busy("polytope.convex_hull") + attributed("polytope.convex_hull"), "s"),
        "polytope.hull_subsets": (counts.get("hull_subsets", 0), "count"),
        "polytope.oda_s": (busy("polytope.oda_instance_check"), "s"),
        "classify.classify_s": (busy("classify.classify"), "s"),
        "ewald.ewald_set_s": (busy("ewald.ewald_set"), "s"),
        "ewald.points": (counts.get("ewald_points", 0), "count"),
        "ewald.weak_s": (busy("ewald.weak_ewald"), "s"),
        "ewald.strong_s": (busy("ewald.strong_ewald"), "s"),
        "ewald.star_s": (busy("ewald.star_ewald"), "s"),
        "ewald.star_faces": (counts.get("star_faces", 0), "count"),
        "ewald.star_fail_share": (share("star_fails", "star_runs"), "ratio"),
        "displace.enumerate_s": (enumerate_s, "s"),
        "displace.qualifying": (c.get("qualifying", 0), "count"),
        "displace.pairs": (c.get("pairs", 0), "count"),
        "displace.neat_s": (neat_s, "s"),
        "displace.scan_s": (neat_s - enumerate_s, "s"),
        "displace.counterexample_share": (share("counterexamples", "neat_items"), "ratio"),
        "bundles.build_s": (busy("bundles.small_fiber_bundle"), "s"),
        "counting.volume_s": (busy("counting.normalized_volume"), "s"),
        "counting.split_s": (busy("counting.facet_ewald_split", "counting.small_bundle_split_recursion_check"), "s"),
        "probes.crosscheck_s": (busy("probes.star_probe_crosscheck"), "s"),
        "probes.samples": (c.get("probe_samples", 0), "count"),
        "probes.displaceable_share": (share("probe_displaceable", "probe_samples"), "ratio"),
        "trace.overhead_s": (wall_traced - wall_untraced, "s"),
    }

    print("workload %s, seed %d: %d inputs; untraced %.3f s, traced %.3f s"
          % (workload.name, seed, len(items), wall_untraced, wall_traced))
    print("  self time per layer (share of the traced round; a layer's share caps what")
    print("  speeding it up alone can save, since every item runs serially):")
    layers = {}
    for (name, is_attributed), sec in own.items():
        if not is_attributed:
            layer = name.split(".")[0] if name != "item" else "benchmark"
            layers[layer] = layers.get(layer, 0.0) + sec
    for layer, sec in sorted(layers.items(), key=lambda kv: -kv[1]):
        print("    %-10s %9.4f s  %5.1f%%" % (layer, sec, 100 * sec / wall_traced))
    print("  attributed splits (re-timed on the side, excluded from the totals above):")
    for (name, is_attributed), sec in sorted(own.items()):
        if is_attributed:
            print("    %-48s %9.4f s" % (name, sec))
    for name, (value, unit) in metrics.items():
        print("  %-31s %14.6g %s" % (name, value, unit))
    path = os.path.join(ROOT, ".perfbench", "spans-%s-seed%d.json" % (workload.name, seed))
    tr.write(path)
    print("  %d spans written to %s" % (len(tr.spans), os.path.relpath(path, ROOT)))
    return out, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        lib, workload, items = setup(args.workload, args.seed)
    except ImportError as exc:
        print("error: cannot import ewaldkit from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    if args.setup_only:
        print(clock())
        return 0
    if args.trace:
        out, metrics = per_layer(workload, lib, items, args.seed)
    else:
        out, metrics = end_to_end(workload, lib, items, args.seed, rounds_for(workload, args.seconds))
    for label, why in sorted(out.notes.items()):
        print("  failed: %s: %s" % (label, why))
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
