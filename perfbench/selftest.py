"""Tiny-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

On a handful of cheap inputs of every workload it checks that
- every metric named in BENCHMARK.json is printed, and reported in the
  JSON line with the unit BENCHMARK.json gives it;
- the counts of the traced run, and the attempted and failed items of a
  timed run, repeat exactly across two runs;
- one corrupted expected value makes the failure ratio nonzero and the run
  incorrect;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  with a nonzero code and prints no result.
It exits 1 at the first check that fails.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SEED = 7
TINY = {
    "check": ("triangle", "hexagon", "cube3", "ssb31", "hexagon+shift", "delpezzo3", "segment_x_hexagon"),
    "neat": ("square|", "hexagon|", "delta2_x2|", "ssb31|r=1"),
    "crosscheck": (
        "simplex7", "tower:segment+2", "bundle:hexagon/0+1", "split:hexagon", "recursion:segment+2",
        "volume:hexagon", "hull:hexagon", "oda:hexagon*1", "probe:hexagon",
    ),
}


def fail(msg):
    print("selftest FAILED: %s" % msg)
    sys.exit(1)


def quiet(fn, *args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


def tiny_items(name):
    lib, workload, items = run.setup(name, SEED)
    # neat entries are label prefixes, the others whole labels
    keep = [it for it in items if it.label in TINY[name] or name == "neat" and it.label.startswith(TINY[name])]
    if len(keep) < 3:
        fail("%s: only %d tiny items" % (name, len(keep)))
    return lib, workload, keep


def check_metrics(name, metrics, printed, declared):
    for m in declared:
        if m["name"] not in metrics:
            fail("%s: metric %s missing from the JSON line" % (name, m["name"]))
        if metrics[m["name"]][1] != m["unit"]:
            fail("%s: %s has unit %s, BENCHMARK.json says %s" % (name, m["name"], metrics[m["name"]][1], m["unit"]))
        line = next((ln for ln in printed.splitlines() if ln.split()[:1] == [m["name"]]), None)
        if line is None or m["unit"] not in line.split():
            fail("%s: %s is not printed with its unit" % (name, m["name"]))
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        fail("%s: metrics not in BENCHMARK.json: %s" % (name, sorted(extra)))


def bare_directory_run():
    bare = os.path.join(run.ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("run.py in a directory without src/ exited %d with output %r" % (proc.returncode, proc.stdout[-200:]))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for name in TINY:
        lib, workload, items = tiny_items(name)

        (out, metrics), printed = quiet(run.end_to_end, workload, lib, items, SEED, 2)
        check_metrics(name, metrics, printed, bench["end_to_end"])
        if "failed_ratio" not in printed or not out.correct:
            fail("%s: failed_ratio not printed, or the clean run is incorrect" % name)
        (again, _), _ = quiet(run.end_to_end, workload, lib, items, SEED, 2)
        if (again.attempted, again.failed) != (out.attempted, out.failed):
            fail("%s: %d of %d failed, then %d of %d" % (name, out.failed, out.attempted, again.failed, again.attempted))

        (_, first), printed = quiet(run.per_layer, workload, lib, items, SEED)
        check_metrics(name, first, printed, bench["per_layer"])
        (_, second), _ = quiet(run.per_layer, workload, lib, items, SEED)
        for metric, (value, unit) in first.items():
            if unit in ("count", "ratio") and second[metric][0] != value:
                fail("%s: %s was %r, then %r" % (name, metric, value, second[metric][0]))

        broken = copy.deepcopy(items)
        victim = next(it for it in broken if not it.known_defect)
        key = sorted(victim.expect)[0]
        victim.expect[key] = "corrupted"
        (out, _), printed = quiet(run.end_to_end, workload, lib, broken, SEED, 1)
        if out.correct or out.failed / out.attempted == 0:
            fail("%s: corrupting %s of %s went unnoticed" % (name, key, victim.label))
        print("selftest %s: %d items, metrics and units match, counts repeat, corruption caught"
              % (name, len(items)))
    bare_directory_run()
    print("selftest: run.py refuses to run without src/")
    print("selftest passed")


if __name__ == "__main__":
    main()
