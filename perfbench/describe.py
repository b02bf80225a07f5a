"""Input properties of each workload's pass, written into manifest.json.

    python3 perfbench/describe.py

GL(n,Z) images keep dimension, facet count, simplicity and whether the
origin is interior, so these properties do not depend on the seed; the
seed changes the images, the order in which run.py runs the items of each
round and, on check, the direction of each lattice translate.
"""

from __future__ import annotations

import json
import os
import random
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402


def _header(text):
    dim = int(text.split("\n", 1)[0].split()[1])
    rows = [line.split() for line in text.splitlines()[2:] if not line.startswith("name")]
    interior = text.splitlines()[1].startswith("facets") and all(int(r[-1]) > 0 for r in rows)
    return dim, len(rows), interior


def _histogram(values):
    return {str(k): v for k, v in sorted(Counter(values).items())}


def properties(name):
    wl = W.WORKLOADS[name](O.load_tables())
    items = wl.make_pass(random.Random(0))
    shapes = [_header(item.texts[0]) for item in items]
    seen, repeats = set(), 0
    for item in items:
        repeats += item.base in seen
        seen.add(item.base)
    n = len(items)
    props = {
        "inputs_per_pass": n,
        "item_kinds": dict(Counter(item.kind for item in items)),
        "dimension_histogram": _histogram(d for d, _, _ in shapes),
        "facet_histogram": _histogram(m for _, m, _ in shapes),
        "interior_origin_share": round(sum(i for _, _, i in shapes) / n, 4),
        "non_simple_share": round(sum(item.known_defect is not None for item in items) / n, 4),
        "isomorphic_to_earlier_share": round(repeats / n, 4),
    }
    if name == "neat":
        radii = [item.args["radius"] for item in items]
        props["radius_mix"] = _histogram(radii)
        props["counterexample_share"] = round(
            sum(item.expect["status"] == "counterexample" for item in items) / n, 4)
        props["symmetric_share"] = round(
            sum(item.base.split("|")[0] in W.NEAT_SYMMETRIC for item in items) / n, 4)
    return props


def main():
    path = os.path.join(HERE, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["input_properties"] = {name: properties(name) for name in W.WORKLOADS}
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
