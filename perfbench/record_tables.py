"""Write tables.json: the per-polytope facts the oracles cannot derive.

    python3 perfbench/record_tables.py

It runs ewaldkit once on every base polytope in its own coordinates and
records class flags, |E(P)|, the Ewald flags, the number of non-empty faces
and the neatness verdicts.  Before writing, it checks the recorded counts
against the paper's tables and closed forms in oracles.py, so that a table
recorded from a wrong implementation is refused.  Face counts come from
intersecting vertex tight sets here, not from ewaldkit's face lattice.

The benchmark only reads the file; run this again only when a workload
gains a base polytope.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import families as F  # noqa: E402
import oracles as O  # noqa: E402
import workloads as W  # noqa: E402
from ewaldkit.classify import classify  # noqa: E402
from ewaldkit.displace import is_neat  # noqa: E402
from ewaldkit.ewald import ewald_set, fs_property, star_ewald, strong_ewald, weak_ewald  # noqa: E402
from ewaldkit.polytope import HPolytope  # noqa: E402


def nonempty_faces(p):
    tights = {frozenset(t) for t in p.vertex_tight_sets()}
    closed, frontier = set(tights), set(tights)
    while frontier:
        frontier = {a & b for a in frontier for b in tights} - closed
        closed |= frontier
    return len(closed | {frozenset()})


def atom_entry(name):
    normals, offsets = W.ATOMS[name]
    p = HPolytope(F.dim((normals, offsets)), normals, offsets).validate()
    rep = classify(p)
    entry = {
        "facets": p.nfacets,
        "vertices": len(p.vertices()),
        "faces": nonempty_faces(p),
        "ewald": len(ewald_set(p)),
    }
    entry.update({k: getattr(rep, k) for k in O.FLAGS})
    entry["weak"] = weak_ewald(p)[0]
    entry["strong"] = strong_ewald(p).ok
    entry["star"] = star_ewald(p)[0] if rep.simple else None
    entry["fs"] = fs_property(p) if rep.monotone else None
    return entry


def paper_count(name):
    """|E(P)| from the paper's tables and closed forms, or None."""
    n = F.dim(W.ATOMS[name])
    if name.startswith("simplex") or name == "triangle":
        return O.SIMPLEX_COUNTS[n]
    if name.startswith("cube") or name in ("square", "segment"):
        return O.cube_count(n)
    if name.startswith("delpezzo") or name == "hexagon":
        return O.del_pezzo_count(n)
    if name.startswith("ssb"):
        return O.SSB_TABLE[n][int(name[4])]
    if name == "trapezoid":
        return O.SSB_TABLE[2][1]
    if name.startswith("sfb") and name[3:].isdigit():
        return O.SFB_MINIMA[n]
    return None


def main():
    names = set(W.CHECK_ATOMS) | set(W.CHECK_NON_SIMPLE) | {"segment"}
    names |= set(W.CROSS_SPLITS) | {b for b, _, _ in W.CROSS_BUNDLES} | {b for b, _ in W.CROSS_PROBES}
    atoms = {}
    for name in sorted(names):
        atoms[name] = atom_entry(name)
        want = paper_count(name)
        if want is not None and atoms[name]["ewald"] != want:
            raise SystemExit("%s: |E| = %d, the paper says %d" % (name, atoms[name]["ewald"], want))
    for name in ("triangle", "trapezoid", "square", "pentagon", "hexagon"):
        assert atoms[name]["weak"] and atoms[name]["strong"] and atoms[name]["star"], name
    assert atoms["paffenholz"]["strong"] and not atoms["paffenholz"]["star"]

    neat = {}
    for name, r, shift in W.neat_cases():
        normals, offsets = W.shifted(W.base_polytope(name), shift)
        p = HPolytope(len(normals[0]), normals, offsets)
        v = is_neat(p, r)
        neat[W.neat_key(name, r, shift)] = [v.status, list(v.witness_b) if v.witness_b else None]

    with open(os.path.join(HERE, "tables.json"), "w") as fh:
        json.dump({"atoms": atoms, "neat": neat}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d atoms, %d neatness verdicts" % (len(atoms), len(neat)))


if __name__ == "__main__":
    main()
