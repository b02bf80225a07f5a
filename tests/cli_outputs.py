"""Fingerprints of the command line's outputs.

Runs a fixed list of `ewaldkit` command lines in-process through
`cli.main` and prints one line per command: the command line, its exit
code and the sha256 of its stdout and of its stderr.  `elapsed_s` in a JSON
report and the path of the input directory are masked first, so two runs
of the same code print the same lines.

    PYTHONPATH=src python tests/cli_outputs.py > outputs.txt

Run it in two trees and diff the two outputs: a changed line is a command
whose exit code or output changed in some byte.

A command line is split with shlex.  `{name}` stands for the input file
`name.poly` (a catalog member, or one of GENERATED and EXTRA), `{missing}`
for a file that does not exist and `{dir}` for a directory holding the 15
catalog members.  Leading `VAR=value` words set environment variables for
that command alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import shlex
import tempfile

from ewaldkit import cli
from ewaldkit.bundles import catalog, cube
from ewaldkit.fileio import serialize_polytope
from ewaldkit.polytope import HPolytope

# the inputs that gen writes, beside the catalog members
GENERATED = {"cube6": ["gen", "cube", "6"], "cube7": ["gen", "cube", "7"], "cube8": ["gen", "cube", "8"],
             "cube12": ["gen", "cube", "12"], "cube13": ["--allow-large", "gen", "cube", "13"],
             "t2": ["gen", "t", "2"], "simplex21": ["gen", "smooth-simplex", "2", "1"], "dp3": ["gen", "delpezzo", "3"]}


def _shifted_cube(n, scale, shift):
    c = cube(n)
    return HPolytope(n, c.normals, tuple(scale * x for x in c.offsets)).translate((shift,) + (0,) * (n - 1))


def _vertex_file(name, points):
    rows = "".join(" ".join(map(str, x)) + "\n" for x in points)
    return "dim %d\nvertices %d\nname %s\n%s" % (len(points[0]), len(points), name, rows)


# inputs past a limit: a class box of 39^6 points ([−2, 18]^6), a radius
# window [−1, 1]^14 (3·C_7 + 3·e_1), and an unbounded strip; and two vertex
# files, which the parse hulls: 2·DP_2's vertices with the origin and an edge
# midpoint among them, and cube(3)'s vertices under a unimodular map
EXTRA = {
    "wide": serialize_polytope(HPolytope(6, cube(6).normals, (18, 2) * 6), "wide"),
    "shifted7": serialize_polytope(_shifted_cube(7, 3, 3), "shifted7"),
    "strip": "dim 2\nfacets 2\n1 0 1\n-1 0 1\n",
    "hexpoints": _vertex_file("hexpoints", [(2, 0), (2, 2), (0, 2), (-2, 0), (0, 0), (-2, -2), (2, 1), (0, -2)]),
    "cubepoints": _vertex_file("cubepoints", cube(3).transform(((1, 1, 0), (0, 1, -1), (1, 1, 1))).vertices()),
}


def _per_file(name, dim):
    point = ",".join(["1/2"] + ["0"] * (dim - 1))
    lines = ["check {%s}", "check {%s} --json", "check {%s} --skip-neat", "check {%s} --skip-neat --json",
             "check {%s} --radius 1 --json", "ewald {%s}", "neat {%s}", "neat {%s} --exact", "neat {%s} --radius 1",
             "probe {%s}", "probe {%s} --samples 2 --bound 2", "probe {%s} --point " + point,
             "displace {%s} --facets 0", "displace {%s} --facets 0,2", "oda {%s} {%s}"]
    return [line.replace("%s", name) for line in lines]


def command_lines():
    """The fixed list: every subcommand on every input, then each limit's
    refusal and the malformed inputs."""
    dims = {name: p.dim for name, p in catalog().items()}
    dims.update(cube6=6, cube7=7)
    lines = [line for name, dim in dims.items() for line in _per_file(name, dim)]
    lines += ["gen " + " ".join(args) for args in (
        ["simplex", "3"], ["smooth-simplex", "3", "2"], ["cube", "3"], ["delpezzo", "4"], ["ssb", "4", "2"],
        ["smallfiber", "3", "0", "2"], ["paffenholz"], ["t", "2"], ["segment"], ["triangle"], ["trapezoid"],
        ["square"], ["pentagon"], ["hexagon"], ["cube", "12"], ["cube"], ["nosuch"])]
    lines += ["count simplex 9", "count ssb 5 2", "count emin 7", "count tables", "count tables --json",
              "count ssb 3", "count simplex 4300", "count simplex 4301"]
    lines += ["batch {dir}", "batch {dir} --json", "batch {dir} --neat --json", "batch {dir} --neat --radius 1",
              "batch {dir} --jobs 2 --json", "batch {dir} --neat --radius -1", "batch {dir} --jobs 0",
              "batch {missing}"]
    lines += [
        # one refusal per limit
        "check {cube13} --skip-neat", "gen cube 13", "check {cube12} --skip-neat", "ewald {cube12}",
        "probe {cube3} --samples 48", "neat {wide} --exact", "neat {wide} --radius 20", "check {wide} --radius 20",
        "neat {shifted7} --radius 1", "check {shifted7} --radius 1", "oda {cube8} {cube8}",
        # input errors, with and without a file to read
        "check {strip} --skip-neat", "check {missing}", "check {t2} --radius -1", "check {square} --radius -1",
        "check {t2} --skip-neat --radius -1", "neat {square} --radius -1", "neat {square} --exact --radius 1",
        "probe {square} --point ''", "probe {square} --point 1/0,0", "probe {square} --point 1/2",
        "probe {square} --point abc", "probe {missing} --point abc", "probe {missing} --point ''",
        "probe {square} --bound 0", "probe {square} --samples 0", "probe {missing} --samples 0",
        "probe {square} --point 1/2,0 --samples 0",
        "displace {square} --facets x", "displace {missing} --facets x", "displace {square} --facets 0,0",
        "displace {square} --facets 9", "oda {square} {missing}",
        "EWALDKIT_RADIUS=1 check {square} --json", "EWALDKIT_RADIUS=-1 check {square}",
        "EWALDKIT_RADIUS=abc count simplex 3", "EWALDKIT_BOUND=2 probe {square}", "EWALDKIT_BOUND=0 probe {square}",
    ]
    lines += [line % {"v": name} for name in ("hexpoints", "cubepoints") for line in (
        "check {%(v)s}", "check {%(v)s} --json", "ewald {%(v)s}", "probe {%(v)s}", "oda {%(v)s} {%(v)s}")]
    # the origin on the boundary, a non-simple input, and a sample no probe displaces
    lines += ["check {simplex21}", "check {dp3} --skip-neat", "probe {paffenholz} --samples 2 --bound 1"]
    return lines


def write_inputs(directory):
    """Write every input file into directory, the catalog members also into
    its subdirectory catalog/, which `{dir}` names."""
    os.makedirs(os.path.join(directory, "catalog"))
    for name, p in catalog().items():
        for sub in ("", "catalog"):
            with open(os.path.join(directory, sub, name + ".poly"), "w") as fh:
                fh.write(serialize_polytope(p, name))
    texts = dict(EXTRA)
    for name, argv in GENERATED.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0, argv
        texts[name] = out.getvalue()
    for name, text in texts.items():
        with open(os.path.join(directory, name + ".poly"), "w") as fh:
            fh.write(text)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(line, directory):
    """The line's fingerprint: line, exit code, sha256 of stdout and stderr."""
    words = shlex.split(line)
    env = {}
    while words and re.fullmatch(r"[A-Z_]+=.*", words[0]):
        var, _, value = words.pop(0).partition("=")
        env[var] = value
    paths = {"dir": os.path.join(directory, "catalog"), "missing": os.path.join(directory, "missing.poly")}
    argv = [re.sub(r"\{(\w+)\}", lambda m: paths.get(m[1], os.path.join(directory, m[1] + ".poly")), w) for w in words]
    out, err = io.StringIO(), io.StringIO()
    saved = {var: os.environ.get(var) for var in env}
    os.environ.update(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is a finding, not a crash of this script
        code = "raised " + type(exc).__name__
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    masked = [re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0', s.getvalue()).replace(directory, "$DIR")
              for s in (out, err)]
    return "%s\texit=%s\tout=%s\terr=%s" % (line, code, _sha(masked[0]), _sha(masked[1]))


def fingerprints(lines):
    """The fingerprint of each line, run against freshly written inputs."""
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        return [fingerprint(line, directory) for line in lines]


if __name__ == "__main__":
    for row in fingerprints(command_lines()):
        print(row, flush=True)
