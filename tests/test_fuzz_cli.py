"""Seeded fuzz over the polytope file format: catalog files with dropped or
duplicated lines, rows of the wrong arity, non-integer tokens, and empty,
flat and unbounded systems.  parse_polytope may only raise ValueError, and
`ewaldkit check` / `ewaldkit ewald` must exit 0, 1 or 2 without a
traceback on stderr."""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

from ewaldkit.bundles import catalog
from ewaldkit.cli import main
from ewaldkit.fileio import parse_polytope, serialize_polytope

BAD_TOKENS = ("x", "1.5", "1/2", "--1", "+", "0x1", "nan", "١")

# each header comes once, before the rows, as every row is checked against
# the headers above it
HEADER_ORDER = (
    "dim 2\nfacets 4\n1 0 1\n-1 0 1\n0 1 1\n0 -1 1\ndim 3\n",
    "dim 2\nvertices 4\n1 1\n-1 1\n1 -1\n-1 -1\nfacets 4\n",
    "dim 3\ndim 2\nfacets 4\n1 0 1\n-1 0 1\n0 1 1\n0 -1 1\n",
    "dim 2\nfacets 4\nvertices 3\n0 0\n1 0\n0 1\n",
    "dim 2\nfacets 4\n1 0 1\n-1 0 1\nfacets 4\n0 1 1\n0 -1 1\n",
)

SPECIAL = (
    "",
    "dim\nfacets 2\n1 1\n-1 1\n",
    "dim 1\nfacets\n1 1\n-1 1\n",
    "dim 2\n",
    "facets 2\n1 1\n-1 1\n",
    "dim 0\nfacets 0\n",
    "dim -1\nfacets 0\n",
    "dim 13\nfacets 1\n" + " ".join(["1"] * 14) + "\n",
    # empty: x <= -1 and -x <= -1
    "dim 1\nfacets 2\n1 -1\n-1 -1\n",
    # flat: a segment in the plane
    "dim 2\nfacets 4\n1 0 1\n-1 0 1\n0 1 0\n0 -1 0\n",
    # unbounded: a strip, a half-plane, one row
    "dim 2\nfacets 2\n0 1 1\n0 -1 1\n",
    "dim 2\nfacets 1\n1 0 1\n",
    "dim 2\nfacets 3\n1 0 1\n0 1 1\n1 1 1\n",
    # zero normal, non-dividing gcd, duplicate rows
    "dim 2\nfacets 3\n0 0 1\n1 0 1\n0 1 1\n",
    "dim 2\nfacets 3\n-1 0 1\n0 -1 1\n2 2 1\n",
    "dim 2\nfacets 4\n-1 0 1\n0 -1 1\n1 1 1\n1 1 1\n",
    # vertex blocks: too few points, collinear points, wrong arity
    "dim 2\nvertices 2\n0 0\n1 0\n",
    "dim 2\nvertices 3\n0 0\n1 1\n2 2\n",
    "dim 2\nvertices 3\n0 0\n1 0 0\n0 1\n",
    # headers repeated, or after the rows
    *HEADER_ORDER,
    # |E(P)| above sys.maxsize: a strip, refused, and a box with the origin on a facet
    "dim 2\nfacets 4\n1 0 3\n-1 0 3\n0 1 {0}\n0 -1 {0}\n".format(10**19),
    "dim 2\nfacets 4\n1 0 {0}\n-1 0 0\n0 1 {0}\n0 -1 {0}\n".format(10**19),
)


def _reshape(rng, text):
    # a well-formed file with one row dropped, duplicated or moved: the
    # system may turn unbounded, redundant, empty or flat
    lines = text.splitlines()
    header = next(k for k, line in enumerate(lines) if line.startswith("facets"))
    i = rng.randrange(header + 2, len(lines))  # the rows follow facets and name
    kind = rng.randrange(3)
    if kind == 2:
        parts = lines[i].split()
        parts[-1] = str(int(parts[-1]) + rng.randint(-3, 1))
        lines[i] = " ".join(parts)
    else:
        count = len(lines) - header - 2 + (1 if kind else -1)
        lines[header] = "facets %d" % count
        if kind:
            lines.insert(i, lines[i])
        else:
            del lines[i]
    return "\n".join(lines) + "\n"


def _corrupt(rng, text):
    # one line dropped or duplicated, or one token too few, too many or not
    # an integer
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    parts = lines[i].split() or [""]
    kind = rng.randrange(4)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2:
        if rng.random() < 0.5:
            parts.pop(rng.randrange(len(parts)))
        else:
            parts.insert(rng.randrange(len(parts) + 1), str(rng.randint(-2, 2)))
        lines[i] = " ".join(parts)
    else:
        parts[rng.randrange(len(parts))] = rng.choice(BAD_TOKENS)
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


def _cases():
    rng = random.Random(2026)
    bases = [serialize_polytope(p, name) for name, p in catalog().items() if p.dim <= 3]
    out = list(SPECIAL)
    for _ in range(160):
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 2)):
            text = _reshape(rng, text)
        if rng.random() < 0.5:
            text = _corrupt(rng, text)
        out.append(text)
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_parse_polytope_raises_only_value_error():
    parsed = 0
    for text in _cases():
        try:
            parse_polytope(text)
            parsed += 1
        except ValueError:
            pass
    assert 0 < parsed < len(_cases())


def test_cli_exits_0_1_or_2_without_traceback(tmp_path):
    codes = set()
    for k, text in enumerate(_cases()):
        path = tmp_path / ("case%d.txt" % k)
        path.write_text(text)
        for argv in (["check", "--json", "--skip-neat", str(path)], ["check", "--radius", "1", str(path)],
                     ["ewald", str(path)]):
            code, err = _run(argv)
            assert code in (0, 1, 2), (argv, text, code)
            assert "Traceback" not in err, (argv, text, err)
            codes.add(code)
    assert {0, 2} <= codes
