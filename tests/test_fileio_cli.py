import io
import json
import os
import random
import sys
import time
from fractions import Fraction

import pytest

from conftest import random_unimodular
from ewaldkit import polytope
from ewaldkit.bundles import catalog, cube, monotone_simplex, nill_triangle, paffenholz_p6, ssb
from ewaldkit.cli import main
from ewaldkit.ewald import ewald_set
from ewaldkit.fileio import (
    analyze_polytope,
    ingest_database,
    parse_polytope,
    serialize_polytope,
)
from test_fuzz_cli import HEADER_ORDER

C2_TEXT = """dim 2
facets 4
1 0 1
-1 0 1
0 1 1
0 -1 1
"""


def run_cli(argv, stdin_text=None, capsys=None):
    old = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = main(argv)
    finally:
        sys.stdin = old
    out, err = capsys.readouterr()
    return code, out, err


def test_parse_examples():
    parsed = parse_polytope(C2_TEXT)
    assert parsed.polytope == cube(2)
    ssb_text = serialize_polytope(ssb(3, 2), "ssb_3_2")
    back = parse_polytope(ssb_text)
    assert back.polytope == ssb(3, 2) and back.name == "ssb_3_2"
    # non-primitive row is rescaled with a warning
    parsed = parse_polytope("dim 2\nfacets 4\n2 0 2\n-1 0 1\n0 1 1\n0 -1 1\n")
    assert parsed.polytope == cube(2)
    assert any("normalized" in w for w in parsed.warnings)


def test_parse_skips_comments_and_blank_lines():
    text = (
        "# a square\n\n   # an indented comment\ndim 2   # the dimension\n"
        "facets 4\nname square # trailing\n\n1 0 1 # first row\n-1 0 1\n#\n0 1 1\n0 -1 1\n"
    )
    parsed = parse_polytope(text)
    assert parsed.polytope == cube(2) and parsed.name == "square" and parsed.warnings == ()


def test_vertex_block_warns_about_non_extreme_points():
    parsed = parse_polytope("dim 2\nvertices 4\n1 0\n0 0\n0 1\n-1 -1\n")
    assert parsed.polytope == parse_polytope("dim 2\nvertices 3\n1 0\n0 1\n-1 -1\n").polytope
    assert parsed.warnings == ("vertex list contained non-extreme points; hull taken",)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_polytope("dim 2\nfacets 1\n1 0 1\n")  # unbounded after reduction
    with pytest.raises(ValueError):
        parse_polytope("facets 4\n1 0 1\n")
    with pytest.raises(ValueError):
        parse_polytope("dim 2\nfacets 1\n1 0\n")
    with pytest.raises(ValueError):
        parse_polytope("dim 2\nfacets 1\n2 0 1\n")  # gcd does not divide offset
    with pytest.raises(ValueError):
        parse_polytope("dim 13\nfacets 0\n")  # over the default cap


def test_parse_serialize_idempotent():
    for p in catalog().values():
        text = serialize_polytope(p, "x")
        once = parse_polytope(text)
        again = parse_polytope(serialize_polytope(once.polytope, "x"))
        assert once.polytope == again.polytope


def test_parse_redundant_rows_reported():
    text = "dim 2\nfacets 5\n1 0 1\n-1 0 1\n0 1 1\n0 -1 1\n1 1 5\n"
    parsed = parse_polytope(text)
    assert parsed.polytope == cube(2)
    assert any("redundant" in w for w in parsed.warnings)


CACHE_CASES = {
    # a redundant row and a duplicate normal with a looser offset
    "dropped": "dim 2\nfacets 6\n1 0 1\n-1 0 1\n0 1 1\n0 -1 1\n1 1 5\n1 0 3\n",
    # x + y <= 2 touches the square only at the vertex (1, 1)
    "weakly_redundant": "dim 2\nfacets 5\n1 1 2\n1 0 1\n-1 0 1\n0 1 1\n0 -1 1\n",
    # rows with a common factor, rescaled to primitive form
    "non_primitive": "dim 3\nfacets 6\n2 0 0 2\n-3 0 0 3\n0 1 0 1\n0 -1 0 1\n0 0 4 4\n0 0 -1 1\n",
    # 4x + 5y <= 3 passes through the rational vertex (1/3, 1/3) only
    "rational": "dim 2\nfacets 5\n2 1 1\n-1 0 1\n4 5 3\n0 -1 1\n1 2 1\n",
}


def test_parse_cache_matches_fresh_enumeration():
    texts = dict(CACHE_CASES)
    texts.update((name, serialize_polytope(p, name)) for name, p in catalog().items())
    for name, text in texts.items():
        parsed = parse_polytope(text)
        p = parsed.polytope
        fresh = polytope.enumerate_vertices(p.dim, p.normals, p.offsets)
        assert (p._cache["vertices"], p._cache["tights"]) == fresh, name
    assert any("dropped 2" in w for w in parse_polytope(CACHE_CASES["dropped"]).warnings)
    assert parse_polytope(CACHE_CASES["weakly_redundant"]).polytope == cube(2)
    assert parse_polytope(CACHE_CASES["non_primitive"]).polytope == cube(3)
    rational = parse_polytope(CACHE_CASES["rational"]).polytope
    assert rational.normals == ((2, 1), (-1, 0), (0, -1), (1, 2))
    assert not rational.is_lattice()


def test_parse_enumerates_vertices_once(monkeypatch):
    calls = []
    enumerate_vertices = polytope.enumerate_vertices

    def counted(*args):
        calls.append(args)
        return enumerate_vertices(*args)

    monkeypatch.setattr(polytope, "enumerate_vertices", counted)
    p = parse_polytope(serialize_polytope(paffenholz_p6(), "p6")).polytope
    assert len(calls) == 1
    p.validate()
    p.vertices()
    assert len(calls) == 1


def test_parse_and_analysis_read_the_vertex_masks(monkeypatch):
    # parsing decides full dimension with no affine rank, and the analysis
    # reports each witness face as its sorted facet list
    rng = random.Random(31)
    polys = list(catalog().values())
    polys += [p.transform(random_unimodular(rng, p.dim)) for p in polys if p.dim > 1]
    ranks = []
    affine_rank = polytope.affine_rank

    def counted_rank(points):
        ranks.append(points)
        return affine_rank(points)

    monkeypatch.setattr(polytope, "affine_rank", counted_rank)
    witnesses = set()
    for p in polys:
        q = parse_polytope(serialize_polytope(p)).polytope
        assert ranks == []
        r = analyze_polytope(q, run_neat=False)["result"]
        reported = [r["class"]["witnesses"].get("ut_free"), r.get("star_ewald_failing_face")]
        assert all(w is None or (type(w) is list and w == sorted(set(w))) for w in reported), p
        witnesses.update(k for k, w in zip(("ut", "star"), reported) if w is not None)
    assert witnesses == {"ut", "star"}


def test_vertex_block_adapter():
    text = "dim 2\nvertices 3\n1 0\n0 1\n-1 -1\n"
    parsed = parse_polytope(text)
    assert set(parsed.polytope.offsets) == {1}
    assert len(parsed.polytope.vertices()) == 3


def test_analyze_report_stable_payload():
    p = monotone_simplex(2)
    r1 = analyze_polytope(p, "d2", radius=1)
    r2 = analyze_polytope(p, "d2", radius=1)
    assert r1["result"] == r2["result"]
    assert r1["result"]["ewald_count"] == 7
    assert r1["result"]["weak_ewald"] and r1["result"]["strong_ewald"]
    assert r1["result"]["neat"]["status"] == "neat_up_to_radius"


def test_ingest_database(tmp_path):
    for name in ("triangle", "trapezoid", "square", "pentagon", "hexagon"):
        from ewaldkit.bundles import monotone_polygon

        (tmp_path / (name + ".poly")).write_text(
            serialize_polytope(monotone_polygon(name), name)
        )
    (tmp_path / "t2.poly").write_text(
        serialize_polytope(__import__("ewaldkit.bundles", fromlist=["nill_triangle"]).nill_triangle(2), "t2")
    )
    stats = ingest_database(str(tmp_path))
    assert stats.histograms[2] == {7: 4, 9: 1}
    assert stats.class_counts[2] == (5, 5, 5)
    assert any(reason == "not monotone" for _, reason in stats.excluded)


def test_cli_count(capsys):
    code, out, _ = run_cli(["count", "simplex", "9"], capsys=capsys)
    assert code == 0 and out.strip() == "8953"
    code, out, _ = run_cli(["count", "emin", "7"], capsys=capsys)
    assert code == 0 and out.strip() == "243"
    code, out, _ = run_cli(["count", "ssb", "8", "4"], capsys=capsys)
    assert out.strip() == "1639"
    code, out, _ = run_cli(["count", "tables"], capsys=capsys)
    assert "8953" in out and "10460353203" in out


def test_cli_count_tables_json_matches_the_text_tables(capsys):
    code, out, _ = run_cli(["count", "tables", "--json"], capsys=capsys)
    doc = json.loads(out)
    assert code == 0 and out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    simplex = [doc["simplex"].pop(str(n)) for n in range(1, 10)]
    ssb_rows = [doc["ssb"].pop(str(n)) for n in range(2, 10)]
    emin = [doc["emin_upper_bound"].pop(str(n)) for n in range(3, 33)]
    assert doc == {"simplex": {}, "ssb": {}, "emin_upper_bound": {}}
    assert simplex[-1] == 8953 and ssb_rows[6][4] == 1639 and emin[4] == 243
    assert [len(row) for row in ssb_rows] == list(range(2, 10))
    # the text tables print the same numbers in the same order
    code, out, _ = run_cli(["count", "tables"], capsys=capsys)
    lines = out.splitlines()
    assert code == 0 and len(lines) == 42
    assert [int(x) for x in lines[1].split()] == simplex
    for n, line, row in zip(range(2, 10), lines[3:11], ssb_rows):
        head, numbers = line.split(":")
        assert head.strip() == "n=%d" % n and [int(x) for x in numbers.split()] == row
    assert [tuple(map(int, line.split())) for line in lines[12:]] == list(zip(range(3, 33), emin))


def test_cli_check_decides_strong_ewald_on_a_dilated_cube(tmp_path, capsys):
    # [−2, 2]^5 has no facet at height 1, so strong Ewald fails at facet 0
    # with no basis search, where an exhaustive one does not finish
    f = tmp_path / "cube5x2.poly"
    f.write_text(serialize_polytope(polytope.HPolytope(5, cube(5).normals, (2,) * 10), "cube5x2"))
    code, out, _ = run_cli(["check", str(f)], capsys=capsys)
    assert code == 0 and "strong=False" in out
    code, out, _ = run_cli(["check", str(f), "--json"], capsys=capsys)
    doc = json.loads(out)["result"]
    assert code == 0 and doc["strong_ewald"] is False and doc["strong_ewald_failing_facet"] == 0


def test_cli_gen_check_pipe(capsys):
    code, p6text, _ = run_cli(["gen", "paffenholz"], capsys=capsys)
    assert code == 0
    code, out, _ = run_cli(["check", "-", "--skip-neat"], stdin_text=p6text, capsys=capsys)
    assert code == 0
    assert "strong=True" in out and "star=False" in out
    code, out, _ = run_cli(
        ["check", "-", "--skip-neat", "--json"], stdin_text=p6text, capsys=capsys
    )
    doc = json.loads(out)
    assert doc["result"]["strong_ewald"] is True
    assert doc["result"]["star_ewald"] is False
    assert doc["result"]["ewald_count"] == 151


def test_cli_ewald_neat_probe_displace(capsys):
    code, out, _ = run_cli(["ewald", "-"], stdin_text=C2_TEXT, capsys=capsys)
    assert code == 0 and out.startswith("9 Ewald points")
    code, out, _ = run_cli(["neat", "-", "--radius", "1"], stdin_text=C2_TEXT, capsys=capsys)
    assert code == 0 and "neat_up_to_radius" in out
    code, out, _ = run_cli(
        ["probe", "-", "--point", "1/2,0", "--bound", "2"], stdin_text=C2_TEXT, capsys=capsys
    )
    assert code == 0 and "displaceable" in out
    code, out, _ = run_cli(["displace", "-", "--facets", "0"], stdin_text=C2_TEXT, capsys=capsys)
    assert code == 0 and out.startswith("dim 1")
    # the hexagon's rows x <= 1 and y <= 1 meet at (1, 1), outside it
    hexagon = serialize_polytope(catalog()["hexagon"])
    assert hexagon.splitlines()[2:5:2] == ["1 0 1", "0 1 1"]
    code, out, err = run_cli(["displace", "-", "--facets", "0,2"], stdin_text=hexagon, capsys=capsys)
    assert code == 2 and out == "" and err == "error: invalid face\n"
    # probing the centre fails with exit code 1
    code, out, _ = run_cli(
        ["probe", "-", "--point", "0,0", "--bound", "2"], stdin_text=C2_TEXT, capsys=capsys
    )
    assert code == 1 and "not found" in out


def test_cli_neat_exact(capsys):
    code, out, _ = run_cli(["neat", "-", "--exact"], stdin_text=C2_TEXT, capsys=capsys)
    assert code == 0 and out == "status: neat\n"
    moved = serialize_polytope(cube(2).translate((2, 0)), "moved")
    code, out, _ = run_cli(["neat", "-", "--exact"], stdin_text=moved, capsys=capsys)
    assert code == 1 and out == "status: counterexample\nwitness b: (-1, 0, -1, 0)\n"
    code, out, err = run_cli(["neat", "-", "--exact", "--radius", "1"], stdin_text=C2_TEXT, capsys=capsys)
    assert code == 2 and out == "" and "not allowed with" in err


# [−2, 18]^6: x = 0 misses some classes, whose box holds 39^6 points
WIDE_TEXT = serialize_polytope(polytope.HPolytope(6, cube(6).normals, (18, 2) * 6), "wide")


def test_cli_neat_exact_refuses_a_large_class_box(monkeypatch, capsys):
    from ewaldkit import fileio

    code, out, err = run_cli(["neat", "-", "--exact"], stdin_text=WIDE_TEXT, capsys=capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert "class box of 3518743761 displacements, above the limit of 1000000" in err
    # C_2 + 2·e_1 has a class box of 9 points: refused at a limit of 8
    monkeypatch.setattr(fileio, "MAX_NEAT_CLASS_BOX", 8)
    moved = serialize_polytope(cube(2).translate((2, 0)), "moved")
    code, out, err = run_cli(["neat", "-", "--exact"], stdin_text=moved, capsys=capsys)
    assert code == 2 and out == "" and "class box of 9 displacements" in err
    code, out, _ = run_cli(["--allow-large", "neat", "-", "--exact"], stdin_text=moved, capsys=capsys)
    assert code == 1 and out.startswith("status: counterexample")
    # x = 0 answers every class of C_2: nothing to decide, nothing refused
    code, out, _ = run_cli(["neat", "-", "--exact"], stdin_text=C2_TEXT, capsys=capsys)
    assert code == 0 and out == "status: neat\n"


def test_bounded_neatness_refuses_a_class_box_it_would_decide_whole(monkeypatch, tmp_path, capsys):
    from ewaldkit import fileio

    # up to radius 20 the whole class box of [−2, 18]^6 is decided, as it
    # holds fewer points than [−20, 20]^12: refused before any class is
    refused = (
        "neatness up to radius 20 would decide a class box of 3518743761 displacements, above the limit of 1000000"
    )
    for argv in (["neat", "-", "--radius", "20"], ["check", "-", "--radius", "20"]):
        start = time.perf_counter()
        code, out, err = run_cli(argv, stdin_text=WIDE_TEXT, capsys=capsys)
        assert time.perf_counter() - start < 5
        assert code == 2 and out == "" and refused in err, argv
    (tmp_path / "wide.poly").write_text(WIDE_TEXT)
    code, out, _ = run_cli(["batch", str(tmp_path), "--neat", "--radius", "20", "--json"], capsys=capsys)
    doc = json.loads(out)
    assert code == 0 and doc["reports"] == []
    assert doc["excluded"] == [["wide.poly", "refused: %s; pass --allow-large to override" % refused]]
    # C_2 + 2·e_1 has a class box of 9 points, decided whole up to radius
    # 2: refused at a limit of 8, unless --allow-large; C_2's box is empty
    monkeypatch.setattr(fileio, "MAX_NEAT_CLASS_BOX", 8)
    moved = serialize_polytope(cube(2).translate((2, 0)), "moved")
    refused = "neatness up to radius 2 would decide a class box of 9 displacements, above the limit of 8"
    for argv, ok in ((["neat", "-", "--radius", "2"], 1), (["check", "-", "--radius", "2"], 0)):
        code, out, err = run_cli(argv, stdin_text=moved, capsys=capsys)
        assert code == 2 and out == "" and refused in err, argv
        code, out, _ = run_cli(["--allow-large"] + argv, stdin_text=moved, capsys=capsys)
        assert code == ok and out, argv
        code, out, _ = run_cli(argv, stdin_text=C2_TEXT, capsys=capsys)
        assert code == 0 and out, argv
    # nothing is refused where neatness does not run
    code, _, _ = run_cli(["check", "-", "--radius", "2", "--skip-neat"], stdin_text=moved, capsys=capsys)
    assert code == 0
    small = tmp_path / "small"
    small.mkdir()
    (small / "moved.poly").write_text(moved)
    for flags, reports in (([], 0), (["--allow-large"], 1)):
        code, out, _ = run_cli(flags + ["batch", str(small), "--neat", "--json"], capsys=capsys)
        assert code == 0 and len(json.loads(out)["reports"]) == reports, flags
    code, out, _ = run_cli(["batch", str(small), "--json"], capsys=capsys)
    assert code == 0 and len(json.loads(out)["reports"]) == 1
    # a negative radius is an input error, not a file's refusal
    code, out, err = run_cli(["batch", str(small), "--neat", "--radius", "-1"], capsys=capsys)
    assert code == 2 and out == "" and err == "error: radius must be nonnegative\n"


def _three_cube_shifted(n):
    """3·C_n + 3·e_1: x_1 ∈ [0, 6] and the other coordinates in [−3, 3]."""
    c = cube(n)
    return polytope.HPolytope(n, c.normals, tuple(3 * x for x in c.offsets)).translate((3,) + (0,) * (n - 1))


def test_bounded_neatness_refuses_a_large_radius_stream(monkeypatch, tmp_path, capsys):
    from ewaldkit import fileio
    from ewaldkit.displace import neat_work

    # 3·C_7 + 3·e_1 has a class box of 11^7 points, more than [−1, 1]^14:
    # up to radius 1 the stream walks the window, refused before it starts
    big = _three_cube_shifted(7)
    assert neat_work(big, 1) == (3**14, False) and neat_work(big) == (11**7, True)
    refused = "neatness up to radius 1 would walk the window [-1, 1]^14 of 4782969 displacements, above the limit of 1000000"
    text = serialize_polytope(big, "big")
    for argv in (["neat", "-", "--radius", "1"], ["check", "-", "--radius", "1"]):
        start = time.perf_counter()
        code, out, err = run_cli(argv, stdin_text=text, capsys=capsys)
        assert time.perf_counter() - start < 5
        assert code == 2 and out == "" and refused in err, argv
    (tmp_path / "big.poly").write_text(text)
    code, out, _ = run_cli(["batch", str(tmp_path), "--neat", "--radius", "1", "--json"], capsys=capsys)
    assert code == 0 and json.loads(out)["excluded"] == [["big.poly", "refused: %s; pass --allow-large to override" % refused]]
    # 3·C_2 + 3·e_1: a class box of 121 points, so up to radius 1 the stream
    # walks [−1, 1]^4, refused at a limit of 80 unless --allow-large
    small = _three_cube_shifted(2)
    assert neat_work(small, 1) == (81, False) and neat_work(small, 2) == (121, True)
    monkeypatch.setattr(fileio, "MAX_NEAT_CLASS_BOX", 80)
    text = serialize_polytope(small, "small")
    refused = "neatness up to radius 1 would walk the window [-1, 1]^4 of 81 displacements, above the limit of 80"
    for argv in (["neat", "-", "--radius", "1"], ["check", "-", "--radius", "1"]):
        code, out, err = run_cli(argv, stdin_text=text, capsys=capsys)
        assert code == 2 and out == "" and refused in err, argv
        code, out, _ = run_cli(["--allow-large"] + argv, stdin_text=text, capsys=capsys)
        assert code == 0 and out, argv
    (tmp_path / "big.poly").unlink()
    (tmp_path / "small.poly").write_text(text)
    for flags, reports in (([], 0), (["--allow-large"], 1)):
        code, out, _ = run_cli(flags + ["batch", str(tmp_path), "--neat", "--radius", "1", "--json"], capsys=capsys)
        doc = json.loads(out)
        assert code == 0 and len(doc["reports"]) == reports, flags
        assert (["small.poly", "refused: %s; pass --allow-large to override" % refused] in doc["excluded"]) == (not reports)


def test_cli_probe_rejects_a_point_of_the_wrong_dimension(capsys):
    for point, length in (("1/2", 1), ("1/2,0,0", 3)):
        argv = ["probe", "-", "--point", point]
        code, out, err = run_cli(argv, stdin_text=C2_TEXT, capsys=capsys)
        assert code == 2 and out == ""
        assert "probe point of length %d in dimension 2" % length in err


def test_cli_probe_rejects_a_zero_denominator(capsys):
    for point in ("1/0,0", "0,1/0"):
        argv = ["probe", "-", "--point", point]
        code, out, err = run_cli(argv, stdin_text=C2_TEXT, capsys=capsys)
        assert code == 2 and out == ""
        assert err == "error: probe point %r has a zero denominator\n" % point


def test_cli_checks_every_option_before_it_reads_a_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.poly")
    refusals = {
        ("probe", "--point", ""): "Invalid literal for Fraction: ''",
        ("probe", "--point", "abc"): "Invalid literal for Fraction: 'abc'",
        ("probe", "--point", "1/0,0"): "probe point '1/0,0' has a zero denominator",
        ("probe", "--bound", "0"): "probe bound must be at least 1, got 0",
        ("probe", "--samples", "0"): "samples must be positive",
        ("displace", "--facets", "x"): "invalid literal for int() with base 10: 'x'",
        ("check", "--radius", "-1"): "radius must be nonnegative",
        ("neat", "--radius", "-1"): "radius must be nonnegative",
    }
    for (cmd, *flags), message in refusals.items():
        code, out, err = run_cli([cmd, missing] + flags, capsys=capsys)
        assert (code, out, err) == (2, "", "error: %s\n" % message), (cmd, flags)
    # gen t 2 is not smooth, so its neatness never runs: the radius is
    # refused all the same, and read nowhere under --skip-neat
    _, t2, _ = run_cli(["gen", "t", "2"], capsys=capsys)
    code, out, err = run_cli(["check", "-", "--radius", "-1"], stdin_text=t2, capsys=capsys)
    assert (code, out, err) == (2, "", "error: radius must be nonnegative\n")
    code, out, _ = run_cli(["check", "-", "--radius", "-1", "--skip-neat", "--json"], stdin_text=t2, capsys=capsys)
    assert code == 0 and json.loads(out)["meta"]["radius"] == -1
    code, out, err = run_cli(["probe", "-", "--point", ""], stdin_text=C2_TEXT, capsys=capsys)
    assert (code, out) == (2, "") and err == "error: Invalid literal for Fraction: ''\n"


def test_cli_probe_point_reads_no_samples(capsys):
    # --samples sizes the cross-check's grid, which a --point run never builds
    want = run_cli(["probe", "-", "--point", "1/2,0"], stdin_text=C2_TEXT, capsys=capsys)
    assert want[0] == 0 and want[1]
    for samples in ("0", "-3"):
        argv = ["probe", "-", "--point", "1/2,0", "--samples", samples]
        assert run_cli(argv, stdin_text=C2_TEXT, capsys=capsys) == want
    code, out, err = run_cli(["probe", "-", "--samples", "0"], stdin_text=C2_TEXT, capsys=capsys)
    assert (code, out, err) == (2, "", "error: samples must be positive\n")


def test_cli_probe_refuses_a_bound_below_one(capsys):
    for extra in (["--point", "1/2,0"], ["--samples", "2"]):
        for bound in ("0", "-1"):
            argv = ["probe", "-", "--bound", bound] + extra
            code, out, err = run_cli(argv, stdin_text=C2_TEXT, capsys=capsys)
            assert code == 2 and out == ""
            assert "probe bound must be at least 1, got %s" % bound in err


def test_cli_probe_exits_1_when_star_ewald_holds_and_a_sample_is_undisplaceable(monkeypatch, capsys):
    # no catalog member reaches this at bounds 1 and 2, so the cross-check
    # is replaced by a report that contradicts the equivalence
    from ewaldkit import cli
    from ewaldkit.probes import ProbeReport

    report = ProbeReport(True, 2, 1, 3, 2, ((Fraction(1, 2), 0),))
    monkeypatch.setattr(cli, "star_probe_crosscheck", lambda p, samples, bound: report)
    argv = ["probe", "-", "--samples", "2", "--bound", "1"]
    assert run_cli(argv, stdin_text=C2_TEXT, capsys=capsys) == (
        1,
        "star_ewald=True samples=2 bound=1 displaceable=2/3\nundisplaceable: ('1/2', '0')\n",
        "",
    )


def test_cli_batch_text_names_each_excluded_file(tmp_path, capsys):
    (tmp_path / "broken.poly").write_text("dim 2\nfacets 1\n1 0\n")
    (tmp_path / "t2.poly").write_text(serialize_polytope(nill_triangle(2), "t2"))
    code, out, err = run_cli(["batch", str(tmp_path)], capsys=capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == [
        "1 files analyzed, 2 excluded",
        "excluded broken.poly: parse error: line 3: expected 3 integers, got 2",
        "excluded t2.poly: not monotone",
    ]


def test_cli_probe_refuses_a_large_direction_box(monkeypatch, capsys):
    from ewaldkit import fileio

    # (2·2 + 1)^2 = 25 directions: refused at a limit of 24, listed at 25
    monkeypatch.setattr(fileio, "MAX_PROBE_BOX", 24)
    for extra in (["--point", "1/2,0"], ["--samples", "2"]):
        argv = ["probe", "-", "--bound", "2"] + extra
        code, out, err = run_cli(argv, stdin_text=C2_TEXT, capsys=capsys)
        assert code == 2 and out == ""
        assert "box of 25 directions, above the limit of 24" in err
        code, out, _ = run_cli(["--allow-large"] + argv, stdin_text=C2_TEXT, capsys=capsys)
        assert code == 0 and "displaceable" in out
    monkeypatch.setattr(fileio, "MAX_PROBE_BOX", 25)
    argv = ["probe", "-", "--bound", "2", "--point", "1/2,0"]
    code, out, _ = run_cli(argv, stdin_text=C2_TEXT, capsys=capsys)
    assert code == 0 and "displaceable" in out


def test_cli_probe_refuses_a_large_sample_grid_before_any_ewald_work(tmp_path, monkeypatch, capsys):
    from ewaldkit import fileio

    # a sample count below 1 is refused before the file is read
    for samples in ("0", "-1"):
        argv = ["probe", str(tmp_path / "missing.poly"), "--samples", samples]
        code, out, err = run_cli(argv, capsys=capsys)
        assert code == 2 and out == "" and err == "error: samples must be positive\n"
    # gen cube 3 at 48 samples: 95^3 grid points, counted without a listing
    _, cube3, _ = run_cli(["gen", "cube", "3"], capsys=capsys)
    code, out, err = run_cli(["probe", "-", "--samples", "48"], stdin_text=cube3, capsys=capsys)
    assert code == 2 and out == ""
    assert err == (
        "error: probe grid at 48 samples has 857375 points, above the limit of 200000; "
        "pass --allow-large to override\n"
    )
    # C_2 at 3 samples: 25 grid points with the origin and 9 directions at
    # bound 1, refused at a limit of 24 before E(P) is counted, and run with
    # --allow-large or at a limit of 25; --allow-large lifts every probe
    # limit before any is checked, so only the run at 25 reaches the E(P) gate
    ewald_counts = []
    real = fileio._refuse_large_ewald
    monkeypatch.setattr(fileio, "_refuse_large_ewald", lambda *args: ewald_counts.append(args) or real(*args))
    monkeypatch.setattr(fileio, "MAX_PROBE_BOX", 24)
    argv = ["probe", "-", "--samples", "3", "--bound", "1"]
    code, out, err = run_cli(argv, stdin_text=C2_TEXT, capsys=capsys)
    assert code == 2 and out == "" and not ewald_counts
    assert err == "error: probe grid at 3 samples has 25 points, above the limit of 24; pass --allow-large to override\n"
    code, out, _ = run_cli(["--allow-large"] + argv, stdin_text=C2_TEXT, capsys=capsys)
    assert code == 0 and out == "star_ewald=True samples=3 bound=1 displaceable=24/24\n"
    assert not ewald_counts
    monkeypatch.setattr(fileio, "MAX_PROBE_BOX", 25)
    code, out, _ = run_cli(argv, stdin_text=C2_TEXT, capsys=capsys)
    assert code == 0 and out == "star_ewald=True samples=3 bound=1 displaceable=24/24\n"
    assert len(ewald_counts) == 1


def test_cli_refuses_an_oversized_ewald_listing_before_any_work(tmp_path, monkeypatch, capsys):
    from ewaldkit import fileio

    # gen cube 12: 3^12 = 531,441 points, counted without a listing
    _, cube12, _ = run_cli(["gen", "cube", "12"], capsys=capsys)
    start = time.perf_counter()
    code, out, err = run_cli(["check", "-", "--skip-neat"], stdin_text=cube12, capsys=capsys)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == "" and "Traceback" not in err
    assert "E(P) has 531441 points, above the listing limit of 200000" in err
    # C_2 has 9 points: refused at a limit of 8, unless --allow-large
    monkeypatch.setattr(fileio, "MAX_EWALD_POINTS", 8)
    for argv in (["check", "-", "--skip-neat"], ["ewald", "-"], ["probe", "-", "--samples", "2"]):
        code, out, err = run_cli(argv, stdin_text=C2_TEXT, capsys=capsys)
        assert code == 2 and out == "", argv
        assert err == "error: E(P) has 9 points, above the listing limit of 8; pass --allow-large to override\n"
        code, out, _ = run_cli(["--allow-large"] + argv, stdin_text=C2_TEXT, capsys=capsys)
        assert code == 0 and out, argv
    # nothing lists E(P) for a probe at a point, nor for check without the
    # origin inside
    code, _, _ = run_cli(["probe", "-", "--point", "1/2,0"], stdin_text=C2_TEXT, capsys=capsys)
    assert code == 0
    moved = serialize_polytope(cube(2).translate((2, 0)), "moved")
    code, out, _ = run_cli(["check", "-", "--skip-neat"], stdin_text=moved, capsys=capsys)
    assert code == 0 and "|E(P)| = 0" in out
    # batch excludes the file with the reason, and analyzes the rest
    (tmp_path / "c2.poly").write_text(C2_TEXT)
    (tmp_path / "moved.poly").write_text(moved)
    code, out, _ = run_cli(["batch", str(tmp_path), "--json"], capsys=capsys)
    doc = json.loads(out)
    assert code == 0 and [r["name"] for r in doc["reports"]] == ["moved"]
    assert doc["excluded"][0] == [
        "c2.poly",
        "refused: E(P) has 9 points, above the listing limit of 8; pass --allow-large to override",
    ]


def test_cli_refuses_an_oversized_oda_before_any_sum(tmp_path, monkeypatch, capsys):
    from ewaldkit import fileio

    # two copies of [-12, 12]^3: 15,625^2 sums, counted without a listing
    box = tmp_path / "box.poly"
    box.write_text(serialize_polytope(polytope.HPolytope(3, cube(3).normals, (12,) * 6)))
    start = time.perf_counter()
    code, out, err = run_cli(["oda", str(box), str(box)], capsys=capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (
        "error: oda would add 15625 lattice points of the first polytope to 15625 of the second, "
        "above the limit of 5000000 sums; pass --allow-large to override\n"
    )
    # C_2 + C_2 forms 81 sums: refused at a limit of 80, unless --allow-large
    monkeypatch.setattr(fileio, "MAX_ODA_SUMS", 80)
    c2 = tmp_path / "c2.poly"
    c2.write_text(C2_TEXT)
    code, out, err = run_cli(["oda", str(c2), str(c2)], capsys=capsys)
    assert code == 2 and out == "" and "add 9 lattice points of the first polytope to 9 of the second" in err
    code, out, _ = run_cli(["--allow-large", "oda", str(c2), str(c2)], capsys=capsys)
    assert code == 0 and out == "decomposition identity: holds\n"
    # a count that stops past the limit is reported as a lower bound
    big = tmp_path / "big.poly"
    big.write_text("dim 2\nfacets 3\n-1 0 0\n0 -1 0\n1 1 1000\n")
    code, out, err = run_cli(["oda", str(big), str(c2)], capsys=capsys)
    assert code == 2 and "add at least 91 lattice points of the first polytope to 9 of the second" in err
    code, out, _ = run_cli(["--help"], capsys=capsys)
    assert code == 0 and "and oda's limit of 5000000 sums of lattice points" in " ".join(out.split())


def test_a_refusal_and_its_command_read_one_lattice_search(tmp_path, monkeypatch, capsys):
    # ewald builds E(P)'s search under its own name, so this counts the
    # slab systems: probe's sample grid is built once for its limit and its
    # samples, and oda builds three point searches, its two inputs' for the
    # limit and the listing, and their sum's for the count
    built = []
    real = polytope._lattice_search
    monkeypatch.setattr(polytope, "_lattice_search", lambda *args: built.append(args) or real(*args))
    _, cube3, _ = run_cli(["gen", "cube", "3"], capsys=capsys)
    path = tmp_path / "cube3.poly"
    path.write_text(cube3)
    code, out, _ = run_cli(["probe", str(path), "--samples", "3"], capsys=capsys)
    assert code == 0 and out.startswith("star_ewald=True samples=3 ")
    assert len(built) == 1
    built.clear()
    code, out, _ = run_cli(["oda", str(path), str(path)], capsys=capsys)
    assert code == 0 and out == "decomposition identity: holds\n"
    assert len(built) == 3


def test_a_size_above_sys_maxsize_is_reported_exactly(tmp_path, capsys):
    # len() cannot return a size above sys.maxsize; EwaldSet.size can, and
    # the limit and the report read it
    big = 10**19
    strip = "dim 2\nfacets 4\n1 0 3\n-1 0 3\n0 1 {0}\n0 -1 {0}\n".format(big)
    e = ewald_set(parse_polytope(strip).polytope)
    assert e.size == 7 * (2 * big + 1) > sys.maxsize
    assert repr(e) == "EwaldSet(dim=2, size=140000000000000000007)"
    with pytest.raises(OverflowError):
        len(e)
    refused = "E(P) has 140000000000000000007 points, above the listing limit of 200000; pass --allow-large to override"
    for argv in (["check", "-"], ["ewald", "-"]):
        code, out, err = run_cli(argv, stdin_text=strip, capsys=capsys)
        assert code == 2 and out == "" and err == "error: %s\n" % refused, argv
    # the origin on a facet: nothing lists E(P), so no limit applies
    edge = "dim 2\nfacets 4\n1 0 {0}\n-1 0 0\n0 1 {0}\n0 -1 {0}\n".format(big)
    code, out, _ = run_cli(["check", "-", "--skip-neat"], stdin_text=edge, capsys=capsys)
    assert code == 0 and "|E(P)| = 20000000000000000001\n" in out
    # batch refuses the strip with the reason, and analyzes the other file
    (tmp_path / "edge.poly").write_text(edge)
    (tmp_path / "strip.poly").write_text(strip)
    code, out, _ = run_cli(["batch", str(tmp_path), "--json"], capsys=capsys)
    doc = json.loads(out)
    assert code == 0 and [r["ewald_count"] for r in doc["reports"]] == [2 * big + 1]
    assert doc["excluded"] == [["edge.poly", "not monotone"], ["strip.poly", "refused: " + refused]]


def test_cli_probe_crosscheck_without_point(capsys):
    code, out, _ = run_cli(["probe", "-", "--samples", "2", "--bound", "2"], stdin_text=C2_TEXT, capsys=capsys)
    assert code == 0
    assert out == "star_ewald=True samples=2 bound=2 displaceable=8/8\n"


def test_cli_oda_and_errors(tmp_path, capsys):
    f = tmp_path / "c2.poly"
    f.write_text(C2_TEXT)
    code, out, _ = run_cli(["oda", str(f), str(f)], capsys=capsys)
    assert code == 0 and "holds" in out
    g = tmp_path / "c3.poly"
    g.write_text(serialize_polytope(cube(3)))
    for pair in ((f, g), (g, f)):
        code, out, err = run_cli(["oda", *map(str, pair)], capsys=capsys)
        assert code == 2 and out == "" and err == "error: dimension mismatch\n"
    code, _, err = run_cli(["check", str(tmp_path / "missing.poly")], capsys=capsys)
    assert code == 2
    code, _, err = run_cli(["gen", "nonsense"], capsys=capsys)
    assert code == 2


def test_cli_batch(tmp_path, capsys):
    from ewaldkit.bundles import monotone_polygon

    for name in ("triangle", "square"):
        (tmp_path / (name + ".poly")).write_text(
            serialize_polytope(monotone_polygon(name), name)
        )
    code, out, _ = run_cli(["batch", str(tmp_path)], capsys=capsys)
    assert code == 0 and "dim 2 Ewald histogram: {7: 1, 9: 1}" in out


def test_cli_batch_jobs_match_serial(tmp_path, capsys):
    from ewaldkit.bundles import monotone_polygon

    for name in ("triangle", "square", "hexagon"):
        (tmp_path / (name + ".poly")).write_text(serialize_polytope(monotone_polygon(name), name))
    (tmp_path / "strip.poly").write_text("dim 2\nfacets 2\n1 0 1\n-1 0 1\n")
    docs = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(["batch", str(tmp_path), "--json", "--jobs", jobs], capsys=capsys)
        assert code == 0
        docs.append(json.loads(out))
    assert docs[0] == docs[1]
    assert len(docs[0]["reports"]) == 3 and len(docs[0]["excluded"]) == 1


def test_cli_batch_pool_has_at_most_one_worker_per_file(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    from ewaldkit.bundles import monotone_polygon

    pools = []

    class Recorder:
        """A serial stand-in for the process pool that records its size."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    for name in ("triangle", "square", "hexagon"):
        (tmp_path / (name + ".poly")).write_text(serialize_polytope(monotone_polygon(name), name))
    code, out, _ = run_cli(["batch", str(tmp_path), "--json", "--jobs", "8"], capsys=capsys)
    assert code == 0 and len(json.loads(out)["reports"]) == 3
    assert pools == [3]
    for jobs in ("0", "-1"):
        code, out, err = run_cli(["batch", str(tmp_path), "--jobs", jobs], capsys=capsys)
        assert code == 2 and out == ""
        assert err == "error: jobs must be at least 1, got %s\n" % jobs
    for name in ("square", "hexagon"):
        (tmp_path / (name + ".poly")).unlink()
    code, out, _ = run_cli(["batch", str(tmp_path), "--jobs", "8"], capsys=capsys)
    assert code == 0 and out.startswith("1 files analyzed")
    assert pools == [3]  # one file runs serially


def test_cli_env_radius(capsys, monkeypatch):
    monkeypatch.setenv("EWALDKIT_RADIUS", "1")
    code, out, _ = run_cli(["check", "-", "--json"], stdin_text=C2_TEXT, capsys=capsys)
    doc = json.loads(out)
    assert doc["result"]["neat"]["radius"] == 1
    assert doc["meta"]["radius"] == 1


def test_cli_check_non_simple_skips_star(capsys):
    code, dp3, _ = run_cli(["gen", "delpezzo", "3"], capsys=capsys)
    assert code == 0
    code, out, err = run_cli(["check", "-", "--skip-neat"], stdin_text=dp3, capsys=capsys)
    assert code == 0 and "Traceback" not in err
    assert "weak=True strong=True star=None" in out
    assert "star condition skipped: polytope not simple" in out
    code, out, _ = run_cli(["check", "-", "--skip-neat", "--json"], stdin_text=dp3, capsys=capsys)
    r = json.loads(out)["result"]
    assert r["star_ewald"] is None and r["star_ewald_failing_face"] is None
    assert r["star_ewald_skipped"] == "skipped: polytope not simple"
    assert r["weak_ewald"] is True and r["strong_ewald"] is True


def test_cli_check_rejects_unbounded_strip(capsys):
    strip = "dim 2\nfacets 2\n1 0 1\n-1 0 1\n"  # -1 <= x <= 1, y free
    code, out, err = run_cli(["check", "-", "--skip-neat"], stdin_text=strip, capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: unbounded inequality system")


def test_cli_check_names_empty_unbounded_and_flat_input_apart(tmp_path, capsys):
    inputs = {
        # x <= -1 and -x <= -1 meet nowhere; with or without a row on y,
        # whose normals do or do not span the plane, the system is empty
        "empty": "dim 2\nfacets 3\n1 0 -1\n-1 0 -1\n0 1 1\n",
        "empty_strip": "dim 2\nfacets 2\n1 0 -1\n-1 0 -1\n",
        "unbounded": "dim 2\nfacets 3\n1 0 1\n-1 0 1\n0 1 1\n",
        "flat": "dim 2\nfacets 4\n1 0 0\n-1 0 0\n0 1 1\n0 -1 1\n",
        "blank": "",
    }
    errors = {}
    for name, text in inputs.items():
        f = tmp_path / (name + ".poly")
        f.write_text(text)
        code, out, err = run_cli(["check", str(f), "--skip-neat"], capsys=capsys)
        assert code == 2 and out == "" and "Traceback" not in err, name
        errors[name] = err.strip()
    assert errors["empty"] == errors["empty_strip"] == "error: empty system"
    assert errors["unbounded"] == "error: unbounded inequality system"
    assert errors["flat"] == "error: polytope is not full-dimensional"
    assert len({errors[k] for k in ("empty", "unbounded", "flat", "blank")}) == 4


@pytest.mark.parametrize(
    "text, line",
    zip(HEADER_ORDER, (7, 7, 2, 3, 5)),
    ids=["late-dim", "late-facets", "second-dim", "second-vertices", "facets-between-rows"],
)
def test_cli_refuses_a_repeated_or_late_header(text, line, capsys):
    code, out, err = run_cli(["check", "-", "--skip-neat"], stdin_text=text, capsys=capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: line %d: " % line), err


@pytest.mark.parametrize("var", ["EWALDKIT_RADIUS", "EWALDKIT_BOUND"])
def test_cli_rejects_non_integer_env(var, capsys, monkeypatch):
    monkeypatch.setenv(var, "abc")
    code, out, err = run_cli(["count", "simplex", "3"], capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: %s must be an integer" % var)


@pytest.mark.parametrize("argv", [["gen", "cube"], ["gen", "cube", "2", "3"], ["gen", "segment", "1"]])
def test_cli_gen_checks_argument_count(argv, capsys):
    code, out, err = run_cli(argv, capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: %s takes" % argv[1])


def test_cli_batch_excludes_undecodable_file(tmp_path, capsys):
    code, square, _ = run_cli(["gen", "square"], capsys=capsys)
    assert code == 0
    (tmp_path / "a_square.poly").write_text(square)
    (tmp_path / "b_binary.poly").write_bytes(b"\xff\xfe")
    code, out, err = run_cli(["batch", str(tmp_path), "--json"], capsys=capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert len(doc["reports"]) == 1
    assert len(doc["excluded"]) == 1
    name, reason = doc["excluded"][0]
    assert name == "b_binary.poly" and reason.startswith("read error: ")


@pytest.mark.parametrize(
    "argv", [["count", "simplex"], ["count", "ssb", "4"], ["count", "emin", "5", "6"], ["count", "tables", "3"]]
)
def test_cli_count_checks_argument_count(argv, capsys):
    code, out, err = run_cli(argv, capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: count %s takes" % argv[1])


def test_cli_count_refuses_large_n(capsys):
    for argv in (["count", "emin", "100000000000"], ["count", "simplex", "4301"], ["count", "ssb", "5000", "2"]):
        code, out, err = run_cli(argv, capsys=capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: count %s: n = %s is above the limit" % (argv[1], argv[2]))
    code, out, _ = run_cli(["count", "simplex", "4300"], capsys=capsys)
    assert code == 0 and 2000 < len(out.strip()) < 4300


def test_cli_neat_counterexample(capsys):
    # cube3 shifted by 2·e_1 misses the origin: the first tested pair fails
    text = serialize_polytope(cube(3).translate((2, 0, 0)), "cube3_shifted")
    code, out, err = run_cli(["neat", "-", "--radius", "1"], stdin_text=text, capsys=capsys)
    assert code == 1 and "Traceback" not in err
    assert out.splitlines() == [
        "status: counterexample",
        "radius: 1",
        "witness b: (-1, 0, -1, 0, -1, 0)",
    ]
    code, out, err = run_cli(["check", "-", "--radius", "1", "--json"], stdin_text=text, capsys=capsys)
    assert "Traceback" not in err
    assert json.loads(out)["result"]["neat"] == {
        "status": "counterexample",
        "radius": 1,
        "witness_b": [-1, 0, -1, 0, -1, 0],
    }


def test_cli_batch_passes_allow_large(tmp_path, capsys):
    code, text, _ = run_cli(["--allow-large", "gen", "smooth-simplex", "13", "1"], capsys=capsys)
    assert code == 0
    (tmp_path / "simplex13.poly").write_text(text)
    code, out, _ = run_cli(["batch", str(tmp_path), "--json"], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"] == []
    ((name, reason),) = doc["excluded"]
    assert name == "simplex13.poly"
    assert reason.startswith("parse error: dimension 13 exceeds the default cap")
    assert reason.endswith("pass --allow-large to override")
    for jobs in ("1", "2"):
        code, out, _ = run_cli(
            ["--allow-large", "batch", str(tmp_path), "--json", "--jobs", jobs], capsys=capsys
        )
        assert code == 0
        doc = json.loads(out)
        (report,) = doc["reports"]
        assert report["dim"] == 13 and report["ewald_count"] == 1
        assert doc["excluded"] == [["simplex13.poly", "not monotone"]]


def test_cli_gen_refuses_a_member_above_the_dimension_cap(monkeypatch, capsys):
    from ewaldkit import bundles, fileio

    # the cap of every file read, checked off the arguments before building
    built = []
    real = bundles.cube
    monkeypatch.setitem(bundles._FAMILIES, "cube", (lambda n: n, lambda n: built.append(n) or real(n)))
    monkeypatch.setattr(fileio, "MAX_DIM_DEFAULT", 2)
    for argv in (["gen", "cube", "3"], ["gen", "smallfiber", "2", "0", "1"], ["gen", "paffenholz"]):
        code, out, err = run_cli(argv, capsys=capsys)
        assert code == 2 and out == "", argv
        assert err.startswith("error: dimension %d exceeds the default cap 2" % (3 if argv[1] != "paffenholz" else 6))
        assert err.endswith("pass --allow-large to override\n")
    assert built == []
    code, out, _ = run_cli(["--allow-large", "gen", "cube", "3"], capsys=capsys)
    assert code == 0 and out.startswith("dim 3\n") and built == [3]
    code, out, _ = run_cli(["gen", "square"], capsys=capsys)
    assert code == 0 and out.startswith("dim 2\n")


def test_cli_reports_running_out_of_memory(monkeypatch, capsys):
    from ewaldkit import cli

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "ewald_set", exhausted)
    code, out, err = run_cli(["ewald", "-"], stdin_text=C2_TEXT, capsys=capsys)
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_cli_prints_parse_warnings_once_per_file(tmp_path, capsys):
    f = tmp_path / "c2.poly"
    f.write_text(C2_TEXT.replace("1 0 1\n", "2 0 2\n", 1))
    warning = "warning: row [2, 0, 2] normalized to primitive form\n"
    code, out, err = run_cli(["oda", str(f), "-"], stdin_text=C2_TEXT, capsys=capsys)
    assert code == 0 and "holds" in out
    assert err == warning
    for argv in (["check", str(f), "--skip-neat"], ["ewald", str(f)], ["neat", str(f)]):
        code, _, err = run_cli(argv, capsys=capsys)
        assert code == 0 and err == warning, argv


def test_cli_outputs_prints_one_stable_fingerprint_per_command_line():
    import hashlib

    import cli_outputs

    lines = ["check {square} --json", "check {missing}"]
    first, again = cli_outputs.fingerprints(lines), cli_outputs.fingerprints(lines)
    assert first == again  # elapsed_s and the input directory are masked
    (check, code, out, _), (missing, *rest) = (row.split("\t") for row in first)
    assert (check, code) == (lines[0], "exit=0") and out.startswith("out=")
    err = "error: [Errno 2] No such file or directory: '$DIR/missing.poly'\n"
    sha = [hashlib.sha256(text.encode()).hexdigest() for text in ("", err)]
    assert [missing] + rest == [lines[1], "exit=2", "out=" + sha[0], "err=" + sha[1]]
