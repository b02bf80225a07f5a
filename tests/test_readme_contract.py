"""The README is the user manual: it names every subcommand and option of
the `ewaldkit` parser, every limit, environment variable and exit code,
and each `$ ewaldkit ...` example in its `sh` blocks prints what the
README shows under it."""

import io
import os
import re
import shlex
import sys

import pytest

from ewaldkit import cli, fileio

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


@pytest.fixture(scope="module")
def readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _help(argv, capsys):
    assert cli.main(argv + ["--help"]) == 0
    return capsys.readouterr().out


def _usage(text):
    """The usage block of an argparse help text, up to its first blank line."""
    return text.split("\n\n", 1)[0]


def _subcommands(capsys):
    (choices,) = re.findall(r"\{([a-z,]+)\}", _usage(_help([], capsys)))
    return choices.split(",")


def test_the_readme_names_every_subcommand_and_option(readme, capsys):
    commands = _subcommands(capsys)
    assert len(commands) == 9
    options = set(re.findall(r"--[a-z][a-z-]*", _usage(_help([], capsys))))
    for cmd in commands:
        assert re.search(r"\bewaldkit %s\b" % cmd, readme), cmd
        options.update(re.findall(r"--[a-z][a-z-]*", _usage(_help([cmd], capsys))))
    assert {"--allow-large", "--radius", "--exact", "--facets", "--point", "--jobs"} <= options
    assert [opt for opt in sorted(options) if opt not in readme] == []


def _shown(value, text):
    """value appears in text, written plain or comma-grouped, as a whole number."""
    forms = (str(value), "{:,}".format(value))
    return any(re.search(r"(?<![\d,])%s(?!,?\d)" % re.escape(form), text) for form in forms)


def test_the_readme_states_every_limit_variable_and_exit_code(readme):
    limits = [fileio.MAX_DIM_DEFAULT, fileio.MAX_EWALD_POINTS, fileio.MAX_NEAT_CLASS_BOX, fileio.MAX_ODA_SUMS]
    limits += [fileio.MAX_PROBE_BOX, cli.MAX_COUNT_N]
    assert [value for value in limits if not _shown(value, readme)] == []
    assert _shown(1_000_000, "up to 1,000,000 points") and not _shown(1_000_000, "10,000,000")
    for var in ("EWALDKIT_RADIUS", "EWALDKIT_BOUND", "EWALDKIT_DB_DIM3"):
        assert var in readme, var
    for code in (0, 1, 2):
        assert "`%d`" % code in readme, code


def _examples(text):
    """(command line, lines shown under it) for every `$ ewaldkit` line of
    an sh block, in README order."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        examples.append(("", []))  # a block's first lines follow no command
        for line in block.splitlines():
            if line.startswith("$ "):
                examples.append((line[2:], []))
            else:
                examples[-1][1].append(line)
    return [e for e in examples if e[0].startswith("ewaldkit ")]


def _run_pipeline(line, capsys):
    """stdout + stderr of a pipeline of ewaldkit commands, each stage's
    stdout fed to the next one's stdin, and the last stage's exit code."""
    stdin, printed, code = "", "", None
    for stage in line.split(" | "):
        argv = shlex.split(stage)
        assert argv[0] == "ewaldkit", stage
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = cli.main(argv[1:])
        finally:
            sys.stdin = old
        stdin, err = capsys.readouterr()
        printed = stdin + err
    return code, printed


def _matches(shown, printed):
    """Each shown line matches a printed line, in order, '...' matching any text."""
    lines = iter(printed.splitlines())
    for want in shown:
        pattern = re.compile(".*".join(map(re.escape, want.split("..."))) + r"\Z")
        if not any(pattern.match(got) for got in lines):
            return False
    return True


def test_matching_reads_shown_lines_in_order():
    assert _matches(["a ...", "c"], "a b\nx\nc")
    assert not _matches(["c", "a ..."], "a b\nc")
    assert not _matches(["a"], "a b")
    assert _examples("```sh\n$ ewaldkit count emin 7\n243\n$ pip x\n```\n") == [("ewaldkit count emin 7", ["243"])]


def test_every_readme_example_prints_what_it_shows(readme, capsys):
    examples = _examples(readme)
    assert examples
    for line, shown in examples:
        code, printed = _run_pipeline(line, capsys)
        assert code in (0, 1, 2), line
        assert _matches([s for s in shown if s.strip()], printed), (line, shown, printed)
