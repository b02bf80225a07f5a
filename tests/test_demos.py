"""Each demo's stdout, byte for byte, against its recorded output in
tests/golden/demos, and the command line's output fingerprints
(tests/cli_outputs.py) against tests/golden/cli_outputs.txt."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name[:-3] for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))


def test_every_demo_has_a_golden_file():
    golden = sorted(name[:-4] for name in os.listdir(os.path.join(ROOT, "tests", "golden", "demos")))
    assert DEMOS == golden and len(DEMOS) == 7


def _stdout(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, script)], capture_output=True, env=env, check=True, timeout=300
    ).stdout


def _golden(name):
    with open(os.path.join(ROOT, "tests", "golden", name), "rb") as f:
        return f.read()


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_is_unchanged(demo):
    assert _stdout(os.path.join("demos", demo + ".py")) == _golden(os.path.join("demos", demo + ".txt"))


def test_cli_outputs_are_unchanged():
    # one line per command line: its exit code and the sha256 of its stdout
    # and stderr; a change of output is an edit of the golden file
    assert _stdout(os.path.join("tests", "cli_outputs.py")) == _golden("cli_outputs.txt")
