"""Each demo's stdout, byte for byte, against its recorded output in
tests/golden/demos."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name[:-3] for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))


def test_every_demo_has_a_golden_file():
    golden = sorted(name[:-4] for name in os.listdir(os.path.join(ROOT, "tests", "golden", "demos")))
    assert DEMOS == golden and len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo + ".py")],
        capture_output=True, env=env, check=True, timeout=300,
    ).stdout
    with open(os.path.join(ROOT, "tests", "golden", "demos", demo + ".txt"), "rb") as f:
        assert out == f.read()
