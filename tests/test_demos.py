"""The demos run end to end against the package as it stands, so an API
change that breaks one of their call sites fails here."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, package_env):
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=package_env)
    assert out.returncode == 0, out.stderr
