"""Each demo the README points at runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

import hodge3d

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    # the demos import the same hodge3d as the tests, from any cwd
    src = os.path.dirname(os.path.dirname(hodge3d.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.abspath(path)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
