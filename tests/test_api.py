import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import hodge3d as h

# the package and every submodule that declares an export list
MODULES = ["hodge3d"] + [
    f"hodge3d.{m.name}" for m in pkgutil.iter_modules(h.__path__)
    if hasattr(importlib.import_module(f"hodge3d.{m.name}"), "__all__")]


def test_export_lists_found():
    assert {"hodge3d", "hodge3d.hodge", "hodge3d.mesh", "hodge3d.cli"} <= \
        set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import():
    namespace = {}
    exec("from hodge3d import *", namespace)
    assert set(h.__all__) <= set(namespace)


def test_runs_load_no_dense_linear_algebra(tmp_path):
    # scipy.sparse.csgraph imports scipy.linalg and its own BLAS; no run
    # needs either. scipy.spatial is needed only to move a field file to
    # another mesh. Checked in a fresh process, since this one may hold them.
    code = f"""
import sys
import hodge3d as h
from hodge3d import cli, mesh

calls = []
forest = mesh._spanning_forest
mesh._spanning_forest = lambda *args: calls.append(1) or forest(*args)

torus = h.generate_voxel_domain("solid_torus", 0.25)
engine = h.HodgeDecomposer(torus)
result = engine.decompose(h.sample_analytic(torus, "X4"), "FULL")
assert engine.verify(result).passed
assert h.estimate_harmonic_dimension(torus, "dirichlet") == 1
del calls[:]
assert cli.main(["decompose", "--domain", "solid_torus", "--h", "0.25",
                 "--field", "X4", "--scheme", "fd",
                 "--out", {str(tmp_path)!r}]) == 0
assert len(calls) <= 2, calls
# a field file that is also --mesh needs no transfer, so no scipy.spatial
shared = {os.path.join(str(tmp_path), "torus.vtk")!r}
h.write_vtk(shared, torus, {{"v": h.sample_analytic(torus, "X4").vectors}})
assert cli.main(["decompose", "--mesh", shared, "--field", "file:" + shared,
                 "--scheme", "fd"]) == 0
loaded = [m for m in ("scipy.sparse.csgraph", "scipy.linalg", "scipy.spatial")
          if m in sys.modules]
assert loaded == [], loaded
"""
    src = os.path.dirname(os.path.dirname(h.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
