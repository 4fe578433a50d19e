"""The benchmark's workloads, built on hodge3d's public API only.

Each workload is one closed-loop client on one mesh. `setup()` brings it
to the ready state (mesh built, engine warm, one untimed warm-up op
checked); `op(i)` runs operation i and returns what `check()` needs.
`check()` returns None when the op's outputs are correct, else a message.

Every call into hodge3d goes through a module attribute (`h_hodge.x`,
`h_cli.main`, ...) at call time, so the traced run's wrappers see it.
"""

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np
from hodge3d import cli as h_cli
from hodge3d import fields as h_fields
from hodge3d import hodge as h_hodge
from hodge3d import io as h_io
from hodge3d import mesh as h_mesh

# Noise factor added to the analytic field of the ball workloads.
RHO = 0.05
# Stream keys under the run seed: op i draws (OP_STREAM, i).
OP_STREAM, WARMUP_STREAM, FILE_STREAM = 0, 1, 2


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed that depends only on the run seed and the keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


class BallFullVerify:
    """FULL decomposition plus `verify` of a noisy X012 on a warm engine."""

    def __init__(self, h: float, seed: int, workdir: str):
        self.h, self.seed = h, seed

    def setup(self):
        self.mesh = h_mesh.generate_voxel_domain("ball", self.h)
        self.engine = h_hodge.HodgeDecomposer(self.mesh)
        self.base = h_fields.sample_analytic(self.mesh, "X012")
        self.decompositions_per_op = 1
        return self._run(derive_seed(self.seed, WARMUP_STREAM))

    def op(self, i: int):
        return self._run(derive_seed(self.seed, OP_STREAM, i))

    def _run(self, noise_seed: int):
        X = h_fields.add_noise(self.base, RHO, noise_seed)
        result = self.engine.decompose(X, "FULL")
        return result, self.engine.verify(result)

    def check(self, outcome):
        result, verification = outcome
        stuck = [stage for stage, rep in result.solver_reports if not rep.converged]
        if stuck:
            return f"solves did not converge: {stuck}"
        if not verification.passed:
            return f"verify failed: {[c.name for c in verification.failures()]}"
        return None


class TorusDims:
    """Neumann and Dirichlet harmonic dimensions of the solid torus."""

    def __init__(self, h: float, seed: int, workdir: str):
        self.h, self.seed = h, seed

    def setup(self):
        self.mesh = h_mesh.generate_voxel_domain("solid_torus", self.h)
        betti = h_mesh.betti_numbers(self.mesh)
        self.expected = {"neumann": betti.h2, "dirichlet": betti.h2_rel}
        # estimate_harmonic_dimension decomposes expected + 5 probes
        self.decompositions_per_op = sum(d + 5 for d in self.expected.values())
        return self._run(derive_seed(self.seed, WARMUP_STREAM))

    def op(self, i: int):
        return self._run(derive_seed(self.seed, OP_STREAM, i))

    def _run(self, probe_seed: int):
        return {which: h_hodge.estimate_harmonic_dimension(self.mesh, which,
                                                           seed=probe_seed)
                for which in self.expected}

    def check(self, dims):
        if dims != self.expected:
            return f"dimensions {dims} differ from the Betti numbers {self.expected}"
        return None


class CliFileFd:
    """`hodge3d decompose` of a VTK cell-data field, FD scheme, with outputs."""

    def __init__(self, h: float, seed: int, workdir: str):
        self.h, self.seed, self.workdir = h, seed, workdir
        self.path = os.path.join(workdir, "field.vtk")

    def setup(self):
        self.mesh = h_mesh.generate_voxel_domain("ball", self.h)
        self.field = h_fields.add_noise(
            h_fields.sample_analytic(self.mesh, "X012"), RHO,
            derive_seed(self.seed, FILE_STREAM))
        h_io.write_vtk(self.path, self.mesh, {"X": self.field.vectors})
        self.decompositions_per_op = 1
        self.report = None
        return self._run("warmup")

    def op(self, i: int):
        return self._run(f"op-{i}")

    def _run(self, label: str):
        out_dir = os.path.join(self.workdir, label)
        argv = ["decompose", "--mesh", self.path, "--field", "file:" + self.path,
                "--scheme", "fd", "--out", out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            return h_cli.main(argv), out_dir

    def check(self, outcome):
        """The first report must match an in-memory FD decomposition of the
        same field; every later one must equal the first byte for byte."""
        rc, out_dir = outcome
        try:
            if rc != 0:
                return f"exit code {rc}"
            with open(os.path.join(out_dir, "report.json"), "rb") as f:
                report = f.read()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if self.report is None:
            self.report = report
            return self._fractions_error(json.loads(report))
        if report != self.report:
            return "report.json differs from the first op's"
        return None

    def _fractions_error(self, report):
        engine = h_hodge.HodgeDecomposer(self.mesh)
        expected = engine.decompose(self.field, "FD").fractions()
        got = {c["name"]: c["fraction"] for c in report["components"]}
        if got.keys() != expected.keys() or not all(
                math.isclose(got[k], expected[k], rel_tol=1e-9, abs_tol=1e-12)
                for k in got):
            return f"report fractions {got} differ from in-memory {expected}"
        return None


# name -> (workload class, h of the measured run, h of the smoke run)
WORKLOADS = {
    "ball_full_verify": (BallFullVerify, 0.12, 0.25),
    "torus_dims": (TorusDims, 0.15, 0.25),
    "cli_file_fd": (CliFileFd, 0.12, 0.25),
}
