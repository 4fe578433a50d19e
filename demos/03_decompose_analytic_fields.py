"""
Five fields, five subspaces
===========================

Each closed-form test field concentrates in one component of the
five-term decomposition when placed on the right domain:

  X0  rotation about the z-axis     -> fluxless knot (on a ball)
  X1  radial field                  -> grounded gradient (on a ball)
  X2  constant field                -> curly gradient (on a ball)
  X3  point-source field            -> Neumann field (ball with cavity)
  X4  vortex around the z-axis      -> Dirichlet field (solid torus)

The energy bookkeeping is exact: squared norms of the components add up
to the input's squared norm, and all pairwise inner products vanish.
"""

import hodge3d as h

cases = [
    ("X0", "ball", 0.15, {}),
    ("X1", "ball", 0.15, {}),
    ("X2", "ball", 0.15, {}),
    ("X012", "ball", 0.15, {}),
    ("X3", "ball_with_cavity", 0.15, {}),
    ("X4", "solid_torus", 0.15, {}),
]

engines = {}
names = h.SCHEME_COMPONENTS["FULL"]
print(f"{'field':<6} {'domain':<17} {'input':>8} "
      + " ".join(f"{n[:12]:>13}" for n in names))
for fname, domain, hh, params in cases:
    key = (domain, hh)
    if key not in engines:
        mesh = h.generate_voxel_domain(domain, hh, **params)
        engines[key] = h.HodgeDecomposer(mesh)
    engine = engines[key]
    result = engine.decompose(h.sample_analytic(engine.mesh, fname), "FULL")
    row = " ".join(f"{result.sq_norms[n]:13.4g}" for n in names)
    print(f"{fname:<6} {domain:<17} {result.input_sq_norm:8.4g} {row}")

# Structural verification of the last result: reconstruction,
# norm conservation, orthogonality, and the membership residuals. A
# membership value is the squared norm of the component re-projected onto
# a space it must be orthogonal to; when the component's own squared norm
# is already within the bound, the value is that norm and no solve runs.
report = engine.verify(result)
print("\nverification of the X4 decomposition:")
for check in report.checks:
    print(f"  {check.name:<42} {'ok' if check.passed else 'FAIL'} "
          f"(value {check.value:.2e}, bound {check.bound:.2e})")
