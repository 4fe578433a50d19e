"""
Counting harmonic fields numerically
====================================

The dimensions of the harmonic subspaces are purely topological: the
Neumann space counts cavities, the Dirichlet space counts handles. The
central space (simultaneously a curl and a gradient) is not topological
at all; it grows with the boundary resolution as n_boundary_faces - 1
on a ball-like domain.

The estimator decomposes a batch of random fields, collects the
requested component, and takes the numerical rank of their Gram matrix.
It runs on a decomposition engine, so the subspaces of one mesh share
its element tables and Gram matrices.
"""

import hodge3d as h

for domain, hh, params in [
    ("ball", 0.3, {}),
    ("ball_with_cavity", 0.25, {"cavity_radius": 0.5}),
    ("solid_torus", 0.2, {}),
]:
    mesh = h.generate_voxel_domain(domain, hh, **params)
    betti = h.betti_numbers(mesh)
    engine = h.HodgeDecomposer(mesh)
    dn = engine.harmonic_dimension("neumann")
    dd = engine.harmonic_dimension("dirichlet")
    print(f"{domain:>18}: betti {tuple(betti)}  ->  "
          f"neumann {dn} (expect {betti.h2}), "
          f"dirichlet {dd} (expect {betti.h2_rel})")

# The central space on a small ball: n_bf - 1 regardless of topology.
mesh = h.generate_voxel_domain("ball", 0.5)
dim = h.HodgeDecomposer(mesh).harmonic_dimension("central")
print(f"\ncentral dimension on a {mesh.n_t}-tet ball: {dim} "
      f"(boundary faces - 1 = {mesh.counts.n_bf - 1})")
