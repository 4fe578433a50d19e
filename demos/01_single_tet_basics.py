"""
Building blocks on a single tetrahedron
=======================================

Everything the decomposition machinery rests on can be inspected by hand
on one reference tet: the complex, the hat-function gradients, and the
two derivative tables (face-based gradients and edge-based curls).
"""

import numpy as np

import hodge3d as h

# The reference tet spans the unit corner simplex.
mesh = h.build_complex(
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    [(0, 1, 2, 3)],
)
print(mesh)
print("counts:", mesh.counts)

# Volume and the four constant hat-function gradients. They always sum
# to zero: the hats are a partition of unity.
grads = h.barycentric_gradients(mesh)[0]
print("\nvolume:", mesh.volumes[0])
print("hat gradients:\n", grads)
print("gradient sum:", grads.sum(axis=0))

# The element tables hold the only quantities assembly ever needs:
# per-tet constant derivatives of the two basis families.
tables, dof_edge, dof_face = h.build_element_tables(mesh)
print("\nface-basis gradients (one per face, -3x the opposite hat):")
print(tables.cr_gradients[0])
print("\nedge-basis curls (one per edge, 2 grad(phi_i) x grad(phi_j)):")
print(tables.ned_curls[0])

# Both Gram matrices are exact integrals: constant dot products times
# the volume. The face system has the constants in its kernel, so its
# rows sum to zero.
A = h.assemble_gram(mesh, tables, dof_face)
print("\nface-gradient Gram matrix:\n", A.toarray())
print("row sums:", np.asarray(A.toarray().sum(axis=1)).ravel())
