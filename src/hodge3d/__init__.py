"""Orthogonal decompositions of piecewise constant vector fields on
tetrahedral meshes.

The package splits a per-tet vector field into mutually orthogonal parts
(curl-type, gradient-type, and topology-carrying harmonic components)
using edge-based and face-based finite element subspaces, and verifies
the structural guarantees: exact orthogonality, norm conservation, and
harmonic-space dimensions matching the domain's Betti numbers.
"""

from ._version import __version__
from .assembly import SparseSymMatrix, assemble_gram, assemble_rhs, reconstruct
from .errors import (ConvergenceError, FieldError, Hodge3dError, MeshError,
                     NonManifoldError, ParseError, TopologyError)
from .fem import DofMap, ElementTables, barycentric_gradients, build_element_tables
from .fields import (ANALYTIC_FIELDS, Pcvf, add_noise, combine, l2_inner,
                     random_field, sample_analytic, sq_norm)
from .hodge import (SCHEME_COMPONENTS, SCHEMES, ZERO_THRESHOLD,
                    DecompositionResult, HodgeDecomposer, VerificationReport,
                    estimate_harmonic_dimension)
from .io import make_report, read_field, read_mesh, write_outputs, write_vtk
from .mesh import (DOMAIN_TOPOLOGY, BettiNumbers, MeshCounts, TetMesh,
                   betti_numbers, build_complex, generate_voxel_domain)
from .solver import SolveReport, solve_spsd

__all__ = [
    "__version__",
    # mesh
    "TetMesh", "MeshCounts", "BettiNumbers", "build_complex", "betti_numbers",
    "generate_voxel_domain", "DOMAIN_TOPOLOGY",
    # fields
    "Pcvf", "l2_inner", "sq_norm", "sample_analytic", "add_noise", "combine",
    "random_field", "ANALYTIC_FIELDS",
    # fem
    "DofMap", "ElementTables", "build_element_tables", "barycentric_gradients",
    # assembly
    "SparseSymMatrix", "assemble_gram", "assemble_rhs", "reconstruct",
    # solver
    "SolveReport", "solve_spsd",
    # hodge
    "SCHEMES", "SCHEME_COMPONENTS", "ZERO_THRESHOLD", "DecompositionResult",
    "HodgeDecomposer", "VerificationReport", "estimate_harmonic_dimension",
    # io
    "read_mesh", "read_field", "write_vtk", "write_outputs", "make_report",
    # errors
    "Hodge3dError", "MeshError", "NonManifoldError", "TopologyError",
    "FieldError", "ParseError", "ConvergenceError",
]
