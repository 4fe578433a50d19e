"""
Files in, files out
===================

Meshes load from VTK legacy ASCII or Gmsh MSH 4.1, per-tet vector fields
from VTK cell data. Decomposition results are written back as one VTK
file per component (ready for streamline rendering in ParaView) plus a
machine-readable JSON report. Output bytes are deterministic, so reports
can be diffed across runs.
"""

import json
import os
import tempfile

import hodge3d as h

workdir = tempfile.mkdtemp(prefix="hodge3d_demo_")

# Write a mesh + field, read both back.
mesh = h.generate_voxel_domain("solid_torus", 0.2)
X = h.sample_analytic(mesh, "X4")
field_path = os.path.join(workdir, "vortex.vtk")
h.write_vtk(field_path, mesh, {"velocity": X.vectors})

# without a mesh, read_field reads the file's own mesh from the same parse
X2 = h.read_field(field_path)
mesh2 = X2.mesh
print("round trip exact:",
      bool((mesh2.tets == mesh.tets).all()
           and (X2.vectors == X.vectors).all()))

# Decompose and export everything.
engine = h.HodgeDecomposer(mesh2)
result = engine.decompose(X2, "FD")
out_dir = os.path.join(workdir, "out")
for path in h.write_outputs(result, out_dir):
    print("wrote", path)

report = json.load(open(os.path.join(out_dir, "report.json")))
print("\nreport summary:")
print("  scheme:", report["scheme"])
for comp in report["components"]:
    flag = "  (zero)" if comp["zero"] else ""
    print(f"  {comp['name']:<20} fraction {comp['fraction']:.4f}{flag}")
print("  solver stages:", [s["stage"] for s in report["solver"]])
print("  mesh hash:", report["input_hashes"]["mesh"][:16], "...")
