"""Exception types shared across the package."""


class Hodge3dError(Exception):
    """Base class for all hodge3d errors."""


class MeshError(Hodge3dError, ValueError):
    """Invalid mesh input (bad indices, degenerate cells, duplicates)."""


class NonManifoldError(MeshError):
    """The complex is not a manifold (bad face/edge incidence, pinches)."""


class TopologyError(MeshError):
    """A generated domain does not resolve its declared topology."""


class FieldError(Hodge3dError, ValueError):
    """Invalid vector field input (mesh mismatch, singularities, NaNs)."""


class ParseError(Hodge3dError, ValueError):
    """A mesh or field file could not be parsed."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        if path:
            message = f"{path}:{line}: {message}" if line else f"{path}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


class ConvergenceError(Hodge3dError, RuntimeError):
    """An iterative solve did not reach the requested tolerance."""

    def __init__(self, stage: str, report=None):
        super().__init__(f"solver did not converge at stage '{stage}'"
                         + (f" (relative residual {report.relative_residual:.3e}"
                            f" after {report.iterations} iterations)" if report else ""))
        self.stage = stage
        self.report = report
