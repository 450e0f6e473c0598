"""Exception types raised by the library."""


class TriDensityError(Exception):
    """Base class for all library errors."""


class MeshError(TriDensityError):
    """Base class for triangulation validation failures."""


class DegenerateTriangle(MeshError):
    """A triangle has zero or negative area after orientation normalization."""


class NonConforming(MeshError):
    """The triangle set is not an edge-to-edge partition of the domain."""


class IndexOutOfRange(MeshError):
    """A triangle references a vertex index outside the vertex list."""


class PointOutsideDomain(TriDensityError):
    """One or more points fall outside the triangulated domain.

    Carries ``indices``, the offending positions in the input point array.
    """

    def __init__(self, indices, message=None):
        self.indices = list(indices)
        if message is None:
            shown = ", ".join(str(i) for i in self.indices[:10])
            more = "" if len(self.indices) <= 10 else f" (+{len(self.indices) - 10} more)"
            message = f"points outside the domain at rows [{shown}]{more}"
        super().__init__(message)


class UnsupportedSmoothness(TriDensityError):
    """Requested smoothness order exceeds the polynomial degree."""


class NonFiniteIntegrand(TriDensityError):
    """The integrand produced NaN or Inf at a quadrature node."""


class SingularSystem(TriDensityError):
    """A linear system was rank deficient beyond its regularization."""


class DidNotConverge(TriDensityError):
    """The optimizer hit its iteration limit or stalled.

    Carries ``fit``, the last iterate packaged as a DensityFit with its
    objective trace, so callers can inspect or reuse it. The message
    starts with "optimizer did not converge" and, when raised by the
    fitter, goes on to name the cause, the iterations used and the final
    max|gradient|.
    """

    def __init__(self, fit, message="optimizer did not converge"):
        self.fit = fit
        super().__init__(message)


class AllFoldsFailed(TriDensityError):
    """Every cross-validation fold failed for one penalty value."""


class EnvelopeViolated(TriDensityError):
    """The rejection-sampling envelope was exceeded by the target density."""


class SingularBandwidth(TriDensityError):
    """The kernel bandwidth matrix is not positive definite."""
