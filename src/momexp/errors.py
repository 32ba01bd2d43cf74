"""Exception hierarchy shared across the package."""


class MomexpError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(MomexpError):
    """Operands have incompatible shapes."""


class BackendMismatch(MomexpError):
    """Mixed exact and float values, or a non-exact input to an exact computation."""


class SingularMatrix(MomexpError):
    """Inversion of a (numerically) singular matrix was requested."""


class SequenceError(MomexpError):
    """A moment sequence violates its contract (m(0) != 1, nonpositive value,
    or evaluation past the end of a finite custom table)."""


class EvaluationError(MomexpError):
    """A series evaluation did not converge; carries the failed report."""

    def __init__(self, report, message=None):
        self.report = report
        super().__init__(message or f"evaluation failed: {report.status}")


class ChainConstructionFailed(MomexpError):
    """Generalized eigenvector chain assembly was inconsistent at the given
    tolerance (typically clustered but distinct eigenvalues)."""
