"""Exception hierarchy shared across the package."""


class RefugiaError(Exception):
    """Base class for all errors raised by refugia."""


class DegenerateGrid(RefugiaError):
    """Grid has too few cells or nonpositive extent."""


class RefugeTouchesBoundary(RefugiaError):
    """Refuge closure is not strictly inside the habitat (margin <= 2h)."""


class RegionMismatch(RefugiaError):
    """A field's region or length disagrees with the geometry."""


class NegativePrey(RefugiaError):
    """Prey density fell below the negativity tolerance (-1e-12)."""


class LinearSolveFailure(RefugiaError):
    """An inner linear solve did not reach its tolerance."""


class StepRejected(RefugiaError):
    """A time step produced values below -1e-8; the step size is too large."""


class TransientNotConverged(RefugiaError):
    """A simulate run's rates stayed above steady_tol through its horizon."""


class NoConvergence(RefugiaError):
    """Newton iteration exhausted its budget without meeting the tolerance."""


class SingularJacobian(NoConvergence):
    """Newton could not factor J or its update blew up; expected near mu*."""


class EigenNoConvergence(RefugiaError):
    """No eigenpair reached the residual contract within the iteration cap."""


class NoCrossing(RefugiaError):
    """The leading eigenvalue does not change sign over the scanned range."""


class ContinuationStalled(RefugiaError):
    """Corrector kept failing after the step size was reduced to its floor;
    branch holds the points accepted before that."""

    def __init__(self, message: str, branch):
        super().__init__(message)
        self.branch = branch


class VerificationFailed(RefugiaError):
    """A verify run's report failed one of its gates."""


class EmptyBranchList(RefugiaError):
    """Plot emission refused: nothing to draw."""


class OutputDirUnusable(RefugiaError):
    """The output directory cannot be created or used."""


class OutputDirLocked(OutputDirUnusable):
    """Another run owns the output directory (lock file present)."""


class ConfigError(RefugiaError):
    """Base class for configuration problems; carries (line, message) pairs."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(f"line {ln}: {msg}" for ln, msg in self.issues))


class ParseError(ConfigError):
    """Config text could not be parsed."""


class ValidationError(ConfigError):
    """Config parsed but violates the schema."""
