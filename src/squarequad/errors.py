"""Error types shared across the library."""

__all__ = ["ConvergenceError", "EvaluationError", "AssemblyError", "CapacityError"]


class ConvergenceError(RuntimeError):
    """An iterative process failed to converge.

    Carries the index that got stuck (eigensolver) or the solver stats
    accumulated so far (Krylov methods), when available.
    """

    def __init__(self, message, *, index=None, stats=None):
        super().__init__(message)
        self.index = index
        self.stats = stats


class EvaluationError(RuntimeError):
    """A user-supplied function returned a non-finite value at a node."""

    def __init__(self, message, *, node=None):
        super().__init__(message)
        self.node = node


class AssemblyError(RuntimeError):
    """A vanishing space weight, a non-finite kernel value in assembly or
    interpolation, or a kernel that differs from its declared degenerate form."""

    def __init__(self, message, *, node=None):
        super().__init__(message)
        self.node = node


class CapacityError(RuntimeError):
    """An operation exceeded its configured size cap."""
