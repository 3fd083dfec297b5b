"""Exception hierarchy shared across the package.

Two broad families matter to callers: configuration problems (bad inputs,
violated model preconditions -- things a user can fix by editing the config)
and numerical failures (a solver or iteration that did not deliver its
contract).  The CLI maps them to exit codes 2 and 3 respectively.
"""


class FracmomError(Exception):
    """Base class for all package errors."""


class ConfigError(FracmomError):
    """Invalid configuration or violated model precondition."""


class ConstructionError(ConfigError):
    """Operator assembly failed (non-finite field value, bad shapes)."""


class CoveringError(ConfigError):
    """Single-site bumps leave part of the grid unreachable by disorder."""


class DomainError(ConfigError):
    """A geometric precondition failed (ball outside box, layer too thin)."""


class NumericalError(FracmomError):
    """A numerical routine failed to meet its accuracy contract."""


class SolveError(NumericalError):
    """Shifted linear solve missed its residual tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class NonConvergenceError(NumericalError):
    """Iteration exhausted its budget without converging."""


class IncompleteWindowError(NumericalError):
    """Window eigensolve found fewer pairs than the counting method."""
