"""Exception types shared across the package.

Every error the solver can surface maps to one class here, and each class
carries a stable ``code`` used by the CLI's JSON error envelope.
"""

from __future__ import annotations


class Edge3cError(Exception):
    """Base class for all package errors."""

    code = "error"

    def detail(self) -> str:
        return str(self)


class InvalidFieldError(Edge3cError):
    """A single field violates its contract (wrong sign, non-finite, unknown name)."""

    code = "invalid_field"

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class InvalidConfigError(Edge3cError):
    """Validation failed; carries the complete list of violations, not just the first."""

    code = "invalid_config"

    def __init__(self, violations: list[InvalidFieldError]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


class ConfigParseError(Edge3cError):
    """The config file could not be read or decoded at all (distinct exit code in the CLI)."""

    code = "config_parse"


class DegenerateChannelError(Edge3cError):
    """A required link has zero spectral efficiency, so a transfer can never complete."""

    code = "degenerate_channel"


class InfeasibleError(Edge3cError):
    """No assignment of all tasks satisfies the constraints.

    ``constraint`` names the unsatisfiable one: "power" or "latency".
    """

    code = "infeasible"

    def __init__(self, constraint: str, reason: str = ""):
        self.constraint = constraint
        msg = f"infeasible ({constraint})"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class TooLargeError(Edge3cError):
    """A size input exceeds its guard limit: an exhaustive oracle's task
    count, or a command's trial or step count."""

    code = "too_large"

    def __init__(self, field: str, value: int, limit: int):
        self.field = field
        self.value = value
        self.limit = limit
        super().__init__(f"{field} {value} exceeds the limit {limit}")
