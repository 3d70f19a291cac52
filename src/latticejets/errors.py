"""Exception hierarchy shared by all modules."""


class ToolkitError(Exception):
    """Base class for all latticejets errors."""


class InputError(ToolkitError):
    """Malformed or inconsistent user input (CLI exit code 2)."""


class BudgetExceededError(ToolkitError):
    """A configurable search budget was exhausted (CLI exit code 3)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class InvariantError(ToolkitError):
    """An internal consistency check failed; indicates a bug, not bad input
    (CLI exit code 4, kept apart from the input-error code 2)."""
