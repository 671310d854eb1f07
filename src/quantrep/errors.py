"""Exception hierarchy shared across the package.

One type per CLI exit code: ``ValidationError`` (bad input or usage, with
``ParseError`` for a malformed dataset file) maps to exit code 2,
``FitError`` (a numerical fit failure) to exit code 3.
"""


class QuantrepError(Exception):
    """Base class for all package errors."""


class ValidationError(QuantrepError, ValueError):
    """Bad input data or arguments violating an operation's contract."""


class ParseError(ValidationError):
    """Malformed dataset file; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FitError(QuantrepError, RuntimeError):
    """Numerical failure during model fitting."""

    def __init__(self, message, class_id=None, tau=None):
        context = []
        if class_id is not None:
            context.append(f"class={class_id}")
        if tau is not None:
            context.append(f"tau={tau:.6g}")
        if context:
            message = f"{message} ({', '.join(context)})"
        super().__init__(message)
        self.class_id = class_id
        self.tau = tau
