"""Exception hierarchy shared by all skewcalc modules.

Each error carries a short machine-readable code used by the CLI to choose
exit statuses and by reports to tag failures.
"""


class SkewcalcError(Exception):
    """Base class; `code` is a stable machine-readable tag."""

    code = "INTERNAL"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class FieldMismatchError(SkewcalcError):
    code = "FIELD_MISMATCH"


class DivisionByZeroError(SkewcalcError):
    code = "DIVISION_BY_ZERO"


class ExprSyntaxError(SkewcalcError):
    """Parse failure; carries position (and line/column when known)."""

    code = "SYNTAX_ERROR"

    def __init__(self, message, pos=None, line=None, col=None):
        super().__init__(message, pos=pos, line=line, col=col)
        self.pos = pos
        self.line = line
        self.col = col


class BadParamsError(SkewcalcError):
    code = "BAD_PARAMS"


class ValidationError(SkewcalcError):
    """Presentation failed validation; `code` is refined per failure."""

    code = "VALIDATION_ERROR"

    def __init__(self, message, code=None, **details):
        super().__init__(message, **details)
        if code is not None:
            self.code = code


class AlgebraMismatchError(SkewcalcError):
    code = "ALGEBRA_MISMATCH"


class NegativeExponentError(SkewcalcError):
    code = "NEGATIVE_EXPONENT"


class NotADomainError(SkewcalcError):
    code = "NOT_A_DOMAIN"


class ResourceLimitError(SkewcalcError):
    code = "RESOURCE_LIMIT"


class MissingEvidenceError(SkewcalcError):
    code = "MISSING_EVIDENCE"


class UnsupportedGWAError(SkewcalcError):
    code = "UNSUPPORTED_GWA"


class InsufficientDataError(SkewcalcError):
    code = "INSUFFICIENT_DATA"
