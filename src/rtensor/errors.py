"""Exception types shared by the tensor engine, the expression language, and the demo."""


class EngineError(Exception):
    """Base class for every error this package raises on purpose.  A message
    that names index handles is a ``str.format`` template followed by its
    values, so :meth:`render` can show the handles by a script's names."""

    def __str__(self) -> str:
        return self.render(str)

    def render(self, show) -> str:
        """The message, each value of its template passed through ``show``."""
        template, *values = self.args or ("",)
        return template.format(*map(show, values)) if values else str(template)


class IndexArityError(EngineError):
    """Too few or too many index subscripts, dimensions, operands or arguments."""


class SubscriptKindError(EngineError):
    """Subscripts mixed index handles with numbers, or used an unsupported kind."""


class DimMismatchError(EngineError):
    """Dimension sizes that must agree do not."""


class BoundsError(EngineError, ValueError):
    """Numeric subscript outside the valid 1-based range, or a numeric
    argument outside its valid range; a ``ValueError`` too, like Python's own
    out-of-range arguments."""


class UnknownIndexError(EngineError):
    """An index identity required by the operation is missing."""


class AssignKindError(EngineError):
    """Indexed assignment with an incompatible right-hand side."""


class OperandKindError(EngineError):
    """A plain (index-free) operand had more than two dimensions."""


class ElementKindError(EngineError):
    """Element kind not supported by the requested operation."""


class SingularPageError(EngineError):
    """A square page of a pagewise linear solve was singular."""

    def __init__(self, message, page=None):
        super().__init__(message)
        self.page = page


class SpecError(EngineError):
    """A scene or configuration parameter is out of its valid range."""


class DataFileError(EngineError):
    """A file the package reads is missing, unreadable, truncated or
    malformed, or one it writes cannot be written; carries the path."""

    def __init__(self, message, path):
        super().__init__(f"{path}: {message}")
        self.path = path


class UnknownNameError(EngineError):
    """An expression referenced a name that is not bound in the environment,
    or an operator or function name the engine does not know."""


class ExprSyntaxError(EngineError):
    """Malformed expression text; carries the 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (at {line}:{col})")
        self.line = line
        self.col = col


class NestingError(EngineError):
    """An expression nests deeper than the interpreter's recursion limit
    lets the language evaluate or print it."""
