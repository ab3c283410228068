"""Exception types shared by the tensor engine, the expression language, and the demo."""


class EngineError(Exception):
    """Base class for every error this package raises on purpose."""


class IndexArityError(EngineError):
    """Fewer index subscripts than the stored array demands."""


class SubscriptKindError(EngineError):
    """Subscripts mixed index handles with numbers, or used an unsupported kind."""


class DimMismatchError(EngineError):
    """Dimension sizes that must agree do not."""


class BoundsError(EngineError):
    """Numeric subscript outside the valid 1-based range, or a numeric
    argument outside its valid range."""


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
    """A file the demo reads is missing, truncated or malformed, or one it
    writes cannot be written; carries the path."""

    def __init__(self, message, path):
        super().__init__(f"{path}: {message}")
        self.path = path


class UnknownNameError(EngineError):
    """An expression referenced a name that is not bound in the environment."""


class ExprSyntaxError(EngineError):
    """Malformed expression text; carries the 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (at {line}:{col})")
        self.line = line
        self.col = col
