"""Exception hierarchy shared by the whole pipeline, and ``quote``, which
every message uses to quote input text."""

# most characters of input text an error message quotes
QUOTE_MAX = 40


def quote(value) -> str:
    """``repr(value)``, but past QUOTE_MAX characters only the first
    QUOTE_MAX of a text, quoted, or of another value's repr, then ``…``
    and the full length."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= QUOTE_MAX:
        return repr(value)
    head = repr(text[:QUOTE_MAX]) if isinstance(value, str) else text[:QUOTE_MAX]
    return f"{head}… ({len(text)} characters)"


class TspbmcError(Exception):
    """Base class for all tool errors."""


class TermSyntaxError(TspbmcError):
    """Malformed term text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class TermError(TspbmcError):
    """Semantic misuse of a term (e.g. non-key passed to inverse_key)."""


class ProtocolError(TspbmcError):
    """Invalid protocol file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ScenarioError(TspbmcError):
    """Invalid scenario JSON or override set."""


class ModelError(TspbmcError):
    """Model construction failure (orphan fresh terms, bad goal, ...)."""


class SolverError(TspbmcError):
    """Solver subprocess failure (spawn, protocol, unparseable output)."""
