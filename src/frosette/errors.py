"""Exception types shared across the library, and how their messages show a value."""


class FrosetteError(Exception):
    """Base class for all library errors."""


class ConfigError(FrosetteError):
    """Invalid constellation configuration."""


class ParseError(FrosetteError):
    """Malformed textual input; carries the offending position when known."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class RangeError(FrosetteError):
    """A digit or field value is outside its legal range."""


class DomainError(FrosetteError):
    """Numerically or geometrically invalid request."""


class InfeasibleError(DomainError):
    """The requested configuration cannot satisfy the constraint."""


class LayoutError(FrosetteError):
    """Bit-field layout does not fit the 128-bit address."""


def _shown(value) -> str:
    """str(value) for a message; an int past Python's 4,300-digit limit shows its bit length."""
    try:
        return str(value)
    except ValueError:  # such an int, alone or in a tuple of digits
        return (f"<int of {value.bit_length()} bits>" if isinstance(value, int)
                else "(" + ", ".join(map(_shown, value)) + ")")
