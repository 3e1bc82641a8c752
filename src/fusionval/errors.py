"""The exception type and the number rule shared across the package."""

import numbers


class ValidationError(ValueError):
    """Raised when an argument violates a documented contract.

    Subclasses ValueError so callers that catch the stdlib type keep
    working, while tests can assert on the package-specific type.
    """


def _number(name: str, value, integral: bool = False):
    """``value``, as an int if ``integral``, or a ValidationError naming
    the field. A float with a fractional part is rejected, not truncated."""
    if type(value) is int:  # the usual case, without the slower ABC checks
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if not integral:
            return value
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    kind = "an integer" if integral else "a real number"
    raise ValidationError(f"{name} must be {kind}, got {value!r}")
