"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed textual graph input; carries the offending position."""

    def __init__(self, message, line=None, offset=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if offset is not None:
            loc.append(f"byte {offset}")
        super().__init__(f"{message} ({', '.join(loc)})" if loc else message)
        self.line = line
        self.offset = offset


class ResourceLimitError(RuntimeError):
    """An exact solver or scan exceeded its work budget.

    This is an operational error, never a wrong answer: callers treat
    the quantity as unavailable.
    """


class FieldDisagreementError(RuntimeError):
    """Regularity differs between coefficient fields; both values are kept."""

    def __init__(self, values_by_prime):
        self.values_by_prime = dict(values_by_prime)
        pretty = ", ".join(f"GF({p}): {v}" for p, v in sorted(self.values_by_prime.items()))
        super().__init__(f"characteristic-sensitive instance: {pretty}")


class WitnessError(RuntimeError):
    """A solver's witness failed an independent re-check."""
