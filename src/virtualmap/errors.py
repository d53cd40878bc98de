"""Exception types mapped to CLI exit codes, and the file parsers' integer check."""


class ValidationError(ValueError):
    """Malformed input: bad files, wrong shapes, infeasible requests. Exit code 2."""


class NumericalError(RuntimeError):
    """Numerical failure: conditioning, non-convergence, residue blow-up. Exit code 3."""


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; text, fractions and booleans raise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value
