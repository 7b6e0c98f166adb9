"""Exception types shared across the package."""


class CapacityError(ValueError):
    """Input exceeds a documented size cap (vertex cap, dense solver limit, ...)."""


class ParseError(ValueError):
    """Malformed graph file. Carries the offending 1-based line number (0 = whole file)."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no


class ConvergenceError(RuntimeError):
    """An eigensolver failed or missed its residual bound; carries the best residual reached."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


class UncertifiedCliqueError(RuntimeError):
    """A time-limited clique search returned a lower bound, not a certified omega."""
