"""Exception types shared by all movcat modules."""

from __future__ import annotations

from dataclasses import dataclass


class MovcatError(Exception):
    """Base class for all movcat errors."""


@dataclass(frozen=True)
class Violation:
    """One axiom/contract violation, e.g. code='AssocBroken', detail='(h, g, f)=(5, 3, 2)'."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


class ValidationFailed(MovcatError):
    """Raised by validators; carries the full list of violations found."""

    def __init__(self, subject: str, violations: list[Violation]):
        self.subject = subject
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:8])
        more = "" if len(self.violations) <= 8 else f" (+{len(self.violations) - 8} more)"
        super().__init__(f"{subject}: {lines}{more}")

    @property
    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


class SourceTargetMismatch(MovcatError):
    pass


class NotAMonoid(MovcatError):
    pass


class SizeBoundExceeded(MovcatError):
    pass


class InvalidCopresheaf(ValidationFailed):
    def __init__(self, violations: list[Violation]):
        super().__init__("copresheaf", violations)


class VerificationFailed(MovcatError):
    """A transported witness failed re-verification; indicates an internal bug."""


class NoDesignatedCoproducts(MovcatError):
    pass


class UniversalPropertyFails(MovcatError):
    pass


class ConeIncompatible(MovcatError):
    pass


class ParamsOutOfRange(MovcatError):
    pass


class UnknownTheorem(MovcatError):
    pass


class DslSyntaxError(MovcatError):
    """Parse error with position info and the tokens that would have been accepted."""

    def __init__(self, line: int, col: int, expected: str, found: str = ""):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        where = f"line {line}, col {col}"
        msg = f"{where}: expected {expected}"
        if found:
            msg += f", found {found!r}"
        super().__init__(msg)


class UnresolvedReference(MovcatError):
    """A name that denotes nothing of the expected kind; the message says
    which name and where."""
