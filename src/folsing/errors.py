"""Exception taxonomy.

Every domain error raised by the library derives from ToolkitError and carries a
stable machine-readable code plus an optional payload, so the CLI can emit a
uniform JSON error object on stderr and exit 1.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all domain errors."""

    code = "error"

    def __init__(self, message: str = "", **payload):
        super().__init__(message or self.__class__.__name__)
        self.message = message or self.__class__.__name__
        self.payload = payload

    def to_json(self) -> dict:
        out = {"error": self.code, "message": self.message}
        if self.payload:
            out["detail"] = {k: _plain(v) for k, v in self.payload.items()}
        return out


def _plain(v):
    """Best-effort conversion of payload values to JSON-safe primitives."""
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    return str(v)


# ---------------------------------------------------------------- exact-arith
class DivisionByZero(ToolkitError):
    code = "division-by-zero"


class TowerMismatch(ToolkitError):
    code = "tower-mismatch"


class TowerDepthExceeded(ToolkitError):
    code = "tower-depth-exceeded"


class ExtensionDegreeExceeded(ToolkitError):
    code = "extension-degree-exceeded"


class ReducibleMinimalPolynomial(ToolkitError):
    code = "reducible-minimal-polynomial"


class NotMonic(ToolkitError):
    code = "not-monic"


class CoefficientTooLarge(ToolkitError):
    """A coefficient has more decimal digits than Python converts to text."""

    code = "coefficient-too-large"


# ---------------------------------------------------------------- poly-series
class ZeroInput(ToolkitError):
    code = "zero-input"


class VariableCountMismatch(ToolkitError):
    code = "variable-count-mismatch"


class TruncationTooSmall(ToolkitError):
    code = "truncation-too-small"


# ---------------------------------------------------------------- parser
class ParseError(ToolkitError):
    code = "parse-error"

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message, line=line, col=col)
        self.line = line
        self.col = col


# ---------------------------------------------------------------- local-analysis
class NotSingular(ToolkitError):
    code = "not-singular"


class NonIsolatedSingularity(ToolkitError):
    code = "non-isolated-singularity"


class WrongClass(ToolkitError):
    code = "wrong-class"


# ---------------------------------------------------------------- blowup-resolve
class BlowupBudgetExceeded(ToolkitError):
    code = "blowup-budget-exceeded"


# ---------------------------------------------------------------- normal-forms
class LinearPartNotPrepared(ToolkitError):
    code = "linear-part-not-prepared"


class ZeroDivisorDelta(ToolkitError):
    code = "zero-divisor-delta"


class NotPoincareDomain(ToolkitError):
    code = "not-poincare-domain"


class ResonanceObstruction(ToolkitError):
    code = "resonance-obstruction"


# ---------------------------------------------------------------- holonomy-integrals
class ZeroBaseEigenvalue(ToolkitError):
    code = "zero-base-eigenvalue"


class DicriticalInput(ToolkitError):
    code = "dicritical-input"


class NonIntegerResidues(ToolkitError):
    code = "non-integer-residues"


class IntegralDegreeExceeded(ToolkitError):
    """A power-product first integral has a total degree above the cap."""

    code = "integral-degree-exceeded"


# ---------------------------------------------------------------- cp2-global
class RadialInput(ToolkitError):
    code = "radial-input"


class NonIsolatedZeros(ToolkitError):
    code = "non-isolated-zeros"


# ---------------------------------------------------------------- sector-geometry
class SectorContainsSingularDirection(ToolkitError):
    code = "sector-contains-singular-direction"


class InadmissibleCoefficient(ToolkitError):
    code = "inadmissible-coefficient"


class DegenerateEigenData(ToolkitError):
    code = "degenerate-eigen-data"


# ---------------------------------------------------------------- fatou-numeric
class ZeroLeadingCoefficient(ToolkitError):
    code = "zero-leading-coefficient"


class NotInPetal(ToolkitError):
    code = "not-in-petal"


class SlowConvergence(ToolkitError):
    code = "slow-convergence"


class GridTooLarge(ToolkitError):
    """An orbit census asks for more grid points than it samples."""

    code = "grid-too-large"


class FloatOverflow(ToolkitError):
    """A floating-point result is not finite, so no JSON can carry it."""

    code = "float-overflow"


# ---------------------------------------------------------------- caps
class RequestTooLarge(ToolkitError):
    """A request exceeds a documented cap of the module that serves it, and
    is refused before any of its work is done."""

    code = "request-too-large"


# ---------------------------------------------------------------- internal
class InternalInvariantViolation(ToolkitError):
    """An invariant the library guarantees internally failed; always a bug."""

    code = "internal-invariant-violation"
