"""Exception types raised by gammakit."""

from __future__ import annotations


class GammaKitError(Exception):
    """Base class for all gammakit errors."""


class DegreeExceedsBound(GammaKitError):
    """A polynomial has higher degree than the reflection bound allows."""


class ZeroPolynomial(GammaKitError):
    """An operation that needs a nonzero polynomial received the zero polynomial."""


class PointOutOfRegion(GammaKitError):
    """An elementary factor was requested at a point outside its admissible region."""


class NotOnTorusFiber(GammaKitError):
    """The chart requires |p| = 1."""


class NotBalanced(GammaKitError):
    """A Laurent shift was requested for a polynomial without the required symmetry."""


class NotNonnegative(GammaKitError):
    """A trigonometric polynomial takes negative values on the circle."""


class OddCircleZero(GammaKitError):
    """A circle zero cluster has odd total order, inconsistent with a squared modulus."""


class ConditionFailed(GammaKitError):
    """One or more of the inner-representation conditions (i)-(iv) failed.

    Attributes
    ----------
    failed : tuple of str
        Labels of the failed conditions, drawn from {"i", "ii", "iii", "iv"}.
    details : dict
        Human-readable diagnostics keyed by condition label.
    """

    def __init__(self, failed, details=None):
        self.failed = tuple(failed)
        self.details = dict(details or {})
        parts = [f"({c}) {self.details.get(c, 'failed')}" for c in self.failed]
        super().__init__("; ".join(parts))


class PoleOnDomain(GammaKitError):
    """Evaluation hit a zero of the denominator inside the evaluation domain."""


class NotInner(GammaKitError):
    """A (numerator, denominator) pair does not describe a finite Blaschke product."""


class BadParameter(GammaKitError):
    """A parameter is out of range or not finite.

    Raised for canonical-example parameters outside their range and for
    polynomial coefficients that are infinite or NaN.
    """


class RoyalVariety(GammaKitError):
    """The royal polynomial vanishes identically: the function maps into s^2 = 4p.

    Node counting, type and extremity are undefined for this branch of the
    dichotomy, so the analysis operations surface it as an exception.
    """


class BadSpec(GammaKitError):
    """A synthesis specification violates its invariants."""


class ExtremeNoWitness(GammaKitError):
    """No convex-combination witness exists: the function satisfies 2k > n."""


class DifferentSecondComponent(GammaKitError):
    """Convex combination requires both functions to share the same p."""


class OrderOverflow(GammaKitError):
    """|s| = 2 on the whole circle (the royal variety), so no boundary flatness order exists."""


class ParseError(GammaKitError):
    """A serialized document is malformed.

    Attributes
    ----------
    location : str
        Best-effort position information (line/column or key path).
    """

    def __init__(self, message, location=""):
        self.location = location
        super().__init__(f"{message} [at {location}]" if location else message)


class ValidationError(GammaKitError):
    """A parsed document is well formed but violates a type invariant."""
