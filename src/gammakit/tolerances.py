"""Numeric tolerance policy shared across the library."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ToleranceConfig:
    """Thresholds that turn exact polynomial identities into floating checks.

    eps_trim : relative coefficient noise level (see below)
    eps_root : root clustering scale: eps_root^(1/m) links an m-fold hypothesis and
        merges circle roots (capped at 0.01); it bounds no Newton polish
    eps_circle : half-width of the circle band ||z| - 1| <= eps_circle (below)
    eps_residual : tolerance for verifying polynomial identities
    circle_samples : default sampling density on the unit circle (an int)

    ``eps_trim`` keeps three roles: ``royal_polynomial``'s :class:`RoyalVariety`
    test, ``eval_h``'s pole test and, read by ``_ClusterContext`` alone, the root
    layer's coefficient noise (clustering and circle-root location uncertainty).
    It zeroes no coefficient; ``Poly`` construction drops exact trailing zeros only.

    Every point test reads the band through ``_unimodular`` and ``_in_closed_disc``
    (|z| - 1 <= eps_circle); NaN is in neither. eps_circle is read elsewhere only as
    ``_closed_disc_zero``'s radius 1 + eps_circle, ``SynthesisSpec``'s least sigma-tau
    distance and, by ``_ClusterContext`` alone, the root layer's reach max(eps_circle,
    1e-4), which no root polish crosses and which bounds the circle partition's soft band.
    """

    eps_trim: float = 1e-12
    eps_root: float = 1e-10
    eps_circle: float = 1e-8
    eps_residual: float = 1e-9
    circle_samples: int = 1024

    def __post_init__(self):
        for name in ("eps_trim", "eps_root", "eps_circle", "eps_residual"):
            if not 0.0 < getattr(self, name) < float("inf"):
                raise ValueError(f"{name} must be finite and strictly positive")
        if not self.eps_circle < 0.5:
            raise ValueError("eps_circle must be below 0.5")
        samples = self.circle_samples
        if isinstance(samples, bool) or not isinstance(samples, int) or samples < 256:
            raise ValueError(f"circle_samples must be at least 256 and an int, not {samples!r}")

    def with_overrides(self, **kwargs) -> "ToleranceConfig":
        return replace(self, **kwargs)


DEFAULT_TOL = ToleranceConfig()


def _unimodular(z: complex, tol: ToleranceConfig) -> complex | None:
    """z / |z| when z lies in the circle band, ||z| - 1| <= ``eps_circle``; else None."""
    mod = abs(z)
    return z / mod if abs(mod - 1.0) <= tol.eps_circle else None


def _in_closed_disc(z: complex, tol: ToleranceConfig) -> bool:
    """True when |z| - 1 <= ``eps_circle``: z lies in the closed disc or its circle band."""
    return abs(z) - 1.0 <= tol.eps_circle


def _band_miss(name: str, z: complex, tol: ToleranceConfig) -> str:
    """What a failed band test reports: ||z| - 1| and ``eps_circle``."""
    return f"||{name}| - 1| = {abs(abs(z) - 1.0):.3e}; eps_circle = {tol.eps_circle:.3g}"
