"""Numeric tolerance policy shared across the library."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ToleranceConfig:
    """Thresholds that turn exact polynomial identities into floating checks.

    eps_trim : relative coefficient truncation threshold
    eps_root : root residual target, also drives multiplicity clustering
    eps_circle : half-width of the annulus classed as "on the unit circle"
    eps_residual : tolerance for verifying polynomial identities
    circle_samples : default sampling density on the unit circle

    ``eps_trim`` reaches the royal polynomial, root finding, the spectral
    factor and the pole test of ``eval_h``, but not ``Poly`` construction:
    every ``Poly`` trims coefficients below 1e-12 times its largest one,
    whatever the configuration says (ROADMAP defect D).
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
        if self.circle_samples < 256:
            raise ValueError("circle_samples must be at least 256")

    def with_overrides(self, **kwargs) -> "ToleranceConfig":
        return replace(self, **kwargs)


DEFAULT_TOL = ToleranceConfig()
