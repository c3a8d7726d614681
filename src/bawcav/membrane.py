"""Stressed rectangular membrane: the conventional-resonator baseline.

Used to contrast the curved cavity's mode-number scaling with a resonator
whose displacement fluctuations shrink as the mode numbers grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cavity import _DBL_MIN, ModeCharacterization, thermal_occupancy
from .constants import HBAR
from .material import _require_positive_finite

__all__ = [
    "MembraneSpec",
    "membrane_frequency",
    "membrane_effective_mass",
    "membrane_zpf",
    "compare",
]


@dataclass(frozen=True)
class MembraneSpec:
    """Rectangular membrane a x b, thickness h, under stress tau.

    Defaults mirror the demonstration cavity: a square membrane the size of
    the plate (a = b = 2L = 0.03 m), same density, tau = 105 GPa.
    """

    a: float = 0.03  # m
    b: float = 0.03  # m
    h: float = 5e-4  # m
    tau: float = 105e9  # Pa
    rho: float = 2643.0  # kg/m^3
    mode_m: int = 1
    mode_n: int = 1

    def __post_init__(self):
        _require_positive_finite(self, ("a", "b", "h", "tau", "rho"))
        if not self.h < min(self.a, self.b) / 20.0:
            raise ValueError(
                f"membrane must be thin: h={self.h!r} >= min(a, b)/20={min(self.a, self.b) / 20.0!r}"
            )
        for name in ("mode_m", "mode_n"):
            v = getattr(self, name)
            if v != int(v) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")


def membrane_frequency(spec: MembraneSpec) -> float:
    """Angular frequency omega = pi c sqrt(m^2/a^2 + n^2/b^2), c = sqrt(tau/rho)."""
    c = math.sqrt(spec.tau / spec.rho)
    return math.pi * c * math.hypot(spec.mode_m / spec.a, spec.mode_n / spec.b)


def membrane_effective_mass(spec: MembraneSpec) -> float:
    """Effective mass rho h a b / 4, independent of the mode numbers."""
    return spec.rho * spec.h * spec.a * spec.b / 4.0


def membrane_zpf(spec: MembraneSpec) -> tuple[float, float]:
    """Displacement zero-point spread, two conventions.

    Returns ``(x_zpf, x_zpf_from_mass)``: the first evaluates the published
    closed form <x^2> = 4 hbar / (pi sqrt(tau rho) h sqrt(m^2 a^2 + n^2 b^2))
    verbatim, the second the oscillator expression hbar / (2 omega m_eff).
    For a square membrane the former variance is exactly twice the latter;
    both are reported rather than silently picking one.
    """
    s = math.hypot(spec.mode_m * spec.a, spec.mode_n * spec.b)
    var_verbatim = 4.0 * HBAR / (math.pi * math.sqrt(spec.tau * spec.rho) * spec.h * s)
    var_osc = HBAR / (2.0 * membrane_frequency(spec) * membrane_effective_mass(spec))
    return math.sqrt(var_verbatim), math.sqrt(var_osc)


def compare(
    cavity_char: ModeCharacterization, spec: MembraneSpec, temperature: float
) -> list[tuple[str, float, float]]:
    """Cavity mode vs membrane mode at the same temperature.

    Returns the rows (quantity, cavity, membrane) of f_Hz, m_eff_kg, x_zpf_m
    and n_thermal.  Highlights the opposing design pressures: the cavity's
    occupancy falls with the overtone number at constant displacement
    spread, while the membrane's displacement spread falls with its mode
    numbers.  Raises OverflowError when a membrane figure leaves the normal
    double range.
    """
    omega_m = membrane_frequency(spec)
    f_hz = omega_m / (2.0 * math.pi)
    m_eff = membrane_effective_mass(spec)
    x_zpf, _ = membrane_zpf(spec)
    if not all(_DBL_MIN <= v < math.inf for v in (f_hz, m_eff, x_zpf)):
        raise OverflowError(
            f"the figures of the {spec.a!r} m x {spec.b!r} m membrane"
            " are outside the normal double range"
        )
    n_membrane = thermal_occupancy(omega_m, temperature)
    return [
        ("f_Hz", cavity_char.omega / (2.0 * math.pi), f_hz),
        ("m_eff_kg", cavity_char.m_eff, m_eff),
        ("x_zpf_m", cavity_char.x_zpf, x_zpf),
        ("n_thermal", thermal_occupancy(cavity_char.omega, temperature), n_membrane),
    ]
