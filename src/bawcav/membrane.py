"""Stressed rectangular membrane: the conventional-resonator baseline.

Used to contrast the curved cavity's mode-number scaling with a resonator
whose displacement fluctuations shrink as the mode numbers grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cavity import ModeCharacterization, _normal, thermal_occupancy
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
    """Angular frequency omega = pi c sqrt(m^2/a^2 + n^2/b^2), c = sqrt(tau/rho).

    Raises as ``compare`` does when tau / rho is not a normal double.
    """
    c_squared = _normal(spec.tau / spec.rho, _named(spec))
    return math.pi * math.sqrt(c_squared) * math.hypot(spec.mode_m / spec.a, spec.mode_n / spec.b)


def membrane_effective_mass(spec: MembraneSpec) -> float:
    """Effective mass rho h a b / 4, independent of the mode numbers."""
    return spec.rho * spec.h * spec.a * spec.b / 4.0


def _named(spec: MembraneSpec) -> str:
    # what a membrane figure outside the normal double range names
    return f"a figure of the {spec.a!r} m x {spec.b!r} m membrane"


def membrane_zpf(spec: MembraneSpec) -> tuple[float, float]:
    """Displacement zero-point spread, two conventions.

    Returns ``(x_zpf, x_zpf_from_mass)``: the first evaluates the published
    closed form <x^2> = 4 hbar / (pi sqrt(tau rho) h sqrt(m^2 a^2 + n^2 b^2))
    verbatim, the second the oscillator expression hbar / (2 omega m_eff).
    For a square membrane the former variance is exactly twice the latter;
    both are reported rather than silently picking one.  Raises as
    ``compare`` does when tau rho, a divisor or a variance is not a normal
    double.
    """
    omega = membrane_frequency(spec)
    what = _named(spec)
    s = math.hypot(spec.mode_m * spec.a, spec.mode_n * spec.b)
    d_verbatim = _normal(math.pi * math.sqrt(_normal(spec.tau * spec.rho, what)) * spec.h * s, what)
    d_osc = _normal(2.0 * omega * membrane_effective_mass(spec), what)
    return math.sqrt(_normal(4.0 * HBAR / d_verbatim, what)), math.sqrt(_normal(HBAR / d_osc, what))


def compare(
    cavity_char: ModeCharacterization, spec: MembraneSpec, temperature: float
) -> list[tuple[str, float, float]]:
    """Cavity mode vs membrane mode at the same temperature.

    Returns the rows (quantity, cavity, membrane) of f_Hz, m_eff_kg, x_zpf_m
    and n_thermal.  Highlights the opposing design pressures: the cavity's
    occupancy falls with the overtone number at constant displacement
    spread, while the membrane's displacement spread falls with its mode
    numbers.  Raises OverflowError or FloatingPointError, naming the
    membrane's sides, when a membrane figure is outside the normal double
    range.
    """
    omega_m = membrane_frequency(spec)
    x_zpf, _ = membrane_zpf(spec)  # the square root of a normal variance is normal
    what = _named(spec)
    f_hz = _normal(omega_m / (2.0 * math.pi), what)
    m_eff = _normal(membrane_effective_mass(spec), what)
    n_membrane = thermal_occupancy(omega_m, temperature)
    return [
        ("f_Hz", cavity_char.omega / (2.0 * math.pi), f_hz),
        ("m_eff_kg", cavity_char.m_eff, m_eff),
        ("x_zpf_m", cavity_char.x_zpf, x_zpf),
        ("n_thermal", thermal_occupancy(cavity_char.omega, temperature), n_membrane),
    ]
