"""Material model: piezoelectric stiffening, overtone dispersion, file I/O.

Strict SI units throughout.  ``MaterialParams`` is immutable and safe to
share across threads; all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

__all__ = [
    "MaterialParams",
    "MaterialFileError",
    "DispersionPoleError",
    "stiffened_constants",
    "dispersion_parameters",
    "load_material",
    "bundled_material_path",
]

# Distance (radians) below which a cotangent argument counts as sitting on a
# pole: deterministic failure beats a meaningless huge number.
_COT_POLE_GUARD = 1e-9


class MaterialFileError(ValueError):
    """Malformed material file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DispersionPoleError(ValueError):
    """Cotangent argument in the dispersion formula landed on a pole."""


@dataclass(frozen=True)
class MaterialParams:
    """Elastic, piezoelectric and dispersion constants of the plate material.

    Attributes:
        rho: mass density (kg/m^3)
        c_bar_z: unperturbed effective elastic coefficient (Pa)
        e_z: effective piezoelectric coefficient (C/m^2)
        eps_z: dielectric constant along z (F/m)
        M: transverse elastic parameter, x axis (Pa)
        P: transverse elastic parameter, y axis (Pa)
        a_x, a_y: overtone-dispersion amplitudes (Pa); zero in the
            weak-anisotropy limit
        kappa_x, kappa_y: sound-velocity ratios (dimensionless); unity in the
            weak-anisotropy limit
    """

    rho: float
    c_bar_z: float
    e_z: float
    eps_z: float
    M: float
    P: float
    a_x: float = 0.0
    a_y: float = 0.0
    kappa_x: float = 1.0
    kappa_y: float = 1.0

    def __post_init__(self):
        _require_positive_finite(self, ("rho", "c_bar_z", "eps_z", "M", "P"))
        if not (math.isfinite(self.e_z) and self.e_z >= 0):
            raise ValueError(f"e_z must be non-negative, got {self.e_z!r}")
        for name in ("a_x", "a_y"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        for name in ("kappa_x", "kappa_y"):
            v = getattr(self, name)
            if not (0.0 < v < 2.0):
                raise ValueError(f"{name} must lie in (0, 2), got {v!r}")


def _require_positive_finite(obj, names):
    for name in names:
        v = getattr(obj, name)
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v!r}")


def _require_odd_overtone(n: int):
    if n != int(n) or n < 1 or n % 2 == 0:
        raise ValueError(f"overtone must be odd and positive, got {n!r}")


def _require_positive_at(n: int, **values: float):
    for name, v in values.items():
        if not v > 0.0:
            raise ValueError(f"{name} of overtone n = {n} must be positive, got {v!r}")


def stiffened_constants(mat: MaterialParams, n: int) -> tuple[float, float]:
    """Piezoelectrically corrected elastic coefficients (c_z, c_hat_z) in Pa.

    The correction subtracts e_z^2 / eps_z (which has units of Pa); the
    thickness-mode coefficient carries an extra 8/(n pi)^2 factor that fades
    for high overtones.  With e_z = 0 both equal c_bar_z.  Raises ValueError,
    naming n, when c_hat_z is not positive.
    """
    _require_odd_overtone(n)
    corr = mat.e_z * mat.e_z / mat.eps_z
    c_z = mat.c_bar_z - corr
    c_hat_z = mat.c_bar_z - corr * 8.0 / (n * n * math.pi * math.pi)
    _require_positive_at(n, c_hat_z=c_hat_z)
    return c_z, c_hat_z


def dispersion_parameters(mat: MaterialParams, n: int) -> tuple[float, float]:
    """Overtone-dependent transverse parameters (M_n, P_n) in Pa.

    Each picks up cot-type corrections that vanish when kappa_x = kappa_y = 1
    and n is odd (cot of an odd multiple of pi/2 is zero), so weakly
    anisotropic materials reduce to (M, P) exactly.  Raises ValueError,
    naming n, when M_n or P_n is not positive.
    """
    _require_odd_overtone(n)
    shift = 0.0
    for a, kappa, axis in ((mat.a_x, mat.kappa_x, "x"), (mat.a_y, mat.kappa_y, "y")):
        if a == 0.0:
            continue
        theta = kappa * n * math.pi / 2.0
        if abs(math.remainder(theta, math.pi)) < _COT_POLE_GUARD:
            raise DispersionPoleError(
                f"cot argument kappa_{axis}*n*pi/2 sits on a pole "
                f"(kappa_{axis}={kappa!r}, n={n})"
            )
        shift += (a / n) / math.tan(theta)
    m_n, p_n = mat.M + shift, mat.P + shift
    _require_positive_at(n, M_n=m_n, P_n=p_n)
    return m_n, p_n


_REQUIRED_KEYS = ("rho", "c_bar_z", "eps_z", "M", "P")
_OPTIONAL_KEYS = {"e_z": 0.0, "a_x": 0.0, "a_y": 0.0, "kappa_x": 1.0, "kappa_y": 1.0}
_ALL_KEYS = set(_REQUIRED_KEYS) | set(_OPTIONAL_KEYS)


def load_material(path: str | Path) -> MaterialParams:
    """Parse a key=value material file into validated MaterialParams.

    Lines are ``key = value`` with ``#`` comments; scientific notation is
    accepted.  Unknown and duplicate keys are rejected with the line number;
    missing dispersion constants default to the weak-anisotropy limit
    (a = 0, kappa = 1) and e_z defaults to 0.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise MaterialFileError(f"cannot read material file {path}: {exc}") from exc

    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MaterialFileError(f"expected key=value, got {raw!r}", lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise MaterialFileError(f"unknown key {key!r}", lineno)
        if key in values:
            raise MaterialFileError(f"duplicate key {key!r}", lineno)
        try:
            values[key] = float(val.strip())
        except ValueError as exc:
            raise MaterialFileError(f"bad number for {key!r}: {val.strip()!r}", lineno) from exc

    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise MaterialFileError(f"missing required key(s): {', '.join(missing)}")
    for key, default in _OPTIONAL_KEYS.items():
        values.setdefault(key, default)
    return MaterialParams(**values)


def bundled_material_path(name: str = "quartz") -> Path:
    """Path of a material file shipped with the package.

    Available names: ``quartz`` (non-piezo demonstration constants) and
    ``quartz-piezo`` (same constants with a nonzero piezoelectric
    coefficient for readout calculations).
    """
    fname = {"quartz": "quartz.dat", "quartz-piezo": "quartz_piezo.dat"}.get(name)
    if fname is None:
        raise ValueError(f"unknown bundled material {name!r}")
    return Path(str(resources.files("bawcav") / "data" / fname))
