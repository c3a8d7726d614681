"""Stressed-membrane baseline figures and the comparison report."""

import math

import pytest

from bawcav.cavity import CavityGeometry, ModeIndex, characterize, thermal_occupancy
from bawcav.material import bundled_material_path, load_material
from bawcav.membrane import (
    MembraneSpec,
    compare,
    membrane_effective_mass,
    membrane_frequency,
    membrane_zpf,
)

QUARTZ = load_material(bundled_material_path("quartz"))
GEO = CavityGeometry(L=0.015, h0=5e-4, R=0.3)
DEFAULT = MembraneSpec()


class TestFrequency:
    def test_reference_value(self):
        f = membrane_frequency(DEFAULT) / (2 * math.pi)
        # direct evaluation: pi sqrt(tau/rho) sqrt(2)/a / (2 pi)
        expected = math.sqrt(105e9 / 2643) * math.sqrt(2.0) / 0.03 / 2.0
        assert f == pytest.approx(expected, rel=1e-14)
        assert f == pytest.approx(148562.710838, rel=1e-11)
        assert f == pytest.approx(149e3, rel=0.01)

    def test_mode_scaling(self):
        f11 = membrane_frequency(DEFAULT)
        f21 = membrane_frequency(MembraneSpec(mode_m=2, mode_n=1))
        assert f21 / f11 == pytest.approx(math.sqrt(5.0 / 2.0), rel=1e-14)

    def test_size_scaling(self):
        f = membrane_frequency(MembraneSpec(a=0.06, b=0.06))
        assert f == pytest.approx(membrane_frequency(DEFAULT) / 2.0, rel=1e-14)

    def test_separability_identity(self):
        # for a = b: w(m,n)^2 + w(p,q)^2 = w(m,q)^2 + w(p,n)^2
        def w2(m, n):
            return membrane_frequency(MembraneSpec(mode_m=m, mode_n=n)) ** 2

        assert w2(1, 2) + w2(3, 4) == pytest.approx(w2(1, 4) + w2(3, 2), rel=1e-13)


class TestEffectiveMass:
    def test_reference_value(self):
        assert membrane_effective_mass(DEFAULT) == pytest.approx(2.973375e-4, rel=1e-12)

    def test_thickness_scaling(self):
        double = MembraneSpec(h=1e-3, a=0.06, b=0.06)
        half_geom = MembraneSpec(h=5e-4, a=0.06, b=0.06)
        assert membrane_effective_mass(double) == pytest.approx(
            2 * membrane_effective_mass(half_geom), rel=1e-14
        )

    def test_mode_independent(self):
        assert membrane_effective_mass(MembraneSpec(mode_m=3, mode_n=5)) == membrane_effective_mass(DEFAULT)


class TestZpf:
    def test_reference_value(self):
        x, _ = membrane_zpf(DEFAULT)
        assert x == pytest.approx(6.16408183551e-19, rel=1e-11)
        assert x == pytest.approx(6.2e-19, rel=0.03)

    def test_variance_halves_with_doubled_modes(self):
        x11, _ = membrane_zpf(DEFAULT)
        x22, _ = membrane_zpf(MembraneSpec(mode_m=2, mode_n=2))
        assert x22**2 == pytest.approx(x11**2 / 2.0, rel=1e-13)

    def test_companion_convention_factor_two(self):
        x, x_mass = membrane_zpf(DEFAULT)
        assert x**2 == pytest.approx(2.0 * x_mass**2, rel=1e-13)

    def test_decreasing_in_mode_numbers(self):
        xs = [membrane_zpf(MembraneSpec(mode_m=m, mode_n=1))[0] for m in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(xs, xs[1:]))


class TestSpecValidation:
    def test_thick_membrane_rejected(self):
        with pytest.raises(ValueError, match="thin"):
            MembraneSpec(h=0.01)

    def test_bad_mode_number(self):
        with pytest.raises(ValueError, match="mode_m"):
            MembraneSpec(mode_m=0)


class TestCompare:
    def test_reference_comparison(self):
        char = characterize(QUARTZ, GEO, ModeIndex(227), 0.02, eta_override=10.7)
        label, cavity, membrane = compare(char, DEFAULT, 0.02)[-1]
        assert label == "n_thermal"
        assert cavity == pytest.approx(0.22, abs=0.01)
        assert 2.8e3 < membrane < 3.2e3
        assert membrane == pytest.approx(2804.59412173, rel=1e-9)

    def test_deterministic(self):
        char = characterize(QUARTZ, GEO, ModeIndex(227), 0.02, eta_override=10.7)
        assert compare(char, DEFAULT, 0.02) == compare(char, DEFAULT, 0.02)

    def test_zero_temperature_propagates(self):
        char = characterize(QUARTZ, GEO, ModeIndex(1), 0.02)
        with pytest.raises(ValueError, match="temperature"):
            compare(char, DEFAULT, 0.0)

    def test_rows_layout(self):
        char = characterize(QUARTZ, GEO, ModeIndex(1), 0.02)
        rows = compare(char, DEFAULT, 0.02)
        assert [r[0] for r in rows] == ["f_Hz", "m_eff_kg", "x_zpf_m", "n_thermal"]
        # the cavity's figures and the membrane's, each as its own function gives it
        omega = membrane_frequency(DEFAULT)
        assert [r[1:] for r in rows] == [
            (char.omega / (2.0 * math.pi), omega / (2.0 * math.pi)),
            (char.m_eff, membrane_effective_mass(DEFAULT)),
            (char.x_zpf, membrane_zpf(DEFAULT)[0]),
            (thermal_occupancy(char.omega, 0.02), thermal_occupancy(omega, 0.02)),
        ]
