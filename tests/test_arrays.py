"""Array calls of the closed forms: the same bits and the same errors as
one call per point."""

import math

import numpy as np
import pytest

from bawcav.cavity import (
    CavityGeometry,
    ModeIndex,
    characterize,
    effective_mass,
    envelope_curvatures,
    escape_probability,
    trapping_over_radii,
    trapping_parameters,
    zpf,
)
from bawcav import cavity
from bawcav.material import bundled_material_path, load_material
from bawcav.specfun import erf, erfc, erfcx

QUARTZ = load_material(bundled_material_path("quartz"))
GEO = CavityGeometry(L=0.015, h0=5e-4, R=0.3)
FIELDS = ("omega", "alpha", "beta", "eta_x", "eta_y", "chi_inv", "xi", "m_eff", "m_flat",
          "x_zpf", "p_zpf", "n_thermal")

# float.hex of (chi_inv, xi, m_eff, x_zpf) from characterize(QUARTZ, GEO,
# ModeIndex(n, m, p), 0.02, eta_override=eta): every bit of these figures
# is part of the output contract; the last point has a subnormal chi_inv
HEX_PINS = {
    (3, 0, 0, 0.05): ("0x1.fb22974a8e0e8p-1", "0x1.01482be10564ep+0",
                      "0x1.363a3d9e900aap-10", "0x1.02a9ad844ad57p-65"),
    (3, 0, 0, 1.0): ("0x1.d16c01fc98439p-6", "0x1.f7380ed4e5a21p+1",
                     "0x1.3d38b123458c2p-12", "0x1.ff9748431333ap-65"),
    (3, 0, 0, 10.7): ("0x1.5abb2a971ab49p-500", "0x1.b551d06a91e54p+8",
                      "0x1.6d05f96ac1ae2p-19", "0x1.513b660f3d510p-61"),
    (3, 2, 2, 0.05): ("0x1.fececdbd5fa6ep-1", "0x1.0678ad3ad22a1p-4",
                      "0x1.301804482e5f0p-6", "0x1.05422960182f4p-67"),
    (3, 2, 2, 1.0): ("0x1.2ae8f90c35eb5p-1", "0x1.25b07fc680d7ep-3",
                     "0x1.0fc51297c4285p-7", "0x1.86d49fc24c9d8p-67"),
    (3, 2, 2, 10.7): ("0x1.38fc4137784fap-482", "0x1.b551d06a91e54p+2",
                      "0x1.6d05f96ac1ae2p-13", "0x1.513b660f3d510p-64"),
    (3, 4, 2, 0.05): ("0x1.ff1d5f4779048p-1", "0x1.d749d8890ded1p-10",
                      "0x1.52b6b49348487p-1", "0x1.5e159acc11019p-70"),
    (3, 4, 2, 1.0): ("0x1.87502ac8ef122p-1", "0x1.59b359659132ap-8",
                     "0x1.cdc36a10d0734p-3", "0x1.2bd53e456324cp-69"),
    (3, 4, 2, 10.7): ("0x1.74598e5028fddp-468", "0x1.238be0470bee3p-3",
                      "0x1.11c47b1011429p-7", "0x1.8566e99b20edep-67"),
    (1, 0, 0, 26.9): ("0x0.0000002c7b812p-1022", "0x1.ccaa18500f724p+9",
                      "0x1.5a867654d15dap-20", "0x1.a7e75ffd9f9e1p-60"),
}


def _stacked(mode, etas, **kwargs):
    # characterize one point at a time, each figure stacked into an array
    chars = [characterize(QUARTZ, GEO, mode, 0.02, eta_override=e, **kwargs) for e in etas]
    return {f: np.array([getattr(c, f) for c in chars]) for f in FIELDS}


def _assert_same_bits(char, stacked):
    for f in FIELDS:
        got = np.broadcast_to(getattr(char, f), stacked[f].shape)
        assert got.tobytes() == stacked[f].tobytes(), f


@pytest.mark.parametrize("point", HEX_PINS)
def test_figures_keep_their_recorded_bits(point):
    n, m, p, eta = point
    mode = ModeIndex(n, m, p)
    char = characterize(QUARTZ, GEO, mode, 0.02, eta_override=eta)
    figures = (char.chi_inv, char.xi, char.m_eff, char.x_zpf)
    assert all(type(v) is float for v in figures)
    assert tuple(v.hex() for v in figures) == HEX_PINS[point]
    # the same point inside an array call
    arr = characterize(QUARTZ, GEO, mode, 0.02, eta_override=np.array([0.5, eta, 2.0]))
    assert tuple(float(a[1]).hex() for a in (arr.chi_inv, arr.xi, arr.m_eff, arr.x_zpf)) \
        == HEX_PINS[point]


@pytest.mark.parametrize("n, m, p", [(1, 0, 0), (5, 2, 2), (3, 4, 0), (1, 4, 2), (7, 0, 6)])
def test_array_call_equals_stacked_point_calls(n, m, p):
    # --eta-range grids, --m 4 among them, reaching subnormal and zero chi
    etas = 0.1 + np.arange(200) * 0.06
    mode = ModeIndex(n, m, p)
    char = characterize(QUARTZ, GEO, mode, 0.02, eta_override=etas)
    _assert_same_bits(char, _stacked(mode, etas.tolist()))
    assert isinstance(char.omega, float) and isinstance(char.n_thermal, float)


def test_per_axis_override_equals_stacked_point_calls():
    ex = 0.2 + np.arange(50) * 0.2
    ey = 1.3 * ex[::-1]
    mode = ModeIndex(3, 4, 2)
    char = characterize(QUARTZ, GEO, mode, 0.02, eta_override=(ex, ey))
    _assert_same_bits(char, _stacked(mode, list(zip(ex.tolist(), ey.tolist()))))


@pytest.mark.parametrize("m", [0, 2])
def test_radius_grid_equals_first_principles_point_calls(m):
    # what sweep --R-range does: (eta_x, eta_y) per radius, one array call
    geos = [CavityGeometry(L=GEO.L, h0=GEO.h0, R=0.1 * k) for k in range(1, 11)]
    mode = ModeIndex(3, m, 2)
    pairs = [trapping_parameters(*envelope_curvatures(QUARTZ, g, 3), g.L) for g in geos]
    ex, ey = (np.array(axis) for axis in zip(*pairs))
    char = characterize(QUARTZ, GEO, mode, 0.02, eta_override=(ex, ey))
    _assert_same_bits(char, _stacked(mode, pairs))
    # and figure for figure the first-principles calls of each geometry,
    # but for the curvature, which the override re-derives from eta
    points = [characterize(QUARTZ, g, mode, 0.02) for g in geos]
    for f in FIELDS:
        want = np.array([getattr(c, f) for c in points])
        if f in ("alpha", "beta"):
            np.testing.assert_allclose(getattr(char, f), want, rtol=1e-15)
        else:
            assert np.broadcast_to(getattr(char, f), want.shape).tobytes() == want.tobytes(), f


@pytest.mark.parametrize("m, p", [(0, 0), (2, 2), (4, 0)])
@pytest.mark.parametrize("etas", [0.1 + np.arange(400) * 0.06, 2.5], ids=["array", "float"])
def test_axes_sharing_one_eta_equal_axes_with_equal_copies(m, p, etas):
    # with eta_y the very object eta_x is, erf and erfc run once per call
    mode = ModeIndex(5, m, p)
    twin = etas.copy() if isinstance(etas, np.ndarray) else float(np.float64(etas))
    assert twin is not etas
    np.testing.assert_array_equal(escape_probability(mode, etas, etas),
                                  escape_probability(mode, etas, twin), strict=True)
    shared = effective_mass(QUARTZ, GEO, mode, etas, etas)
    for a, b in zip(shared, effective_mass(QUARTZ, GEO, mode, etas, twin)):
        np.testing.assert_array_equal(a, b, strict=True)


def test_axes_sharing_one_eta_evaluate_erf_and_erfc_once(monkeypatch):
    calls = {"erf": 0, "erfc": 0}

    def counting(name, fn):
        def wrapped(x):
            calls[name] += 1
            return fn(x)
        return wrapped

    monkeypatch.setattr(cavity, "erf", counting("erf", erf))
    monkeypatch.setattr(cavity, "erfc", counting("erfc", erfc))
    etas = 0.1 + np.arange(50) * 0.2
    characterize(QUARTZ, GEO, ModeIndex(3, 2, 2), 0.02, eta_override=etas)
    assert calls == {"erf": 1, "erfc": 1}
    characterize(QUARTZ, GEO, ModeIndex(3, 2, 2), 0.02, eta_override=(etas, etas.copy()))
    assert calls == {"erf": 3, "erfc": 3}


@pytest.mark.parametrize("n, geo", [
    (1, GEO), (9, GEO), (3, CavityGeometry(L=0.004, h0=2e-4, R=0.3)),
])
def test_trapping_over_radii_is_the_scalar_chain_of_each_radius(n, geo):
    radii = 0.05 + np.arange(9751) * 0.0002  # sweep --R-range 0.05:2.0:0.0002
    ex, ey = trapping_over_radii(QUARTZ, geo, n, radii)
    pairs = [trapping_parameters(*envelope_curvatures(QUARTZ, g, n), g.L)
             for g in (CavityGeometry(L=geo.L, h0=geo.h0, R=r) for r in radii.tolist())]
    assert ex.tobytes() == np.array([x for x, _ in pairs]).tobytes()
    assert ey.tobytes() == np.array([y for _, y in pairs]).tobytes()


def _material_file(tmp_path, **keys):
    # the bundled constants with some keys replaced
    lines = [line for line in bundled_material_path("quartz").read_text().splitlines()
             if line.split("=")[0].strip() not in keys]
    path = tmp_path / "material.dat"
    path.write_text("\n".join(lines + [f"{k} = {v!r}" for k, v in keys.items()]) + "\n")
    return load_material(path)


def _first_failure(mat, geo, n, radii):
    # the error of the first radius whose scalar chain raises
    for r in radii.tolist():
        g = CavityGeometry(L=geo.L, h0=geo.h0, R=r)
        try:
            trapping_parameters(*envelope_curvatures(mat, g, n), g.L)
        except (ArithmeticError, ValueError) as exc:
            return exc
    raise AssertionError("no radius fails")


@pytest.mark.parametrize("material, h0, radii, message", [
    # from R = 2e307 on 8 R h0^3 M_n overflows and the curvature rounds to
    # 0; from R = 3e307 on 8 R h0^3 itself overflows
    (None, 5e-4, 0.1 + np.arange(17) * 1e307, "alpha, beta and L must be positive"),
    (None, 5e-4, np.array([0.1, 3e307, 2e307]), r"8 R h0\^3 at R = 3e\+307"),
    # 8 R h0^3 below the double range
    (None, 1e-200, np.array([1e-100, 2e-100]), r"8 R h0\^3 at R = 1e-100, h0 = 1e-200"),
    # a negative M_n: the square root of a negative number
    ({"a_x": -500e9, "kappa_x": 0.5}, 5e-4, np.array([0.1, 0.2]), "math domain error"),
    # M_n so small that 8 R h0^3 M_n is 0: a division by zero
    ({"M": 1e-300, "P": 1e-300}, 1e-100, np.array([2e-8, 3e-8]), "division by zero"),
])
def test_trapping_over_radii_raises_as_the_first_failing_radius(tmp_path, material, h0, radii,
                                                                message):
    mat = QUARTZ if material is None else _material_file(tmp_path, **material)
    geo = CavityGeometry(L=0.015, h0=h0, R=float(radii[0]))
    scalar = _first_failure(mat, geo, 1, radii)
    with pytest.raises(type(scalar), match=message) as array:
        trapping_over_radii(mat, geo, 1, radii)
    assert str(array.value) == str(scalar)


def test_other_closed_forms_take_arrays():
    etas = np.array([0.3, 1.0, 4.0])
    mode = ModeIndex(3, 2, 0)
    chi = escape_probability(mode, etas, etas[::-1])
    m_eff, m_flat, xi = effective_mass(QUARTZ, GEO, mode, etas, etas)
    x, p, x_flat, p_flat = zpf(QUARTZ, GEO, mode, etas, etas)
    for k, e in enumerate(etas.tolist()):
        assert chi[k] == escape_probability(mode, e, etas[::-1][k])
        assert (m_eff[k], m_flat, xi[k]) == effective_mass(QUARTZ, GEO, mode, e, e)
        assert (x[k], p[k], x_flat, p_flat) == zpf(QUARTZ, GEO, mode, e, e)
    xs = np.array([0.0, 0.5, 1.9, 2.0, 3.0, 30.0])
    for f in (erf, erfc, erfcx):
        assert f(xs).tolist() == [f(v) for v in xs.tolist()]
        assert type(f(0.5)) is float


# (call, etas, the first point that fails); (1, 150, 0) fails at every eta
FAILURES = [
    (lambda e: characterize(QUARTZ, GEO, ModeIndex(1), 0.02, eta_override=e),
     [1.0, 2.0, 0.0, 3.0, -1.0], 0.0),
    (lambda e: characterize(QUARTZ, GEO, ModeIndex(1), 0.02, eta_override=e),
     [1.0, 2.0, 1e200, 3.0, 1e201], 1e200),
    (lambda e: characterize(QUARTZ, GEO, ModeIndex(1), 0.02, eta_override=e),
     [1.0, 2.0, 1e-200, 3.0, 1e-201], 1e-200),
    (lambda e: characterize(QUARTZ, GEO, ModeIndex(1, 150, 0), 0.02, eta_override=e),
     [50.0, 60.0], 50.0),
    (lambda e: effective_mass(QUARTZ, GEO, ModeIndex(1, 2, 0), e, e),
     [1.0, 2.0, 1e-160, 3.0, 1e-170], 1e-160),
    (lambda e: escape_probability(ModeIndex(1), e, 1.0), [1.0, 2.0, math.nan, -1.0], math.nan),
    (lambda e: zpf(QUARTZ, GEO, ModeIndex(1, 150, 0), e, e), [50.0, 60.0], 50.0),
    (lambda e: erfcx(e), [1.0, 2.5, -1.5, 3.0, -2.0], -1.5),
]


@pytest.mark.parametrize("call, etas, bad", FAILURES)
def test_array_error_names_the_failing_point_as_its_scalar_call_does(call, etas, bad):
    with pytest.raises((ArithmeticError, ValueError)) as scalar:
        call(bad)
    with pytest.raises(scalar.type) as array:
        call(np.array(etas))
    assert str(array.value) == str(scalar.value)
    assert "np.float64" not in str(array.value)


def test_zpf_runs_the_checks_of_characterize():
    # this mode's x_zpf^2 underflows, which zpf must report, not round to 0
    with pytest.raises(ValueError, match=r"\(m, p\) = \(150, 0\) at eta = \(60.0, 60.0\)"):
        zpf(QUARTZ, GEO, ModeIndex(1, 150, 0), 60, 60)
    with pytest.raises(ValueError, match=r"\(m, p\) = \(150, 0\)"):
        characterize(QUARTZ, GEO, ModeIndex(1, 150, 0), 0.02, eta_override=60)


@pytest.mark.parametrize("geo_kwargs, eta, error, names", [
    ({"h0": 1e-300}, None, FloatingPointError, "h0 = 1e-300"),
    ({"L": 1e-200}, 10.0, FloatingPointError, "L = 1e-200"),
    ({"L": 1e200}, None, OverflowError, r"L = 1e\+200"),
    ({"L": 1e200}, 10.0, OverflowError, r"L = 1e\+200"),
])
def test_extreme_geometries_name_their_input(geo_kwargs, eta, error, names):
    geo = CavityGeometry(**{"L": 0.015, "h0": 5e-4, "R": 0.3, **geo_kwargs})
    with pytest.raises(error, match=names):
        characterize(QUARTZ, geo, ModeIndex(1), 0.02, eta_override=eta)


class TestCharacterizationCompare:
    ETAS = np.array([1.0, 2.0])

    def char(self, eta):
        return characterize(QUARTZ, GEO, ModeIndex(3), 0.02, eta_override=eta)

    def test_array_results_compare_field_by_field(self):
        a = self.char(self.ETAS)
        assert (a == self.char(self.ETAS.copy())) is True
        assert (a != self.char(np.array([1.0, 2.5]))) is True
        assert (a == self.char(np.array([1.0, 2.0, 3.0]))) is False
        assert (a == self.char(1.0)) is False
        assert (a == "not a characterization") is False

    def test_scalar_results_keep_their_hash(self):
        a, b = self.char(2.0), self.char(2.0)
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(tuple(getattr(a, f) for f in FIELDS))
        assert len({a, b, self.char(3.0)}) == 2

    def test_array_results_are_unhashable(self):
        with pytest.raises(TypeError, match="ModeCharacterization"):
            hash(self.char(self.ETAS))
