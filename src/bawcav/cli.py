"""Command-line front end.

Subcommands: characterize | sweep | electrode | membrane | paper-report |
oracle.  Each ``cmd_*`` returns its table, computed whole, so that a failure
leaves no partial output; ``main`` writes it as CSV or JSON a block of rows
at a time, so that a long sweep never holds all its text.  Numeric output
is rendered with nine significant digits and '.' decimal separators
regardless of locale, so identical inputs give byte-identical CSV/JSON.
Exit codes: 0 success, 1 failed report checks, 2 validation or usage error,
3 numerical failure (non-convergence, or a result outside the double range).
"""

from __future__ import annotations

import argparse
import collections
import csv
import io
import itertools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import report as report_mod
from .cavity import (
    CavityGeometry,
    ModeIndex,
    characterize,
    envelope_curvatures,
    escape_probability_log10,
    trapping_over_radii,
    trapping_parameters,
)
from .detection import MU_OPT_3SIGMA, design_electrode
from .material import MaterialFileError, bundled_material_path, load_material
from .membrane import MembraneSpec, compare

__all__ = ["main", "entry"]

JSON_SCHEMA_VERSION = 1
MAX_GRID_POINTS = 1_000_000  # per --eta-range / --R-range
MAX_ORACLE_SETS = 10_000  # oracle --sets, about 0.3 ms each
BLOCK_ROWS = 4096  # rows formatted and written at a time

SWEEP_COLUMNS = [
    "n", "m", "p", "eta", "chi_inv", "xi", "f_Hz", "m_eff_kg", "x_zpf_m", "p_zpf", "n_thermal",
]
CHARACTERIZE_COLUMNS = [
    "n", "m", "p", "eta_x", "eta_y", "f_Hz", "chi_inv", "log10_chi_inv", "xi",
    "m_eff_kg", "m_flat_kg", "x_zpf_m", "p_zpf", "n_thermal",
]
ELECTRODE_COLUMNS = ["n", "L_tilde_opt_m", "mu", "C0_F", "Z_closed_form_ohm", "Z_derived_ohm"]
MEMBRANE_COLUMNS = ["quantity", "cavity", "membrane"]
REPORT_COLUMNS = ["criterion", "name", "check", "measured", "expected", "tolerance", "status"]


class Table(NamedTuple):
    """A command's result: its CSV columns, its rows in blocks, and the JSON
    fields that replace the row list when the command has a layout of its
    own.

    A block has one entry per column: a 1-D array holding that column of
    each of the block's rows, or a single value all its rows share, so a
    list of plain values is a block of one row.
    """

    columns: list[str]
    blocks: list
    body: dict | None = None


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def _round9(v):
    # stable nine-significant-digit rounding for JSON payloads
    if isinstance(v, float):
        return float(f"{v:.9g}")
    return v


def _material(args):
    return load_material(args.material or bundled_material_path("quartz"))


def _geometry(args) -> CavityGeometry:
    return CavityGeometry(L=args.L, h0=args.h0, R=args.R)


def _overtones(text: str) -> list[int]:
    """The distinct overtones of a comma-separated list, in ascending order."""
    try:
        ns = {int(p) for p in text.split(",") if p.strip()}
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}") from exc
    if not ns:
        raise ValueError("--n needs at least one overtone number")
    return sorted(ns)


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"range parts must be finite, got {text!r}")
    if not step > 0:
        raise ValueError(f"range step must be positive, got {step!r}")
    steps = (stop - start) / step + 1e-9  # may overflow to +-inf
    if steps < 0:
        raise ValueError(f"range {text!r} is empty")
    if not steps < MAX_GRID_POINTS:
        raise ValueError(f"range {text!r} has more than {MAX_GRID_POINTS} points")
    # a last point beyond the double range is inf, which the caller rejects
    with np.errstate(over="ignore"):
        return start + np.arange(math.floor(steps) + 1) * step


def cmd_characterize(args) -> Table:
    mat = _material(args)
    mode = ModeIndex(args.n, args.m, args.p)
    char = characterize(mat, _geometry(args), mode, args.temp_k, eta_override=args.eta)
    log10_chi = escape_probability_log10(mode, char.eta_x, char.eta_y)
    return Table(CHARACTERIZE_COLUMNS, [[
        mode.n, mode.m, mode.p, char.eta_x, char.eta_y,
        char.omega / (2.0 * math.pi), char.chi_inv, log10_chi, char.xi,
        char.m_eff, char.m_flat, char.x_zpf, char.p_zpf, char.n_thermal,
    ]])


def cmd_sweep(args) -> Table:
    ns = _overtones(args.n)
    if (args.eta_range is None) == (args.R_range is None):
        raise ValueError("exactly one of --eta-range / --R-range is required")
    mat = _material(args)
    if args.eta_range is not None:
        geo = _geometry(args)
        grid = _parse_grid(args.eta_range)

        def trapping(n):
            return grid
    else:
        # every radius is checked as CavityGeometry checks it, before any
        # figure: the geometry is built at the first radius that fails, so
        # that it raises that radius' error, or else at the first radius.  A
        # radius enters the figures only through its (eta_x, eta_y), computed
        # over all radii at once; the rest depend on L and h0.
        radii = _parse_grid(args.R_range)
        ok = np.isfinite(radii) & (radii > 0) & (2.0 * args.h0 < radii / 10.0)
        geo = CavityGeometry(L=args.L, h0=args.h0, R=float(radii[np.argmin(ok)]))

        def trapping(n):
            return trapping_over_radii(mat, geo, n, radii)
    blocks = []
    for n in ns:
        mode = ModeIndex(n, args.m, args.p)
        char = characterize(mat, geo, mode, args.temp_k, eta_override=trapping(n))
        blocks.append([
            n, mode.m, mode.p, char.eta_x, char.chi_inv, char.xi,
            char.omega / (2.0 * math.pi), char.m_eff, char.x_zpf, char.p_zpf, char.n_thermal,
        ])
    return Table(SWEEP_COLUMNS, blocks)


def cmd_electrode(args) -> Table:
    mat = _material(args)
    geo = _geometry(args)
    rows = []
    for n in _overtones(args.n):
        eta = args.eta
        if eta is None:
            eta = trapping_parameters(*envelope_curvatures(mat, geo, n), geo.L)[0]
        design = design_electrode(mat, geo, eta, n, args.mu_opt)
        rows.append([n, design.L_tilde, design.mu, design.C0, design.Z_closed_form,
                     design.Z_shunt_mag])
    return Table(ELECTRODE_COLUMNS, rows)


def cmd_membrane(args) -> Table:
    mat = _material(args)
    spec = MembraneSpec(a=args.a, b=args.b, h=args.mem_h, tau=args.tau, rho=mat.rho,
                        mode_m=args.mem_m, mode_n=args.mem_n)
    mode = ModeIndex(args.n, args.m, args.p)
    char = characterize(mat, _geometry(args), mode, args.temp_k, eta_override=args.eta)
    rows = compare(char, spec, args.temp_k)
    return Table(MEMBRANE_COLUMNS, rows, {
        "temperature_K": _round9(args.temp_k),
        "cavity": {label: _round9(cav) for label, cav, _ in rows},
        "membrane": {label: _round9(mem) for label, _, mem in rows},
    })


def _report_table(results) -> Table:
    rows = [
        [r.cid, r.name, row.label, row.measured, row.expected, row.tolerance,
         "PASS" if row.passed else "FAIL"]
        for r in results for row in r.rows
    ]
    return Table(REPORT_COLUMNS, rows, {
        "criteria": [
            {
                "id": r.cid,
                "name": r.name,
                "passed": r.passed,
                "checks": [
                    {
                        "label": row.label,
                        "measured": _round9(row.measured),
                        "expected": _round9(row.expected),
                        "tolerance": row.tolerance,
                        "passed": row.passed,
                    }
                    for row in r.rows
                ],
            }
            for r in results
        ],
        "all_pass": all(r.passed for r in results),
    })


def cmd_paper_report(args) -> Table:
    return _report_table(
        report_mod.run_all(args.material, args.variant_material, _geometry(args))
    )


def cmd_oracle(args) -> Table:
    if args.sets > MAX_ORACLE_SETS:
        raise ValueError(f"--sets is capped at {MAX_ORACLE_SETS}, got {args.sets}")
    mat = _material(args)
    geo = _geometry(args)
    return _report_table(
        [report_mod.criterion_8(mat, geo, n_sets=args.sets), report_mod.criterion_9(mat, geo)]
    )


# each command's flags, in order, as (flag, add_argument keywords): the
# parser's declaration, which _plain_args also reads; the flags several
# commands take are declared once
_COMMON = [
    ("--material", dict(default=None, metavar="PATH",
                        help="material file (default: bundled quartz constants)")),
    ("--L", dict(type=float, default=0.015, help="plate half-width (m)")),
    ("--h0", dict(type=float, default=5e-4, help="plate half-thickness (m)")),
    ("--format", dict(choices=("csv", "json"), default="csv")),
    ("--out", dict(default="-", metavar="PATH", help="output file ('-' = stdout)")),
]
_R = ("--R", dict(type=float, default=0.3, help="radius of curvature (m)"))
_ETA = ("--eta", dict(type=float, default=None, help="override the trapping parameter (both axes)"))
_TEMP = ("--temp-k", dict(type=float, default=0.02, help="temperature (K)"))
_M_P = [
    ("--m", dict(type=int, default=0, help="in-plane number along x (even)")),
    ("--p", dict(type=int, default=0, help="in-plane number along y (even)")),
]
# --R sets the radius of an --eta-range sweep; an --R-range sweep has its own
_EXCLUSIVE = {"--R", "--R-range"}

# each command's function, its help line and its flags
COMMANDS = {
    "characterize": (cmd_characterize, "single-mode characterization row", [
        *_COMMON, _R, _ETA, _TEMP,
        ("--n", dict(type=int, default=1, help="overtone number (odd)")), *_M_P,
    ]),
    "sweep": (cmd_sweep, "characterization grid over overtones and trapping/curvature", [
        *_COMMON, _TEMP,
        ("--n", dict(default="1", metavar="LIST", help="comma-separated odd overtones")), *_M_P,
        ("--eta-range", dict(default=None, metavar="A:B:STEP")),
        _R, ("--R-range", dict(default=None, metavar="A:B:STEP")),
    ]),
    "electrode": (cmd_electrode, "optimal electrode sizing table", [
        *_COMMON, _R, _ETA,
        ("--n", dict(default="7,37,227", metavar="LIST")),
        ("--mu-opt", dict(type=float, default=MU_OPT_3SIGMA,
                          help="target overlap factor (default: 3-sigma coverage)")),
    ]),
    "membrane": (cmd_membrane, "side-by-side comparison with a stressed membrane", [
        *_COMMON, _R, _ETA, _TEMP,
        ("--n", dict(type=int, default=227)), *_M_P,
        ("--a", dict(type=float, default=0.03, help="membrane side a (m)")),
        ("--b", dict(type=float, default=0.03, help="membrane side b (m)")),
        ("--mem-h", dict(type=float, default=5e-4, help="membrane thickness (m)")),
        ("--tau", dict(type=float, default=105e9, help="membrane stress (Pa)")),
        ("--mem-m", dict(type=int, default=1, help="membrane mode number m")),
        ("--mem-n", dict(type=int, default=1, help="membrane mode number n")),
    ]),
    "paper-report": (cmd_paper_report, "check library output against published reference values", [
        *_COMMON, _R,
        ("--variant-material", dict(default=None, metavar="PATH",
                                    help="piezoelectric material file for readout checks")),
    ]),
    "oracle": (cmd_oracle, "run the brute-force validation suite", [
        *_COMMON, _R,
        ("--sets", dict(type=int, default=20, help="random parameter sets (seeded, >= 1)")),
    ]),
}


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, which main builds only for help and
    usage errors: _plain_args reads every other command line."""
    parser = argparse.ArgumentParser(
        prog="bawcav",
        description="Near-ground-state figures of curved phonon-trapping acoustic cavities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, flags) in COMMANDS.items():
        # flags are spelled in full, so that --eta cannot stand for sweep's --eta-range
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        group = p.add_mutually_exclusive_group() if _EXCLUSIVE <= dict(flags).keys() else p
        for flag, kwargs in flags:
            (group if flag in _EXCLUSIVE else p).add_argument(flag, **kwargs)
    return parser


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace _build_parser() returns for a plain command line, read
    from COMMANDS without building it; None for any other.

    A plain command line is a command followed by distinct ``--flag value``
    pairs of that command's flags, each value not starting with '-' (but
    '-' itself), converted by the flag's type and among its choices, and not
    both _EXCLUSIVE flags.  Help, usage errors and every other spelling,
    such as ``--flag=value``, are the parser's.
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) < len(argv) // 2 or _EXCLUSIVE <= given.keys():
        return None
    values = {}
    for flag, kwargs in COMMANDS[argv[0]][2]:
        text = given.pop(flag, None)
        if text is None:
            value = kwargs.get("default")
        elif text.startswith("-") and text != "-":
            return None
        else:
            try:
                value = kwargs.get("type", str)(text)
            except ValueError:
                return None
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
        values[flag[2:].replace("-", "_")] = value
    return None if given else argparse.Namespace(command=argv[0], **values)


# '%.9g' % v of doubles as fixed-width records of 24 bytes, three 8-byte
# words: '-0.000', the first significant digit and '.'; the next eight
# digits; and a slot for a ninth digit, 'e', the exponent's sign and three
# digits, and the '.0' that repr, and so json.dumps, writes after a whole
# number.  The fixed layouts of exponent e = 1..7 write a '.' after digit
# e + 1: it is shifted in at byte e of the eight digits, and the digits
# above it move up a byte, the last into the slot.  A keep-mask, picked by
# sign, layout and the number of significant digits, sets every byte that
# '%.9g' (or json.dumps) does not write to NUL, and the writer drops the
# NULs.
_BYTE = np.eye(8, dtype=np.uint8).view(np.uint64).reshape(-1)  # [i]: the word with byte i = 1


def _words(text: bytes, digits: dict) -> np.ndarray:
    # 8-byte words: text, plus at each byte i the digits of array digits[i],
    # the arrays broadcast against each other
    return sum((np.asarray(d, np.uint64) * _BYTE[i] for i, d in digits.items()),
               np.frombuffer(text, np.uint64)).reshape(-1)


def _bytes_set(at, value: int) -> np.ndarray:
    # 8-byte words with byte i = value where at[..., i]
    return (at * np.uint8(value)).view(np.uint64).reshape(-1)


def _quad_tables() -> tuple:
    # [q] for q = 0..9999: 'dddd' in bytes 0..3 and in bytes 4..7; and the
    # significant digits after the first that the eight digits have with q
    # as their last quad, or with q followed by 0000: of the two, the larger
    # is right, as only a last quad of 0 gives less than 5
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # [i, q]: digit i of q
    zeros = np.logical_and.accumulate(digits[::-1] == 0).sum(0, np.intp)  # trailing, 4 for 0
    quads = _words(b"0000\0\0\0\0", dict(enumerate(digits)))
    return quads, quads << np.uint64(32), np.where(zeros < 4, 8 - zeros, 0), 4 - zeros


_QUADS, _QUADS_HIGH, _LOW_DIGITS, _MID_DIGITS = _quad_tables()
_LEADS = _words(b"-0.0000.", {6: np.arange(10)})
_EXACT_POWERS = list(itertools.accumulate(range(170), lambda t, _: 10 * t, initial=1))
# 1e-170..1e170, each correctly rounded: int -> float and int / int round once
_POW10 = np.array([1 / t for t in _EXACT_POWERS[:0:-1]] + [float(t) for t in _EXACT_POWERS])
_EXP_MAX = 330  # beyond the decimal exponents of doubles, -324..308
_EXP = np.arange(-_EXP_MAX, _EXP_MAX + 1)
# the tables below are indexed by e + _EXP_MAX, for the exponent e
# two powers of ten whose product is 10**(8 - e)
_SCALES_LOW = _POW10[170 + (8 - _EXP) // 2]
_SCALES_HIGH = _POW10[170 + 8 - _EXP - (8 - _EXP) // 2]
# the third word, its slot for the ninth digit empty
_EXPS = _words(b"\0e+000.0", {2: 2 * (_EXP < 0), 3: abs(_EXP) // 100,  # '-' is '+' + 2
                                  4: abs(_EXP) // 10 % 10, 5: abs(_EXP) % 10})
# the bytes of the eight digits at and above the '.' shifted in at byte e,
# and that '.'; neither where the '.' is not among the eight
_POINT_AT = np.where((_EXP >= 1) & (_EXP <= 7), _EXP, 8)[:, None]
_MOVED = _bytes_set(np.arange(8) >= _POINT_AT, 0xFF)
_POINTS = _bytes_set(np.arange(8) == _POINT_AT, ord("."))
_LAYOUTS = 15  # fixed with exponent -4..8, exponent form with 2 or 3 digits
_LAYOUT_KEYS = 9 * np.where((_EXP >= -4) & (_EXP < 9), _EXP + 4, np.where(abs(_EXP) < 100, 13, 14))


def _keep_masks() -> tuple[np.ndarray, np.ndarray]:
    # [sign * 9 * _LAYOUTS + 9 * layout + significant digits - 1] -> 24
    # bytes, 0xFF where '%.9g' writes the record's byte; and the same for
    # JSON, which also keeps the '.0' of whole numbers, which have neither
    # '.' nor 'e'
    layout, digits = np.ix_(range(_LAYOUTS), range(1, 10))
    exp, fixed = layout - 4, layout < 13  # the exponent of a fixed layout
    shown = np.where(fixed, np.maximum(digits, exp + 1), digits)  # digits before the 'e'
    keep = np.zeros((2, _LAYOUTS, 9, 24), bool)
    keep[1, ..., 0] = True  # '-'
    keep[..., 1:6] = ((layout < 4) & (np.arange(1, 6) < 2 - exp))[:, None]  # '0.000'
    keep[..., [6, *range(8, 16)]] = np.arange(1, 10) <= shown[..., None]
    keep[..., 7] = (~fixed | (exp == 0)) & (digits > 1)  # the '.' after the first digit
    for e in range(1, 8):  # the '.' after digit e + 1, shifted in at byte 8 + e
        keep[:, e + 4, :, 9 + e:17] = keep[:, e + 4, :, 8 + e:16]
        keep[:, e + 4, :, 8 + e] = digits[0] > e + 1
    keep[..., 17:22] = (~fixed & ((np.arange(17, 22) != 19) | (layout == 14)))[:, None]
    finished = keep.copy()
    finished[..., 22:24] = (fixed & (exp >= 0) & (digits <= exp + 1))[..., None]  # '.0'
    return tuple((k * np.uint8(0xFF)).reshape(-1, 24).view(np.uint64) for k in (keep, finished))


_KEEP, _KEEP_JSON = _keep_masks()


def _g9(x, as_json: bool) -> np.ndarray:
    """'%.9g' % v of each element v of x, or with as_json the text
    json.dumps writes for v rounded to nine digits, as NUL-padded bytes
    (dtype S24).

    The digits come from s = |v| 10**(8 - e), rounded, where e is the
    floor of log10 |v|; the two powers of ten that make 10**(8 - e) are
    each correctly rounded, so s is off by at most four roundings, below
    4.5e-7.  Where that could decide the rounding, because s lies within
    1e-6 of a tie, and for non-finite and subnormal values, Python's '%'
    (or _json_value) makes the cell.  Where log10 rounds across a power of
    ten, v lies within 1e-15 of it, and s rounds to 1e8 or 1e9: both are
    that power.  The first digit picks the record's first word, the next
    eight are two 4-digit lookups in the second, and e picks the third and
    where, if anywhere, a '.' goes among the eight.

    json.dumps writes the digits of '%.9g' in its layout, with '.0' after a
    whole number, but for non-finite values, subnormals, whose repr has
    fewer digits, and |v| >= 1e8, where repr writes up to 1e16 without an
    exponent: _json_value makes those cells, each at most 24 bytes.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    mag = np.abs(flat)
    with np.errstate(invalid="ignore"):  # NaN is not normal
        normal = (mag >= sys.float_info.min) & (mag <= sys.float_info.max)
    zero = mag == 0.0
    redo = ~(normal | zero)
    np.copyto(mag, 1.0, where=~normal)
    if as_json:
        redo |= mag >= 1e8
    exp = np.floor(np.log10(mag)).astype(np.intp)
    exp += _EXP_MAX  # as an index of the exponent tables
    s = mag * np.take(_SCALES_LOW, exp)
    s *= np.take(_SCALES_HIGH, exp)
    r = np.rint(s, out=mag)
    redo |= np.abs(np.subtract(s, r, out=s), out=s) > 0.5 - 1e-6  # within 1e-6 of a tie
    redo = np.flatnonzero(redo)
    carry = r >= 1e9  # 999999999.5 and up round to the next decade
    exp += carry
    np.copyto(r, 1e8, where=carry)
    np.copyto(r, 0.0, where=zero)  # whose exponent is that of 1.0
    low = r.astype(np.intp)
    mid = low // 10000  # '%' costs several times '//' on numpy integers
    low -= mid * 10000
    lead = mid // 10000
    mid -= lead * 10000
    key = np.take(_LAYOUT_KEYS, exp)
    key += np.maximum(np.take(_LOW_DIGITS, low), np.take(_MID_DIGITS, mid))
    np.add(key, 9 * _LAYOUTS, out=key, where=np.signbit(flat))
    words = np.take(_KEEP_JSON if as_json else _KEEP, key, axis=0)
    words[:, 0] &= np.take(_LEADS, lead)
    eight = np.take(_QUADS, mid)
    eight |= np.take(_QUADS_HIGH, low)
    moved = np.take(_MOVED, exp)
    moved &= eight
    eight ^= moved
    eight |= np.take(_POINTS, exp)
    words[:, 2] &= np.take(_EXPS, exp) | moved >> np.uint64(56)
    moved <<= np.uint64(8)
    eight |= moved
    words[:, 1] &= eight
    cells = words.view("S24")[:, 0]
    for i in redo.tolist():
        v = flat[i].item()
        cells[i] = _json_value(v).encode() if as_json else b"%.9g" % v
    return cells.reshape(x.shape)


def _records(columns: list, as_json: bool) -> list:
    # each column's cells: an integer column's %d, and those of all the
    # other columns from one _g9 call
    floats = [c for c in columns if c.dtype.kind not in "iu"]
    made = iter(_g9(np.stack(floats, axis=-1), as_json).T if floats else ())
    return [c.astype("S") if c.dtype.kind in "iu" else next(made) for c in columns]


def _cell_chunks(table: Table, as_json: bool):
    """Each block, with the cells of its array columns BLOCK_ROWS rows at a
    time: (block, first row, records per array column).

    An array in more than one block, as an --eta-range sweep's eta column
    is in every overtone's block, is formatted whole once and sliced; a
    block without an array column is one row.
    """
    counts = collections.Counter(
        id(v) for block in table.blocks for v in block if isinstance(v, np.ndarray)
    )
    shared = {}
    for block in table.blocks:
        arrays = [v for v in block if isinstance(v, np.ndarray)]
        for a in arrays:
            if counts[id(a)] > 1 and id(a) not in shared:
                shared[id(a)] = _records([a], as_json)[0]
        own = [a for a in arrays if id(a) not in shared]
        for lo in range(0, len(arrays[0]) if arrays else 1, BLOCK_ROWS):
            hi = lo + BLOCK_ROWS
            made = iter(_records([a[lo:hi] for a in own], as_json))
            yield block, lo, [shared[id(a)][lo:hi] if id(a) in shared else next(made)
                              for a in arrays]


def _rows(texts: list[bytes], cells: list) -> str:
    # one row per record: texts[0], cells[0], texts[1], ..., cells[-1],
    # texts[-1], with the records' NULs dropped; without cells, one row
    if not cells:
        return texts[0].decode()
    parts = [p for pair in zip(texts, cells + [b""]) for p in pair if len(p)]  # no empty field
    # the rows are laid out in a bytearray, which translate reads as it is:
    # a bytes copy of them would be one more large block for the chunk
    dtype = np.dtype([(f"f{i}", f"S{len(p) if isinstance(p, bytes) else p.dtype.itemsize}")
                      for i, p in enumerate(parts)])
    text = bytearray(len(cells[0]) * dtype.itemsize)
    rows = np.frombuffer(text, dtype)
    for i, p in enumerate(parts):
        rows[f"f{i}"] = p
    return text.translate(None, b"\0").decode()


def _csv_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


_ARRAY_CELL = "\x1f"  # stands for each array cell in the text written around them


def _texts(columns: list[str], block, as_json: bool) -> list[bytes]:
    # the text of the block's rows before, between and after its array
    # cells: the row csv.writer writes, or the row object json.dumps(indent=2)
    # writes in a "rows" list, with a ',' before it, split at the array cells
    cells = [_ARRAY_CELL if isinstance(v, np.ndarray) else v for v in block]
    if as_json:
        row = json.dumps(dict(zip(columns, map(_round9, cells))), indent=2).replace("\n", "\n    ")
        return (",\n    " + row).encode().split(json.dumps(_ARRAY_CELL).encode())
    return _csv_line(map(_fmt, cells)).encode().split(_ARRAY_CELL.encode())


def _json_value(v) -> str:
    # one cell as json.dumps writes it
    return json.dumps(_round9(v))


def _text(table: Table, command: str, as_json: bool):
    """The table as CSV, or as JSON byte-identical to json.dumps(indent=2),
    BLOCK_ROWS rows at a time."""
    if not as_json:
        yield _csv_line(table.columns)
    else:
        head = {"schema_version": JSON_SCHEMA_VERSION, "command": command}
        if table.body is not None:
            yield json.dumps({**head, **table.body}, indent=2) + "\n"
            return
        yield json.dumps({**head, "rows": []}, indent=2)[:-3]  # up to the '['
    skip = as_json  # the ',' before the first row object
    for block, lo, cells in _cell_chunks(table, as_json):
        if lo == 0:
            texts = _texts(table.columns, block, as_json)
        yield _rows(texts, cells)[skip:]
        skip = False
    if as_json:
        yield "]\n}\n" if skip else "\n  ]\n}\n"


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or _build_parser().parse_args(argv)
    try:
        table = COMMANDS[args.command][0](args)
        parts = _text(table, args.command, args.format == "json")
        if args.out == "-":
            sys.stdout.writelines(parts)
        else:
            with Path(args.out).open("w") as fh:
                fh.writelines(parts)
    except BrokenPipeError:
        raise  # the reader has gone, which is not a usage error: entry() exits 141
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MaterialFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a report exits 1 on a failed check and, written to a file, still
    # shows each criterion's outcome on stdout
    criteria = (table.body or {}).get("criteria", [])
    if args.out != "-":
        for c in criteria:
            print(f"[{'PASS' if c['passed'] else 'FAIL'}] criterion {c['id']}: {c['name']}")
    return 0 if all(c["passed"] for c in criteria) else 1


def entry():  # console-script hook
    try:
        sys.exit(main())
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; suppress the
        # shutdown-flush traceback and exit with the conventional code
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)


if __name__ == "__main__":
    entry()
