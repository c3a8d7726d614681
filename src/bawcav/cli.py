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
    rows = compare(char, spec, args.temp_k).rows()
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


COMMANDS = {
    "characterize": cmd_characterize,
    "sweep": cmd_sweep,
    "electrode": cmd_electrode,
    "membrane": cmd_membrane,
    "paper-report": cmd_paper_report,
    "oracle": cmd_oracle,
}


# the flag groups commands share, each added to a parser or group of one
def _common(p):
    p.add_argument("--material", default=None, metavar="PATH",
                   help="material file (default: bundled quartz constants)")
    p.add_argument("--L", type=float, default=0.015, help="plate half-width (m)")
    p.add_argument("--h0", type=float, default=5e-4, help="plate half-thickness (m)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-", metavar="PATH", help="output file ('-' = stdout)")


def _radius(container):
    container.add_argument("--R", type=float, default=0.3, help="radius of curvature (m)")


def _eta(p):
    p.add_argument("--eta", type=float, default=None,
                   help="override the trapping parameter (both axes)")


def _temp(p):
    p.add_argument("--temp-k", type=float, default=0.02, help="temperature (K)")


def _characterize_flags(p):
    _common(p)
    _radius(p)
    _eta(p)
    _temp(p)
    p.add_argument("--n", type=int, default=1, help="overtone number (odd)")
    p.add_argument("--m", type=int, default=0, help="in-plane number along x (even)")
    p.add_argument("--p", type=int, default=0, help="in-plane number along y (even)")


def _sweep_flags(p):
    _common(p)
    _temp(p)
    p.add_argument("--n", default="1", metavar="LIST", help="comma-separated odd overtones")
    p.add_argument("--m", type=int, default=0, help="in-plane number along x (even)")
    p.add_argument("--p", type=int, default=0, help="in-plane number along y (even)")
    p.add_argument("--eta-range", default=None, metavar="A:B:STEP")
    # --R sets the radius of an --eta-range sweep; an --R-range sweep has its own
    radii = p.add_mutually_exclusive_group()
    _radius(radii)
    radii.add_argument("--R-range", default=None, metavar="A:B:STEP")


def _electrode_flags(p):
    _common(p)
    _radius(p)
    _eta(p)
    p.add_argument("--n", default="7,37,227", metavar="LIST")
    p.add_argument("--mu-opt", type=float, default=MU_OPT_3SIGMA,
                   help="target overlap factor (default: 3-sigma coverage)")


def _membrane_flags(p):
    _common(p)
    _radius(p)
    _eta(p)
    _temp(p)
    p.add_argument("--n", type=int, default=227)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--a", type=float, default=0.03, help="membrane side a (m)")
    p.add_argument("--b", type=float, default=0.03, help="membrane side b (m)")
    p.add_argument("--mem-h", type=float, default=5e-4, help="membrane thickness (m)")
    p.add_argument("--tau", type=float, default=105e9, help="membrane stress (Pa)")
    p.add_argument("--mem-m", type=int, default=1, help="membrane mode number m")
    p.add_argument("--mem-n", type=int, default=1, help="membrane mode number n")


def _paper_report_flags(p):
    _common(p)
    _radius(p)
    p.add_argument("--variant-material", default=None, metavar="PATH",
                   help="piezoelectric material file for readout checks")


def _oracle_flags(p):
    _common(p)
    _radius(p)
    p.add_argument("--sets", type=int, default=20, help="random parameter sets (seeded, >= 1)")


# each command's help line and the function that adds its flags
_SUBPARSERS = {
    "characterize": ("single-mode characterization row", _characterize_flags),
    "sweep": ("characterization grid over overtones and trapping/curvature", _sweep_flags),
    "electrode": ("optimal electrode sizing table", _electrode_flags),
    "membrane": ("side-by-side comparison with a stressed membrane", _membrane_flags),
    "paper-report": ("check library output against published reference values",
                     _paper_report_flags),
    "oracle": ("run the brute-force validation suite", _oracle_flags),
}


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of only ``command`` if it names one.

    A one-command parser names all the commands in its usage line, so that
    its usage errors read as the full parser's do.
    """
    parser = argparse.ArgumentParser(
        prog="bawcav",
        description="Near-ground-state figures of curved phonon-trapping acoustic cavities.",
    )
    one = command in COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}" if one else None)
    for name in [command] if one else COMMANDS:
        help, add_flags = _SUBPARSERS[name]
        # flags are spelled in full, so that --eta cannot stand for sweep's --eta-range
        add_flags(sub.add_parser(name, help=help, allow_abbrev=False))
    return parser


# '%.9g' % v of doubles as fixed-width records of 32 bytes, four 8-byte
# words: '-0.000' and the first significant digit, the next eight digits,
# each followed by '.', and 'e', the exponent's sign and three digits.  A
# keep-mask, picked by sign, layout and the number of significant digits,
# sets every byte that '%.9g' does not write to NUL, and the writers drop
# the NULs.
_EXACT_POWERS = list(itertools.accumulate(range(160), lambda t, _: 10 * t, initial=1))
# 1e-160..1e160, each correctly rounded: int -> float and int / int round once
_POW10 = np.array([1 / t for t in _EXACT_POWERS[:0:-1]] + [float(t) for t in _EXACT_POWERS])
_BYTE = np.eye(8, dtype=np.uint8).view(np.uint64).reshape(-1)  # [i]: the word with byte i = 1


def _words(text: bytes, digits: dict) -> np.ndarray:
    # 8-byte words: text, plus at each byte i the digits of array digits[i],
    # the arrays broadcast against each other
    return sum((np.asarray(d, np.uint64) * _BYTE[i] for i, d in digits.items()),
               np.frombuffer(text, np.uint64)).reshape(-1)


_TENS_DIGIT, _ONES_DIGIT = divmod(np.arange(100), 10)  # of the pairs 00..99
_QUADS = (_words(b"0.0.0.0.", {0: _TENS_DIGIT, 2: _ONES_DIGIT})[:, None]
          + _words(bytes(8), {4: _TENS_DIGIT, 6: _ONES_DIGIT})).reshape(-1)  # [q]: 'd.d.d.d.'
_PAIR_ZEROS = (_ONES_DIGIT == 0) * (1 + (_TENS_DIGIT == 0))  # trailing zeros, 2 for 00
_QUAD_ZEROS = np.where(_ONES_DIGIT + _TENS_DIGIT == 0, 2 + _PAIR_ZEROS[:, None],
                       _PAIR_ZEROS).reshape(-1)  # [q]: trailing zeros, 4 for 0
_LEADS = _words(b"-0.0000.", {6: np.arange(10)})
_EXP_MAX = 330  # beyond the decimal exponents of doubles, -324..308
_EXP = np.arange(-_EXP_MAX, _EXP_MAX + 1)
_EXPS = _words(b"e+000\0\0\0", {1: 2 * (_EXP < 0), 2: abs(_EXP) // 100,  # '-' is '+' + 2
                                  3: abs(_EXP) // 10 % 10, 4: abs(_EXP) % 10})
_LAYOUTS = 15  # fixed with exponent -4..8, exponent form with 2 or 3 digits
_LAYOUT_KEYS = 9 * np.where((_EXP >= -4) & (_EXP < 9), _EXP + 4, np.where(abs(_EXP) < 100, 13, 14))


def _keep_masks() -> np.ndarray:
    # [sign * 9 * _LAYOUTS + 9 * layout + significant digits - 1] -> 32
    # bytes, 0xFF where '%.9g' writes the record's byte
    layout, digits = np.ix_(range(_LAYOUTS), range(1, 10))
    exp, fixed = layout - 4, layout < 13  # the exponent of a fixed layout
    shown = np.where(fixed, np.maximum(digits, exp + 1), digits)  # digits before the 'e'
    point = np.where(fixed, exp + 1, 1)  # the digit the '.' follows, if any
    keep = np.zeros((2, _LAYOUTS, 9, 32), bool)
    keep[1, ..., 0] = True  # '-'
    keep[..., 1:6] = ((layout < 4) & (np.arange(1, 6) < 2 - exp))[:, None]  # '0.000'
    keep[..., 6:24:2] = np.arange(1, 10) <= shown[..., None]
    keep[..., 7:24:2] = (np.arange(1, 10) == point[..., None]) & (digits > point)[..., None]
    keep[..., 24:29] = (~fixed & ((np.arange(24, 29) != 26) | (layout == 14)))[:, None]
    return (keep * np.uint8(0xFF)).reshape(-1, 32).view(np.uint64)


_KEEP = _keep_masks()


def _g9(x) -> np.ndarray:
    """'%.9g' % v of each element v of x, as NUL-padded bytes (dtype S32).

    The digits come from s = |v| 10**(8 - e), rounded, where e is the
    floor of log10 |v|; the two powers of ten that make 10**(8 - e) are
    each correctly rounded, so s is off by at most four roundings, below
    4.5e-7.  Where that could decide the rounding, because s lies within
    1e-6 of a tie, and for non-finite and subnormal values, Python's '%'
    makes the cell.  Where log10 rounds across a power of ten, v lies
    within 1e-15 of it, and s rounds to 1e8 or 1e9: both are that power.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    mag = np.abs(flat)
    with np.errstate(invalid="ignore"):  # NaN is not normal
        normal = (mag >= sys.float_info.min) & (mag <= sys.float_info.max)
    zero = mag == 0.0
    mag = np.where(normal, mag, 1.0)
    exp = np.floor(np.log10(mag)).astype(np.intp)
    k = 8 - exp
    s = mag * np.take(_POW10, 160 + k // 2) * np.take(_POW10, 160 + k - k // 2)
    unsure = np.flatnonzero(~(normal | zero) | (np.abs(s - np.floor(s) - 0.5) < 1e-6))
    r = np.rint(s)
    carry = r >= 1e9  # 999999999.5 and up round to the next decade
    exp = np.where(zero, 0, exp + carry) + _EXP_MAX  # as an index of _EXPS
    r = np.where(zero, 0, np.where(carry, 1e8, r)).astype(np.intp)
    lead, mid, low = r // 100000000, r // 10000 % 10000, r % 10000
    zeros = np.take(_QUAD_ZEROS, low) + (low == 0) * np.take(_QUAD_ZEROS, mid)  # 8 for 0
    key = np.signbit(flat) * (9 * _LAYOUTS) + np.take(_LAYOUT_KEYS, exp) + (8 - zeros)
    words = np.empty((flat.size, 4), np.uint64)
    words[:, 0] = np.take(_LEADS, lead)
    words[:, 1] = np.take(_QUADS, mid)
    words[:, 2] = np.take(_QUADS, low)
    words[:, 3] = np.take(_EXPS, exp)
    words &= np.take(_KEEP, key, axis=0)
    cells = words.view("S32")[:, 0]
    for i in unsure.tolist():
        cells[i] = b"%.9g" % flat[i]
    return cells.reshape(x.shape)


def _records(columns: list) -> list:
    # each column's cells: an integer column's %d, and '%.9g' of all the
    # other columns from one _g9 call
    floats = [c for c in columns if c.dtype.kind not in "iu"]
    made = iter(_g9(np.stack(floats, axis=-1)).T if floats else ())
    return [c.astype("S") if c.dtype.kind in "iu" else next(made) for c in columns]


def _cell_chunks(table: Table):
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
                shared[id(a)] = _records([a])[0]
        own = [a for a in arrays if id(a) not in shared]
        for lo in range(0, len(arrays[0]) if arrays else 1, BLOCK_ROWS):
            hi = lo + BLOCK_ROWS
            made = iter(_records([a[lo:hi] for a in own]))
            yield block, lo, [shared[id(a)][lo:hi] if id(a) in shared else next(made)
                              for a in arrays]


def _rows(texts: list[bytes], cells: list) -> str:
    # one row per record: texts[0], cells[0], texts[1], ..., cells[-1],
    # texts[-1], with the records' NULs dropped
    parts = [p for pair in zip(texts, cells + [b""]) for p in pair if len(p)]  # no empty field
    rows = np.empty(len(cells[0]),
                    [(f"f{i}", f"S{len(p) if isinstance(p, bytes) else p.dtype.itemsize}")
                     for i, p in enumerate(parts)])
    for i, p in enumerate(parts):
        rows[f"f{i}"] = p
    return rows.tobytes().translate(None, b"\0").decode()


def _csv_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def _csv_texts(block) -> list[bytes]:
    # the text of the block's rows before, between and after its array
    # cells, each other cell quoted as csv.writer quotes it in a row
    texts = [""]
    for i, v in enumerate(block):
        texts[-1] += "," if i else ""
        if isinstance(v, np.ndarray):
            texts.append("")
        else:
            texts[-1] += _csv_line([_fmt(v), ""])[:-2]  # a field among others
    texts[-1] += "\n"
    return [t.encode() for t in texts]


def _csv_text(table: Table):
    yield _csv_line(table.columns)
    for block, lo, cells in _cell_chunks(table):
        if not cells:  # a block without array columns is one row
            yield _csv_line(map(_fmt, block))
            continue
        if lo == 0:
            texts = _csv_texts(block)
        yield _rows(texts, cells)


def _json_value(v) -> str:
    # one cell as json.dumps writes it
    return json.dumps(_round9(v))


def _json_cells(a: np.ndarray, records: np.ndarray) -> list[str]:
    # _json_value of each element of a, from its records: %.9g prints the
    # nine-digit value with the very digits repr gives it, laid out alike
    # but for the '.0' repr adds to whole numbers.  Where more differs --
    # repr prints subnormals with fewer digits, and %.9g writes 1e9 to 1e16
    # with an exponent -- and for non-finite values, _json_value makes the
    # cell.
    if a.dtype.kind != "f":
        return [_json_value(v) for v in a.tolist()]
    cells = _rows([b"", b"\n"], [records]).split("\n")[:-1]
    cells = [c if "." in c or "e" in c else c + ".0" for c in cells]
    mag = np.abs(a)
    with np.errstate(invalid="ignore"):
        plain = (mag < 1e8) & ((mag >= sys.float_info.min) | (mag == 0.0))
    for i in np.flatnonzero(~plain).tolist():
        cells[i] = _json_value(a[i].item())
    return cells


def _json_text(table: Table, command: str):
    head = {"schema_version": JSON_SCHEMA_VERSION, "command": command}
    if table.body is not None:
        yield json.dumps({**head, **table.body}, indent=2) + "\n"
        return
    # the bytes json.dumps(indent=2) writes for a "rows" list of row objects
    yield json.dumps(head, indent=2)[:-2] + ',\n  "rows": ['
    sep = "\n    "
    for block, lo, cells in _cell_chunks(table):
        if lo == 0:
            template = "{\n" + ",\n".join(
                f"      {json.dumps(c)}: ".replace("%", "%%")
                + ("%s" if isinstance(v, np.ndarray) else _json_value(v).replace("%", "%%"))
                for c, v in zip(table.columns, block)
            ) + "\n    }"
            arrays = [v for v in block if isinstance(v, np.ndarray)]
        rows = zip(*(_json_cells(a[lo:lo + BLOCK_ROWS], c) for a, c in zip(arrays, cells)))
        yield sep + ",\n    ".join(template % row for row in (rows if arrays else [()]))
        sep = ",\n    "
    yield "]\n}\n" if sep == "\n    " else "\n  ]\n}\n"


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        table = COMMANDS[args.command](args)
        if args.format == "csv":
            parts = _csv_text(table)
        else:
            parts = _json_text(table, args.command)
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
