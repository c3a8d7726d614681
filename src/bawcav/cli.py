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
import functools
import io
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
MAX_ORACLE_SETS = 10_000  # oracle --sets, about 2 ms each
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--material", default=None, metavar="PATH",
                        help="material file (default: bundled quartz constants)")
    common.add_argument("--L", type=float, default=0.015, help="plate half-width (m)")
    common.add_argument("--h0", type=float, default=5e-4, help="plate half-thickness (m)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default="-", metavar="PATH", help="output file ('-' = stdout)")
    eta = argparse.ArgumentParser(add_help=False)
    eta.add_argument("--eta", type=float, default=None,
                     help="override the trapping parameter (both axes)")
    temp = argparse.ArgumentParser(add_help=False)
    temp.add_argument("--temp-k", type=float, default=0.02, help="temperature (K)")

    def radius(container):
        container.add_argument("--R", type=float, default=0.3, help="radius of curvature (m)")

    curved = argparse.ArgumentParser(add_help=False)
    radius(curved)

    parser = argparse.ArgumentParser(
        prog="bawcav",
        description="Near-ground-state figures of curved phonon-trapping acoustic cavities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags are spelled in full, so that --eta cannot stand for sweep's --eta-range
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("characterize", parents=[common, curved, eta, temp],
                       help="single-mode characterization row")
    p.add_argument("--n", type=int, default=1, help="overtone number (odd)")
    p.add_argument("--m", type=int, default=0, help="in-plane number along x (even)")
    p.add_argument("--p", type=int, default=0, help="in-plane number along y (even)")

    p = add("sweep", parents=[common, temp],
                       help="characterization grid over overtones and trapping/curvature")
    p.add_argument("--n", default="1", metavar="LIST", help="comma-separated odd overtones")
    p.add_argument("--m", type=int, default=0, help="in-plane number along x (even)")
    p.add_argument("--p", type=int, default=0, help="in-plane number along y (even)")
    p.add_argument("--eta-range", default=None, metavar="A:B:STEP")
    # --R sets the radius of an --eta-range sweep; an --R-range sweep has its own
    radii = p.add_mutually_exclusive_group()
    radius(radii)
    radii.add_argument("--R-range", default=None, metavar="A:B:STEP")

    p = add("electrode", parents=[common, curved, eta], help="optimal electrode sizing table")
    p.add_argument("--n", default="7,37,227", metavar="LIST")
    p.add_argument("--mu-opt", type=float, default=MU_OPT_3SIGMA,
                   help="target overlap factor (default: 3-sigma coverage)")

    p = add("membrane", parents=[common, curved, eta, temp],
                       help="side-by-side comparison with a stressed membrane")
    p.add_argument("--n", type=int, default=227)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--a", type=float, default=0.03, help="membrane side a (m)")
    p.add_argument("--b", type=float, default=0.03, help="membrane side b (m)")
    p.add_argument("--mem-h", type=float, default=5e-4, help="membrane thickness (m)")
    p.add_argument("--tau", type=float, default=105e9, help="membrane stress (Pa)")
    p.add_argument("--mem-m", type=int, default=1, help="membrane mode number m")
    p.add_argument("--mem-n", type=int, default=1, help="membrane mode number n")

    p = add("paper-report", parents=[common, curved],
                       help="check library output against published reference values")
    p.add_argument("--variant-material", default=None, metavar="PATH",
                   help="piezoelectric material file for readout checks")

    p = add("oracle", parents=[common, curved],
                       help="run the brute-force validation suite")
    p.add_argument("--sets", type=int, default=20, help="random parameter sets (seeded, >= 1)")
    return parser


def _spec(a: np.ndarray) -> str:
    # the %-format of a column of ints or of floats
    return "%d" if a.dtype.kind in "iu" else "%.9g"


def _shared_cells(blocks, cells) -> dict:
    # cells(a), made once, by the id of each array a that appears in more
    # than one block, as an --eta-range sweep's eta column does in every
    # overtone's block
    arrays = [v for block in blocks for v in block if isinstance(v, np.ndarray)]
    counts = collections.Counter(map(id, arrays))
    unique = {id(a): a for a in arrays}
    return {k: cells(a) for k, a in unique.items() if counts[k] > 1}


def _chunks(block, cells, shared):
    # The rows of the block's array columns, BLOCK_ROWS at a time, each
    # column turned into its cells by cells(array), or sliced from its
    # cells in shared; a block without an array column is one row.
    arrays = [v for v in block if isinstance(v, np.ndarray)]
    if not arrays:
        yield [()]
        return
    for lo in range(0, len(arrays[0]), BLOCK_ROWS):
        hi = lo + BLOCK_ROWS
        yield zip(*(shared[id(a)][lo:hi] if id(a) in shared else cells(a[lo:hi])
                    for a in arrays))


def _formatted(a: np.ndarray) -> list[str]:
    # each element of a column of ints or floats as its CSV cell
    values = a.tolist()
    return ((_spec(a) + "\n") * len(values) % tuple(values)).split("\n")[:-1]


def _csv_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def _csv_text(table: Table):
    yield _csv_line(table.columns)
    shared = _shared_cells(table.blocks, _formatted)
    for block in table.blocks:
        # one %-template, quoted by csv.writer, makes each row: a value all
        # rows share goes in as its cell with % doubled, an array as its
        # %-format, or as %s when it is in more than one block (shared cells)
        template = _csv_line(
            ("%s" if id(v) in shared else _spec(v)) if isinstance(v, np.ndarray)
            else _fmt(v).replace("%", "%%")
            for v in block
        )
        for rows in _chunks(block, np.ndarray.tolist, shared):
            yield "".join(template % row for row in rows)


def _json_value(v) -> str:
    # one cell as json.dumps writes it
    return json.dumps(_round9(v))


def _json_cells(a: np.ndarray) -> list[str]:
    # _json_value of each element, with no repr per element for floats:
    # %.9g prints the nine-digit value with the very digits repr gives it,
    # laid out alike but for the '.0' repr adds to whole numbers.  Where
    # more differs -- repr prints subnormals with fewer digits, and %.9g
    # writes 1e9 to 1e16 with an exponent -- and for non-finite values,
    # _json_value makes the cell.
    values = a.tolist()
    if a.dtype.kind != "f":
        return [_json_value(v) for v in values]
    cells = ("%.9g\n" * len(values) % tuple(values)).split("\n")
    cells = [c if "." in c or "e" in c else c + ".0" for c in cells[:-1]]
    mag = np.abs(a)
    with np.errstate(invalid="ignore"):
        plain = (mag < 1e8) & ((mag >= sys.float_info.min) | (mag == 0.0))
    for i in np.flatnonzero(~plain).tolist():
        cells[i] = _json_value(values[i])
    return cells


def _json_text(table: Table, command: str):
    head = {"schema_version": JSON_SCHEMA_VERSION, "command": command}
    if table.body is not None:
        yield json.dumps({**head, **table.body}, indent=2) + "\n"
        return
    # the bytes json.dumps(indent=2) writes for a "rows" list of row objects
    yield json.dumps(head, indent=2)[:-2] + ',\n  "rows": ['
    sep = "\n    "
    shared = _shared_cells(table.blocks, _json_cells)
    for block in table.blocks:
        template = "{\n" + ",\n".join(
            f"      {json.dumps(c)}: ".replace("%", "%%")
            + ("%s" if isinstance(v, np.ndarray) else _json_value(v).replace("%", "%%"))
            for c, v in zip(table.columns, block)
        ) + "\n    }"
        for rows in _chunks(block, _json_cells, shared):
            yield sep + ",\n    ".join(template % row for row in rows)
            sep = ",\n    "
    yield "]\n}\n" if sep == "\n    " else "\n  ]\n}\n"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
