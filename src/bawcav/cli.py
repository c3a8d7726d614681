"""Command-line front end.

Subcommands: characterize | sweep | electrode | membrane | paper-report |
oracle.  Numeric output is rendered with nine significant digits and '.'
decimal separators regardless of locale, so identical inputs give
byte-identical CSV/JSON.  Exit codes: 0 success, 1 failed report checks,
2 validation or usage error, 3 numerical failure (non-convergence, or a
result outside the double range).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import report as report_mod
from .cavity import (
    CavityGeometry,
    ModeIndex,
    characterize,
    envelope_curvatures,
    escape_probability_log10,
    trapping_parameters,
)
from .detection import MU_OPT_3SIGMA, design_electrode, shunt_impedance
from .material import MaterialFileError, bundled_material_path, load_material
from .membrane import MembraneSpec, compare

__all__ = ["main", "entry", "RunConfig"]

JSON_SCHEMA_VERSION = 1
MAX_GRID_POINTS = 1_000_000  # per --eta-range / --R-range

SWEEP_COLUMNS = [
    "n", "m", "p", "eta", "chi_inv", "xi", "f_Hz", "m_eff_kg", "x_zpf_m", "p_zpf", "n_thermal",
]
CHARACTERIZE_COLUMNS = [
    "n", "m", "p", "eta_x", "eta_y", "f_Hz", "chi_inv", "log10_chi_inv", "xi",
    "m_eff_kg", "m_flat_kg", "x_zpf_m", "p_zpf", "n_thermal",
]
ELECTRODE_COLUMNS = ["n", "L_tilde_opt_m", "mu", "C0_F", "Z_closed_form_ohm", "Z_derived_ohm"]


@dataclass(frozen=True)
class RunConfig:
    """Validated run inputs shared by all subcommands."""

    material_file: Path
    L: float
    h0: float
    R: float
    L_tilde: float | None
    eta_override: float | None
    temperature: float
    output_format: str
    output_path: str

    def __post_init__(self):
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.output_format!r}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature!r}")
        if self.eta_override is not None and not self.eta_override > 0:
            raise ValueError(f"eta override must be positive, got {self.eta_override!r}")

    def geometry(self) -> CavityGeometry:
        return CavityGeometry(L=self.L, h0=self.h0, R=self.R, L_tilde=self.L_tilde)

    def material(self):
        return load_material(self.material_file)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def _round9(v):
    # stable nine-significant-digit rounding for JSON payloads
    if isinstance(v, float):
        return float(f"{v:.9g}")
    return v


def _csv_text(columns: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _emit(config: RunConfig, text: str):
    if config.output_path == "-":
        sys.stdout.write(text)
    else:
        Path(config.output_path).write_text(text)


def _rows_payload(command: str, columns: list[str], rows: list[list]) -> dict:
    return {
        "schema_version": JSON_SCHEMA_VERSION,
        "command": command,
        "rows": [
            {c: _round9(v) for c, v in zip(columns, row)}
            for row in rows
        ],
    }


def _characterize_row(config: RunConfig, mode: ModeIndex) -> list:
    mat = config.material()
    geo = config.geometry()
    char = characterize(mat, geo, mode, config.temperature, eta_override=config.eta_override)
    log10_chi = escape_probability_log10(mode, char.eta_x, char.eta_y)
    return [
        mode.n, mode.m, mode.p, char.eta_x, char.eta_y,
        char.omega / (2.0 * math.pi), char.chi_inv, log10_chi, char.xi,
        char.m_eff, char.m_flat, char.x_zpf, char.p_zpf, char.n_thermal,
    ]


def cmd_characterize(config: RunConfig, mode: ModeIndex) -> int:
    row = _characterize_row(config, mode)
    if config.output_format == "csv":
        _emit(config, _csv_text(CHARACTERIZE_COLUMNS, [row]))
    else:
        _emit(config, _json_text(_rows_payload("characterize", CHARACTERIZE_COLUMNS, [row])))
    return 0


def _parse_grid(text: str) -> list[float]:
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
    return [start + i * step for i in range(math.floor(steps) + 1)]


def cmd_sweep(
    config: RunConfig,
    ns: list[int],
    eta_grid: list[float] | None,
    r_grid: list[float] | None,
    m: int = 0,
    p: int = 0,
) -> int:
    if not ns:
        raise ValueError("sweep needs at least one overtone number")
    if (eta_grid is None) == (r_grid is None):
        raise ValueError("exactly one of --eta-range / --R-range is required")
    grid = eta_grid if eta_grid is not None else r_grid
    if not grid:
        raise ValueError("sweep grid is empty")
    if eta_grid is not None and min(eta_grid) <= 0:
        raise ValueError("eta must be > 0 everywhere in the sweep range")
    mat = config.material()

    rows = []
    for n in sorted(set(ns)):
        mode = ModeIndex(n, m, p)
        for g in grid:
            if eta_grid is not None:
                geo = config.geometry()
                char = characterize(mat, geo, mode, config.temperature, eta_override=g)
                eta = g
            else:
                geo = CavityGeometry(L=config.L, h0=config.h0, R=g, L_tilde=config.L_tilde)
                char = characterize(mat, geo, mode, config.temperature)
                eta = char.eta_x
            rows.append([
                n, mode.m, mode.p, eta, char.chi_inv, char.xi,
                char.omega / (2.0 * math.pi), char.m_eff, char.x_zpf, char.p_zpf,
                char.n_thermal,
            ])
    if config.output_format == "csv":
        _emit(config, _csv_text(SWEEP_COLUMNS, rows))
    else:
        _emit(config, _json_text(_rows_payload("sweep", SWEEP_COLUMNS, rows)))
    return 0


def cmd_electrode(config: RunConfig, ns: list[int], mu_opt: float) -> int:
    if not ns:
        raise ValueError("electrode sizing needs at least one overtone number")
    mat = config.material()
    geo = config.geometry()
    rows = []
    for n in sorted(set(ns)):
        ModeIndex(n)  # validates oddness
        if config.eta_override is not None:
            eta = config.eta_override
        else:
            alpha, beta = envelope_curvatures(mat, geo, n)
            eta = trapping_parameters(alpha, beta, geo.L)[0]
        design = design_electrode(mat, geo, eta, n, mu_opt)
        _, z_closed, _ = shunt_impedance(mat, geo, eta, n, mu_opt)
        rows.append([n, design.L_tilde, design.mu, design.C0, z_closed, design.Z_shunt_mag])
    if config.output_format == "csv":
        _emit(config, _csv_text(ELECTRODE_COLUMNS, rows))
    else:
        _emit(config, _json_text(_rows_payload("electrode", ELECTRODE_COLUMNS, rows)))
    return 0


def cmd_membrane(config: RunConfig, spec: MembraneSpec, mode: ModeIndex) -> int:
    mat = config.material()
    geo = config.geometry()
    char = characterize(mat, geo, mode, config.temperature, eta_override=config.eta_override)
    result = compare(char, spec, config.temperature)
    if config.output_format == "csv":
        rows = [[label, cav, mem] for label, cav, mem in result.rows()]
        _emit(config, _csv_text(["quantity", "cavity", "membrane"], rows))
    else:
        payload = {
            "schema_version": JSON_SCHEMA_VERSION,
            "command": "membrane",
            "temperature_K": _round9(config.temperature),
            "cavity": {label: _round9(cav) for label, cav, _ in result.rows()},
            "membrane": {label: _round9(mem) for label, _, mem in result.rows()},
        }
        _emit(config, _json_text(payload))
    return 0


def _report_payload(command: str, results) -> dict:
    return {
        "schema_version": JSON_SCHEMA_VERSION,
        "command": command,
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
    }


def _emit_report(config: RunConfig, command: str, results) -> int:
    if config.output_format == "csv":
        rows = []
        for r in results:
            for row in r.rows:
                rows.append([
                    r.cid, r.name, row.label, row.measured, row.expected,
                    row.tolerance, "PASS" if row.passed else "FAIL",
                ])
        text = _csv_text(
            ["criterion", "name", "check", "measured", "expected", "tolerance", "status"], rows
        )
    else:
        text = _json_text(_report_payload(command, results))
    _emit(config, text)
    if config.output_path != "-":
        for r in results:
            print(f"[{'PASS' if r.passed else 'FAIL'}] criterion {r.cid}: {r.name}")
    return 0 if all(r.passed for r in results) else 1


def cmd_paper_report(config: RunConfig, variant_path: Path | None) -> int:
    results = report_mod.run_all(
        material_path=config.material_file,
        variant_path=variant_path,
        geometry=config.geometry(),
    )
    return _emit_report(config, "paper-report", results)


def cmd_oracle(config: RunConfig, n_sets: int) -> int:
    mat = config.material()
    geo = config.geometry()
    results = [report_mod.criterion_8(mat, geo, n_sets=n_sets), report_mod.criterion_9(mat, geo)]
    return _emit_report(config, "oracle", results)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--material", default=None, metavar="PATH",
                        help="material file (default: bundled quartz constants)")
    common.add_argument("--L", type=float, default=0.015, help="plate half-width (m)")
    common.add_argument("--h0", type=float, default=5e-4, help="plate half-thickness (m)")
    common.add_argument("--R", type=float, default=0.3, help="radius of curvature (m)")
    common.add_argument("--L-tilde", type=float, default=None, help="electrode half-width (m)")
    common.add_argument("--eta", type=float, default=None,
                        help="override the trapping parameter (both axes)")
    common.add_argument("--temp-k", type=float, default=0.02, help="temperature (K)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default="-", metavar="PATH", help="output file ('-' = stdout)")

    parser = argparse.ArgumentParser(
        prog="bawcav",
        description="Near-ground-state figures of curved phonon-trapping acoustic cavities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", parents=[common],
                       help="single-mode characterization row")
    p.add_argument("--n", type=int, default=1, help="overtone number (odd)")
    p.add_argument("--m", type=int, default=0, help="in-plane number along x (even)")
    p.add_argument("--p", type=int, default=0, help="in-plane number along y (even)")

    p = sub.add_parser("sweep", parents=[common],
                       help="characterization grid over overtones and trapping/curvature")
    p.add_argument("--n", default="1", metavar="LIST", help="comma-separated odd overtones")
    p.add_argument("--m", type=int, default=0, help="in-plane number along x (even)")
    p.add_argument("--p", type=int, default=0, help="in-plane number along y (even)")
    p.add_argument("--eta-range", default=None, metavar="A:B:STEP")
    p.add_argument("--R-range", default=None, metavar="A:B:STEP")

    p = sub.add_parser("electrode", parents=[common], help="optimal electrode sizing table")
    p.add_argument("--n", default="7,37,227", metavar="LIST")
    p.add_argument("--mu-opt", type=float, default=MU_OPT_3SIGMA,
                   help="target overlap factor (default: 3-sigma coverage)")

    p = sub.add_parser("membrane", parents=[common],
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

    p = sub.add_parser("paper-report", parents=[common],
                       help="check library output against published reference values")
    p.add_argument("--variant-material", default=None, metavar="PATH",
                   help="piezoelectric material file for readout checks")

    p = sub.add_parser("oracle", parents=[common],
                       help="run the brute-force validation suite")
    p.add_argument("--sets", type=int, default=20, help="random parameter sets (seeded)")
    return parser


def _config_from(args) -> RunConfig:
    material = Path(args.material) if args.material else bundled_material_path("quartz")
    return RunConfig(
        material_file=material,
        L=args.L,
        h0=args.h0,
        R=args.R,
        L_tilde=args.L_tilde,
        eta_override=args.eta,
        temperature=args.temp_k,
        output_format=args.format,
        output_path=args.out,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from(args)
        if args.command == "characterize":
            return cmd_characterize(config, ModeIndex(args.n, args.m, args.p))
        if args.command == "sweep":
            ns = _parse_int_list(args.n)
            eta_grid = _parse_grid(args.eta_range) if args.eta_range else None
            r_grid = _parse_grid(args.R_range) if args.R_range else None
            return cmd_sweep(config, ns, eta_grid, r_grid, m=args.m, p=args.p)
        if args.command == "electrode":
            return cmd_electrode(config, _parse_int_list(args.n), args.mu_opt)
        if args.command == "membrane":
            spec = MembraneSpec(a=args.a, b=args.b, h=args.mem_h, tau=args.tau,
                                rho=config.material().rho,
                                mode_m=args.mem_m, mode_n=args.mem_n)
            return cmd_membrane(config, spec, ModeIndex(args.n, args.m, args.p))
        if args.command == "paper-report":
            variant = Path(args.variant_material) if args.variant_material else None
            return cmd_paper_report(config, variant)
        if args.command == "oracle":
            return cmd_oracle(config, args.sets)
        parser.error(f"unknown command {args.command!r}")
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MaterialFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover


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
