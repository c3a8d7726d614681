"""Output correctness checks, run after the timed invocations.

A sweep's rows must match the grid the benchmark asked for (overtone,
in-plane numbers, grid value, row count) and every value must be finite.
A seeded sample of weakly trapped rows (t = sqrt(n) * eta <= 5, where the
oracle quadrature stays cheap) is re-derived by bawcav's brute-force 2-D
quadrature oracles and must agree to the criterion-8 tolerance.  A
``paper-report`` must list all ten criteria, each passing.
"""

from __future__ import annotations

import csv
import math
import random

ORACLE_REL_TOL = 1e-8  # criterion 8's tolerance
ORACLE_MIN_CHI = 1e-12  # criterion 8 skips escape probabilities below this
ORACLE_MAX_T = 5.0
ORACLE_SAMPLE = 6
REL_GRID_TOL = 1e-8  # nine significant digits in the output

# The CLI defaults the sweeps run with.
PLATE_L = 0.015
PLATE_H0 = 5e-4

SWEEP_COLUMNS = ["n", "m", "p", "eta", "chi_inv", "xi", "f_Hz", "m_eff_kg", "x_zpf_m", "p_zpf",
                 "n_thermal"]


def read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_report(path: str) -> int:
    """Number of the ten criteria that are missing from the report or fail."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    passed: dict[str, bool] = {}
    for r in rows:
        passed[r["criterion"]] = passed.get(r["criterion"], True) and r["status"] == "PASS"
    return sum(1 for k in range(1, 11) if not passed.get(str(k), False))


def _row_ok(row: dict, n: int, m: int, p: int, grid_value: float) -> bool:
    try:
        if (int(row["n"]), int(row["m"]), int(row["p"])) != (n, m, p):
            return False
        values = [float(row[c]) for c in SWEEP_COLUMNS[3:]]
    except (KeyError, TypeError, ValueError):
        return False
    if not all(math.isfinite(v) for v in values):
        return False
    eta = values[0]
    if abs(eta - grid_value) > REL_GRID_TOL * abs(grid_value):
        return False
    return eta > 0


def check_sweep(job: dict, path: str) -> tuple[int, list[dict]]:
    """Count rows that are missing, extra, malformed, off-grid or non-finite.

    Returns the bad-row count and the rows, each tagged with its grid value.
    """
    rows = read_rows(path)
    grid = job["grid"]
    count = grid["count"]
    expected = [(n, i) for n in job["ns"] for i in range(count)]
    bad = abs(len(rows) - len(expected))
    tagged = []
    for row, (n, i) in zip(rows, expected):
        g = grid["start"] + i * grid["step"]
        if _row_ok(row, n, job["m"], job["p"], g):
            tagged.append({**row, "grid_value": g})
        else:
            bad += 1
    return bad, tagged


def check_oracle_sample(job: dict, rows: list[dict]) -> tuple[int, int]:
    """Compare a seeded sample of rows with the quadrature oracles.

    Returns (checks attempted, checks failed).
    """
    from bawcav.cavity import ModeIndex
    from bawcav.material import bundled_material_path, load_material
    from bawcav.oracle import escape_integral_oracle, mass_integral_oracle

    mat = load_material(bundled_material_path("quartz"))

    def curvature(row):
        """The isotropic envelope curvature that the swept eta stands for."""
        return row["grid_value"] ** 2 / (math.pi * PLATE_L**2)

    def t(row):
        return math.sqrt(int(row["n"])) * row["grid_value"]

    candidates = [r for r in rows if t(r) <= ORACLE_MAX_T]
    sample = random.Random(job["sample_seed"]).sample(
        candidates, min(ORACLE_SAMPLE, len(candidates))
    )
    attempted = failed = 0
    for row in sample:
        alpha = beta = curvature(row)
        mode = ModeIndex(int(row["n"]), job["m"], job["p"])
        chi = escape_integral_oracle(mode, alpha, beta, PLATE_L)
        checks = [(float(row["m_eff_kg"]),
                   mass_integral_oracle(mode, alpha, beta, PLATE_L, mat.rho, PLATE_H0))]
        if chi > ORACLE_MIN_CHI:
            checks.append((float(row["chi_inv"]), chi))
        for closed, oracle in checks:
            attempted += 1
            if not abs(closed - oracle) <= ORACLE_REL_TOL * abs(oracle):
                failed += 1
    return attempted, failed
