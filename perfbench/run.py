"""bawcav benchmark: three CLI workloads, measured from outside the package.

    python3 perfbench/run.py --workload sweep-eta-csv --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each run starts fresh child interpreters
(perfbench/child.py) with BLAS threads pinned to 1; one child is a single
client calling ``bawcav.cli.main(argv)`` in a closed loop.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics from a
traced child.  The last line of standard output is the result as JSON; the
lines before it give provenance and the spread of each metric's samples.
perfbench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_CHILDREN = 7  # set-up-only launches per run, after one untimed warm-up
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ODD_OVERTONES = range(1, 40, 2)
REPORT_CRITERIA = 10
WORKLOADS = ("sweep-eta-csv", "sweep-higher-order", "paper-report")

END_TO_END = {"norm_wall_s": "s", "norm_rows_per_s": "rows/s", "setup_s": "s",
              "peak_rss_mb": "MB", "ok_frac": "ratio"}
# The normalised times are scaled to a machine on which child.py's
# reference loop takes this long.  The machine is shared, and its speed
# drifts by a third over minutes; the loop, timed in the same process just
# before and after each call, measures that drift.
REFERENCE_S = 0.2

PER_LAYER = (
    "specfun.erf.calls", "specfun.erf.self_s",
    "specfun.erfc.calls", "specfun.erfc.self_s",
    "specfun.erfcx.calls", "specfun.erfcx.self_s",
    "cavity.characterize.calls", "cavity.characterize.self_s",
    "cavity.characterize.p50_us", "cavity.characterize.p99_us",
    "cavity.escape_probability.self_s", "cavity.effective_mass.self_s",
    "cli.main.self_s", "cli.output_bytes",
    "material.load_material.calls", "material.load_material.self_s",
    "material.stiffened_constants.calls", "material.dispersion_parameters.calls",
    "specfun.integrate_1d.calls", "specfun.integrate_1d.self_s",
    "specfun.integrate_1d.points", "specfun.integrate_1d.batches",
    "specfun.integrate_2d.calls", "specfun.integrate_2d.self_s",
    "specfun.integrate_2d.points", "specfun.integrate_2d.batches",
    "oracle.escape_integral_oracle.self_s", "oracle.mass_integral_oracle.self_s",
    "oracle.overlap_integral_oracle.self_s",
    "oracle.trap_eigensolve.calls", "oracle.trap_eigensolve.self_s",
    *(f"report.criterion_{k}.wall_s" for k in range(1, 11)),
    "detection.overlap_factor.calls", "detection.overlap_factor.self_s",
    "membrane.compare.calls",
    "cli.self_s", "report.self_s", "cavity.self_s", "detection.self_s",
    "membrane.self_s", "material.self_s", "oracle.self_s", "specfun.self_s",
    "trace_overhead_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith((".calls", ".points", ".batches")):
        return "count"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_bytes"):
        return "bytes"
    return "s"


class BenchError(Exception):
    pass


# -- workloads -----------------------------------------------------------------


def grid_size(start: float, stop: float, step: float) -> int:
    """Points of start, start + step, ... up to stop inclusive."""
    q = (stop - start) / step
    return (round(q) if abs(q - round(q)) < 1e-6 else math.floor(q)) + 1


def _sweep(seed, ns, m, p, start, stop, step):
    """A CSV sweep over eta, the CLI's plot-ready output."""
    argv = ["sweep", "--n", ",".join(map(str, ns)), "--m", str(m), "--p", str(p),
            "--eta-range", f"{start}:{stop}:{step}"]
    count = grid_size(start, stop, step)
    return {
        "kind": "sweep", "argv": argv, "ns": ns, "m": m, "p": p,
        "grid": {"start": start, "step": step, "count": count},
        "rows": count * len(ns), "sample_seed": seed,
    }


def make_workload(name: str, seed: int) -> dict:
    """The CLI invocation for a workload, generated from the seed alone."""
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep-eta-csv":
        a = round(0.1 + rng.randrange(1, 1000) * 1e-6, 6)  # inside (0.1, 0.101)
        # one overtone of each neighbouring pair (1|3, 5|7, ..., 37|39): a
        # row's cost depends on n, and neighbours cost about the same, so
        # the pick barely moves the call's cost
        ns = [n + 2 * rng.randrange(2) for n in ODD_OVERTONES[::2]]
        job = _sweep(seed, ns, 0, 0, a, 12, 0.001)
    elif name == "sweep-higher-order":
        # n is fixed at {1, 3}: with m = 4, rows with sqrt(n) * eta above
        # about 21.8 fail to converge at this commit (exit 3)
        a = round(0.1 + rng.randrange(1, 1000) * 1e-5, 5)  # inside (0.1, 0.11)
        job = _sweep(seed, [1, 3], 4, 0, a, 12, 0.06)
    elif name == "paper-report":
        # fixed published inputs; the seed is recorded and changes nothing
        job = {"kind": "report", "argv": ["paper-report"], "rows": REPORT_CRITERIA}
    else:
        raise BenchError(f"unknown workload {name!r}")
    job["out"] = str(OUT_DIR / f"{name}.csv")
    job["argv"] = job["argv"] + ["--out", job["out"]]
    job["spans_out"] = str(OUT_DIR / f"spans-{name}.npz")
    job["src"] = str(SRC)
    return job


# -- child processes -------------------------------------------------------------


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(BLAS_PIN)
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(job: dict, limit: float) -> tuple[float, dict]:
    """Run one child to its end; return its set-up time and its JSON result."""
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(job)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(0.0, limit - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child exceeded the run limit ({job['mode']})") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode} ({job['mode']})")
    result = json.loads(lines[-1])
    return result["ready_at"] - t0, result


# -- metrics ---------------------------------------------------------------------


def spread(values: list[float]) -> dict:
    """Median, quartiles and (q3 - q1) / median of a sample list."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "min": min(values), "q1": q1, "median": med, "q3": q3,
            "max": max(values), "iqr_over_median": (q3 - q1) / med if med else 0.0}


def account(job: dict, runs: list[dict], check: dict) -> tuple[int, int]:
    """Attempted and failed rows (criteria, for the report) and oracle checks.

    A call fails all its rows if it exits non-zero, prints a traceback, or
    leaves output other than the last call's; ``check`` judged that output.
    """
    final = runs[-1]["digest"]
    ok = sum(1 for r in runs if r["rc"] == 0 and not r["traceback"]
             and final is not None and r["digest"] == final)
    attempted = job["rows"] * len(runs) + check["oracle_attempted"]
    failed = job["rows"] * (len(runs) - ok) + ok * check["bad_rows"] + check["oracle_failed"]
    return attempted, failed


def end_to_end(job: dict, setups: list[float], children: list[dict], check: dict):
    """Samples of the end-to-end metrics, and of the raw times behind them."""
    runs = [c["run"] for c in children]
    walls = [r["wall_s"] for r in runs]
    references = [c["reference_s"] for c in children]
    norm_walls = [w * REFERENCE_S / ref for w, ref in zip(walls, references)]
    attempted, failed = account(job, runs, check)
    samples = {
        "norm_wall_s": norm_walls,
        "norm_rows_per_s": [job["rows"] / w for w in norm_walls],
        "setup_s": setups,
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        "ok_frac": [1.0 - failed / attempted],
        "wall_s": walls,
        "reference_s": references,
    }
    return samples, attempted, failed


def per_layer(res: dict) -> dict[str, list[float]]:
    traced = res["traced_names"]
    layers = res["layers"]
    samples: dict[str, list[float]] = {}
    for metric in PER_LAYER:
        if metric == "trace_overhead_s":
            samples[metric] = [statistics.median(r["wall_s"] for r in res["traced"])
                               - statistics.median(r["wall_s"] for r in res["untraced"])]
        elif metric == "cli.output_bytes":
            samples[metric] = [r["bytes"] for r in res["traced"]]
        else:
            func = metric.rsplit(".", 1)[0]
            if func.count(".") == 1 and func not in traced:
                raise BenchError(f"{metric}: {func} is not a traced function")
            # a criterion's wall_s is its span's whole duration, children included
            key = metric.replace(".wall_s", ".total_s")
            samples[metric] = [m.get(key, 0.0) for m in layers]
    return samples


def provenance(job: dict, args, res: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": job["argv"], "rows": job["rows"],
        "cpu_count": os.cpu_count(), "python": res["python"], "numpy": res["numpy"],
        "blas_pin": BLAS_PIN,
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 over the package's source and data files, in path order."""
    h = hashlib.sha256()
    pkg = SRC / "bawcav"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- main ------------------------------------------------------------------------


def run(args) -> dict:
    limit = time.monotonic() + RUN_LIMIT_S
    job = make_workload(args.workload, args.seed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.trace:
        _, res = launch({**job, "mode": "trace", "seconds": args.seconds}, limit)
        samples = per_layer(res)
        attempted, failed = account(job, res["untraced"] + res["traced"], res)
        raw = res
    else:
        launch({**job, "mode": "setup"}, limit)  # warm-up: file cache, byte-compiled sources
        setups = [launch({**job, "mode": "setup"}, limit)[0] for _ in range(SETUP_CHILDREN)]
        # one call per fresh child, as a user runs the CLI; the next child
        # starts only if it should end within --seconds.  A fresh process
        # per call also averages out per-process effects such as memory
        # layout, which make all calls in one process faster or slower.
        children = []
        end = time.monotonic() + args.seconds
        while True:
            t0 = time.monotonic()
            setup_s, res = launch({**job, "mode": "measure"}, limit)
            setups.append(setup_s)
            children.append(res)
            if 2 * time.monotonic() - t0 > end:
                break
        _, check = launch({**job, "mode": "check"}, limit)
        samples, attempted, failed = end_to_end(job, setups, children, check)
        raw = {"children": children, "check": check}
    return {"provenance": provenance(job, args, res), "raw": raw, "samples": samples,
            "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bawcav" / "cli.py").is_file():
        print(f"error: no bawcav sources under {SRC}", file=sys.stderr)
        return 2
    try:
        out = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    samples = out["samples"]
    spreads = {k: spread(v) for k, v in samples.items()}
    print("provenance " + json.dumps(out["provenance"]))
    for k, s in spreads.items():
        print(f"spread {k} n={s['n']} min={s['min']:.6g} q1={s['q1']:.6g} "
              f"median={s['median']:.6g} q3={s['q3']:.6g} max={s['max']:.6g} "
              f"iqr/median={s['iqr_over_median']:.3g}")
    record = {**out, "spreads": spreads}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": spreads[k]["median"], "unit": END_TO_END.get(k) or unit_of(k)}
               for k in names}
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
