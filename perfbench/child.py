"""One benchmark client: a fresh interpreter that runs one workload.

Usage (from run.py): ``python child.py '<job as JSON>'``.

The child imports ``bawcav.cli`` from the checkout's ``src`` and loads the
bundled material file, and notes the time, so the parent can time set-up.
Then, by the job's mode:

- ``setup``: nothing more.
- ``measure``: calls ``bawcav.cli.main(argv)`` once, untraced, and reports
  its wall time, output digest and the process's peak resident set.
  Before and after the call it times a fixed pure-Python loop
  (``_reference``), which gauges how fast the shared machine runs.
- ``check``: checks the output the last call left on disk (checks.py).
- ``trace``: calls ``main`` in a closed loop for half the job's seconds
  untraced, then for the other half with every public function of the
  package wrapped (spans.py); then checks the last output, untraced.

The result is the last line of standard output, as JSON.
"""

from __future__ import annotations

# Other imports wait until set-up has been timed, so that set-up time is
# the program's own.
import json
import sys
import time
from pathlib import Path

REFERENCE_ITERATIONS = 1_500_000  # 0.12-0.2 s on the 2-CPU reference machine


def _setup(src: str):
    sys.path.insert(0, src)
    import bawcav.cli
    from bawcav.material import bundled_material_path, load_material

    load_material(bundled_material_path("quartz"))
    if not Path(bawcav.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"bawcav was imported from {bawcav.cli.__file__}, not from {src}")
    return bawcav


def _invoke(cli, argv: list[str]) -> tuple[int, str, float]:
    import io
    import traceback
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - t0
    return rc, err.getvalue(), wall


def _digest(path: Path) -> tuple[str | None, int]:
    import hashlib

    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None, 0
    return hashlib.sha256(data).hexdigest(), len(data)


def _call(cli, job: dict, tracer=None) -> dict:
    out = Path(job["out"])
    out.unlink(missing_ok=True)
    if tracer:
        tracer.begin_request()
    rc, err, wall = _invoke(cli, job["argv"])
    if tracer:
        tracer.end_request()
    digest, size = _digest(out)
    return {"wall_s": wall, "rc": rc, "traceback": "Traceback" in err,
            "digest": digest, "bytes": size}


def _reference() -> float:
    """Seconds for a fixed loop of pure-Python arithmetic, no package code.

    Its time follows the speed the shared machine gives this process at
    the moment, and nothing a change to bawcav can alter.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(REFERENCE_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def _loop(cli, job: dict, seconds: float, tracer=None) -> list[dict]:
    """Closed loop: start the next call only if it should end within ``seconds``."""
    runs = []
    deadline = time.perf_counter() + seconds
    while True:
        runs.append(_call(cli, job, tracer))
        if time.perf_counter() + runs[-1]["wall_s"] > deadline:
            return runs


def _check(job: dict) -> dict:
    """Check the output the last call left on disk; see checks.py."""
    import checks

    result = {"bad_rows": job["rows"], "oracle_attempted": 0, "oracle_failed": 0}
    path = job["out"]
    if not Path(path).is_file():
        return result
    if job["kind"] == "report":
        result["bad_rows"] = checks.check_report(path)
    else:
        bad_rows, tagged = checks.check_sweep(job, path)
        result["bad_rows"] = min(bad_rows, job["rows"])
        result["oracle_attempted"], result["oracle_failed"] = checks.check_oracle_sample(job, tagged)
    return result


def main() -> int:
    job = json.loads(sys.argv[1])
    bawcav = _setup(job["src"])
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its launch time
    result = {"ready_at": time.monotonic()}
    import resource

    import numpy

    cli = bawcav.cli
    result.update(numpy=numpy.__version__, python=sys.version.split()[0])
    if job["mode"] == "measure":
        before = _reference()
        result["run"] = _call(cli, job)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["reference_s"] = (before + _reference()) / 2
    elif job["mode"] == "check":
        result.update(_check(job))
    elif job["mode"] == "trace":
        from spans import Tracer

        result["untraced"] = _loop(cli, job, job["seconds"] / 2)
        tracer = Tracer()
        result["traced_names"] = tracer.install(bawcav)
        try:
            result["traced"] = _loop(cli, job, job["seconds"] / 2, tracer)
        finally:
            tracer.uninstall()
        result["layers"] = [tracer.request_metrics(i) for i in range(len(tracer.requests))]
        tracer.dump(job["spans_out"])
        result.update(_check(job))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
