"""Tests for the benchmark's own code: ``python3 -m pytest perfbench -q``."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from spans import LAYERS, Tracer, self_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bawcav  # noqa: E402
import bawcav.cli  # noqa: E402
from bawcav import cavity, specfun  # noqa: E402
from bawcav.material import bundled_material_path, load_material  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 5] > b [2, 3];  root > c [6, 8]
    start = np.array([0.0, 1.0, 2.0, 6.0])
    end = np.array([10.0, 5.0, 3.0, 8.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_time(end - start, parent).tolist() == [4.0, 3.0, 1.0, 2.0]


def test_install_wraps_every_lookup_and_uninstall_restores_it():
    before = {layer: dict(vars(getattr(bawcav, layer))) for layer in LAYERS}
    tracer = Tracer()
    names = tracer.install(bawcav)
    try:
        assert {"cli.main", "specfun.erf", "report.criterion_8", "oracle.trap_eigensolve"} <= set(names)
        assert cavity.erf is not before["cavity"]["erf"]
        assert cavity.erf is specfun.erf  # one wrapper per function
    finally:
        tracer.uninstall()
    after = {layer: dict(vars(getattr(bawcav, layer))) for layer in LAYERS}
    assert after == before


def test_traced_calls_return_the_same_values_and_count_spans():
    mat = load_material(bundled_material_path("quartz"))
    geo = cavity.CavityGeometry(L=0.015, h0=5e-4, R=0.3)
    mode = cavity.ModeIndex(3)
    plain = cavity.characterize(mat, geo, mode, 0.02, eta_override=1.3)
    tracer = Tracer()
    tracer.install(bawcav)
    try:
        tracer.begin_request()
        traced = cavity.characterize(mat, geo, mode, 0.02, eta_override=1.3)
        tracer.end_request()
    finally:
        tracer.uninstall()
    assert traced == plain
    m = tracer.request_metrics(0)
    assert m["cavity.characterize.calls"] == 1
    assert m["cavity.effective_mass.calls"] == 1
    assert m["specfun.erf.calls"] >= 2
    assert 0 <= m["cavity.characterize.self_s"] <= m["cavity.characterize.total_s"]


def test_integrand_points_and_batches_are_counted():
    tracer = Tracer()
    tracer.install(bawcav)
    seen = []

    def f(x, y):
        seen.append(np.size(x))
        return np.exp(-(x * x + y * y))

    try:
        tracer.begin_request()
        value = specfun.integrate_2d(f, (-1.0, 1.0), (-1.0, 1.0))
        tracer.end_request()
    finally:
        tracer.uninstall()
    assert value == pytest.approx(math.pi * math.erf(1.0) ** 2, rel=1e-9)
    m = tracer.request_metrics(0)
    assert m["specfun.integrate_2d.batches"] == len(seen)
    assert m["specfun.integrate_2d.points"] == sum(seen)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workloads_depend_only_on_the_seed(name):
    assert run.make_workload(name, 7) == run.make_workload(name, 7)
    job = run.make_workload(name, 8)
    assert job["argv"][-2:] == ["--out", job["out"]]


def test_eta_sweep_picks_one_overtone_of_each_neighbouring_pair():
    picks = [run.make_workload("sweep-eta-csv", seed)["ns"] for seed in range(20)]
    for ns in picks:
        assert [(n - 1) // 4 for n in ns] == list(range(10))
    assert len({tuple(ns) for ns in picks}) > 1


def test_grid_size_counts_an_inclusive_stop():
    assert run.grid_size(0.05, 2.0, 0.0002) == 9751
    assert run.grid_size(0.1005, 12, 0.001) == 11900
    assert run.make_workload("sweep-eta-csv", 3)["rows"] == 119000
    assert run.make_workload("sweep-higher-order", 3)["rows"] == 398


def test_end_to_end_normalises_each_call_by_its_own_reference_loop():
    def child(wall, reference):
        run_ = {"wall_s": wall, "rc": 0, "traceback": False, "digest": "d"}
        return {"run": run_, "reference_s": reference, "peak_rss_mb": 50.0}

    check = {"bad_rows": 0, "oracle_attempted": 0, "oracle_failed": 0}
    samples, attempted, failed = run.end_to_end(
        {"rows": 100}, [0.2], [child(2.0, 0.4), child(1.0, 0.1)], check)
    expected = [2.0 * run.REFERENCE_S / 0.4, 1.0 * run.REFERENCE_S / 0.1]
    assert samples["norm_wall_s"] == pytest.approx(expected)
    assert samples["norm_rows_per_s"] == pytest.approx([100 / w for w in expected])
    assert samples["wall_s"] == [2.0, 1.0]
    assert (attempted, failed) == (200, 0)


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
