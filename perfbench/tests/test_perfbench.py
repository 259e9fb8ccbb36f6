"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_op_list_depends_only_on_seed(workload):
    assert wl.op_list(workload, 5, 40) == wl.op_list(workload, 5, 40)
    assert wl.op_list(workload, 5, 40) != wl.op_list(workload, 6, 40)
    ops = wl.run_ops(workload, 5, 20)
    assert ops == wl.run_ops(workload, 5, 20) == wl.op_list(workload, 5, len(ops))
    assert ops != wl.run_ops(workload, 6, 20)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_emits_every_metric_and_fails_nothing(workload):
    lines, result = run_bench("--workload", workload, "--seed", "1", "--seconds", "0.1",
                              "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{workload} {name} ") and line.endswith(f" {unit}")
                   for line in lines)
    assert f"{workload} failed_frac 0 ratio" in lines
    passes = next(int(line.split()[2]) for line in lines if line.startswith(f"{workload} passes "))
    assert passes >= wl.PASSES
    scale = next(float(line.split()[2]) for line in lines if line.startswith(f"{workload} scale "))
    raw = {line.split()[1]: float(line.split()[2]) for line in lines if ".raw " in line}
    assert raw["op_p50_ms.raw"] * scale == pytest.approx(result["metrics"]["op_p50_ms"]["value"], rel=1e-4)
    assert raw["ops_per_s.raw"] / scale == pytest.approx(result["metrics"]["ops_per_s"]["value"], rel=1e-4)


def test_traced_run_emits_layers_and_repeats_counts():
    runs = [run_bench("--workload", "integrals", "--seed", "2", "--seconds", "1", "--trace", "1")[1]
            for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in runs:
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    exact = [k for k in expected if k.endswith((".calls", ".term_products", ".summands"))]
    first, second = ({k: r["metrics"][k]["value"] for k in exact} for r in runs)
    assert first == second
    assert first["bott_samelson.integrate.calls"] == 540


def test_wrappers_cover_every_binding_and_are_removed():
    import bottsam
    from bottsam import bott_samelson, polyring

    lib = wl.Library("integrals")
    original = polyring.divide_exact
    tr = tracer.Tracer()
    with tr:
        assert bott_samelson.divide_exact is not original
        assert bott_samelson.divide_exact is polyring.divide_exact is bottsam.divide_exact
        assert polyring.Polynomial.__rmul__ is polyring.Polynomial.__mul__
        for op in wl.op_list("integrals", 3, 9):
            with tr.op("op"):
                lib.run(op)
    assert tracer.leftover_wrappers() == []
    assert bott_samelson.divide_exact is original
    stats = tr.export()["stats"]
    assert stats["bott_samelson.integrate"]["calls"] == 9
    assert stats["polyring.divide_exact"]["calls"] > 0
    assert stats["polyring.Polynomial.mul"]["term_products"] >= stats["polyring.Polynomial.mul"]["calls"]


def test_missing_public_name_is_reported_absent(monkeypatch):
    import bottsam  # noqa: F401

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("polyring", "no_such_function", "polyring.no_such_function", None, ()),))
    tr = tracer.Tracer()
    with tr:
        pass
    assert tr.absent == ["polyring.no_such_function"]
    assert tracer.leftover_wrappers() == []


def test_oracle_matches_documented_values():
    cartan = oracle.CARTAN["A2"]
    # README: restrict 011 --class 010 on A2 1,2,1 is a2.
    assert oracle.sigma(cartan, (1, 2, 1), (0, 1, 0), (0, 1, 1)) == oracle.parse("a2", 2)
    p = oracle.parse("-2*a1^2*a2 + 3/2*a1 + 1", 2)
    assert oracle.parse(oracle.render(p), 2) == p
    assert oracle.other_reduced_word(oracle.CARTAN["A3"], (1, 3, 2)) == (3, 1, 2)
    assert oracle.other_reduced_word(oracle.CARTAN["A2"], (1, 2, 1)) == (2, 1, 2)
    assert oracle.other_reduced_word(oracle.CARTAN["G2"], (1, 2, 1, 2)) is None
    # README: billey --w 1,2 --v 1,2,1,2 on B2.
    assert oracle.subword_sum(oracle.CARTAN["B2"], (1, 2, 1, 2), (1, 2), (1, 1, 1, 1)) == \
        oracle.parse("a1^2 + 3*a1*a2 + 2*a2^2", 2)


def test_refuses_a_tree_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            shutil.copy(os.path.join(BENCH, name), bench / name)
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
