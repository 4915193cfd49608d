"""The benchmark's own checks: inputs, metric names, and refusal without the program.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload in smoke mode (one checked pass) with and without
tracing, so it takes about a minute.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


@pytest.mark.parametrize("name", ["dressed_compare", "propagate", "interfere", "hydro"])
def test_config_copies_match_the_demos(name):
    copy = (inputs.CONFIGS / f"{name}.json").read_bytes()
    assert copy == (ROOT / "demos" / "configs" / f"{name}.json").read_bytes()


def test_default_seed_writes_the_demo_configs_byte_for_byte(tmp_path):
    inputs.generate("oracle_check", inputs.DEFAULT_SEED, tmp_path / "o")
    inputs.generate("fringe_scan", inputs.DEFAULT_SEED, tmp_path / "f")
    demos = ROOT / "demos" / "configs"
    pairs = [
        ("o/dressed_compare.json", "dressed_compare.json"),
        ("o/propagate_rwa.json", "propagate.json"),
        ("f/interfere.json", "interfere.json"),
    ]
    for written, demo in pairs:
        assert (tmp_path / written).read_bytes() == (demos / demo).read_bytes()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_depend_only_on_the_seed(tmp_path, workload):
    def texts(seed, name):
        paths = inputs.generate(workload, seed, tmp_path / name)
        return [p.read_text(encoding="utf-8") for p in paths]

    assert texts(7, "a") == texts(7, "b")
    assert texts(7, "a") != texts(8, "c")


def test_refclock_samples_the_reference_while_the_block_runs():
    previous = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock() as timer:
        refclock.chunk(100 * refclock.CHUNK_STEPS)
    assert len(timer.inside) >= 2
    assert 0.0 < timer.own_s < timer.wall_s
    assert timer.nominal_s == pytest.approx(
        timer.own_s / timer.chunk_s * refclock.NOMINAL_CHUNK_S
    )
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_appears_for_every_workload(trace, group):
    proc = _run("--workload", "all", "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for workload in inputs.WORKLOADS:
        for metric in BENCHMARK[group]:
            reported = result["metrics"][f"{workload}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
    names = {f"{w}.{m['name']}" for w in inputs.WORKLOADS for m in BENCHMARK[group]}
    assert set(result["metrics"]) == names
    if trace:
        # Exact counts at the default seed: the dressed_compare oracle
        # (322,825) plus propagate.json's rotating-wave run (3,271).
        assert result["metrics"]["oracle_check.propagator.rhs_evals"]["value"] == 326_096
        assert result["metrics"]["fringe_scan.interferometry.propagations"]["value"] == 256


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "hydro_frames", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
