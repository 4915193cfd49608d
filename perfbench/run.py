"""Benchmark of dressedphase: time to a checked result, per workload.

    python3 perfbench/run.py --workload oracle_check --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload hydro_frames --smoke --trace 1

One process runs one workload as a single-threaded closed loop: the next pass
starts only when the previous one has finished and been checked.  ``all``
runs every workload in its own fresh process, one after the other.  Set-up
is timed in fresh child processes (``setup_probe.py``).  OpenBLAS is held
to one thread in all of them.

``--trace 0`` reports the end-to-end metrics, timing every pass with a
``refclock.RefClock`` so that the host's drifting speed is divided out;
``--trace 1`` alternates untraced and traced passes, times them by wall clock
alone and reports the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# The benchmark is single-threaded and the program's only BLAS call is a tiny
# least-squares fit, but OpenBLAS starts one thread per core when numpy is
# imported; on a shared 2-core host that start-up alone added 0-70 ms to
# set-up, depending on what the other core was doing.  Set before numpy is
# imported here or in any child process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import inputs  # noqa: E402
import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = inputs.ROOT / ".perfbench-out"

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "pass_wall_s": "s",
    "cli.import_s": "s",
    "cli.load_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    "dressed.adiabatic_report_s": "s",
    "dressed.assemble_bare_state_s": "s",
    "dressed.generalized_rabi_s": "s",
    "model.derivs_s": "s",
    "numerics.cumulative_simpson_s": "s",
    "propagator.rwa_propagate_s": "s",
    "propagator.rwa_propagate_coupling_s": "s",
    "propagator.full_field_propagate_s": "s",
    "propagator.rhs_evals": "count",
    "propagator.us_per_rhs": "us",
    "interferometry.phase_scan_s": "s",
    "interferometry.propagations": "count",
    "interferometry.ms_per_propagation": "ms",
    "hydro.split_step_solve_s": "s",
    "hydro.hj_residual_s": "s",
    "hydro.continuity_residual_s": "s",
    "hydro.polar_decompose_calls": "count",
    "trace.overhead_frac": "ratio",
}
# Per-layer times that are the summed duration of one span name in a pass.
SPAN_TIMES = {
    "cli.self_s": "cli.run.self",
    "dressed.adiabatic_report_s": "dressed.adiabatic_report",
    "dressed.assemble_bare_state_s": "dressed.assemble_bare_state",
    "dressed.generalized_rabi_s": "dressed.generalized_rabi",
    "model.derivs_s": "model.derivs",
    "numerics.cumulative_simpson_s": "numerics.cumulative_simpson",
    "propagator.rwa_propagate_s": "propagator.rwa_propagate",
    "propagator.rwa_propagate_coupling_s": "propagator.rwa_propagate_coupling",
    "propagator.full_field_propagate_s": "propagator.full_field_propagate",
    "interferometry.phase_scan_s": "interferometry.phase_scan",
    "hydro.split_step_solve_s": "hydro.split_step_solve",
    "hydro.hj_residual_s": "hydro.hj_residual",
    "hydro.continuity_residual_s": "hydro.continuity_residual",
}
SETUP_RUNS = 15
MIN_TIMED_PASSES = 3
REPLAY_TOL = 1e-12
CHILD_TIMEOUT_S = 170


def _setup_probe(workload: str, directory: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(directory)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _median(values, default=0.0):
    return statistics.median(values) if values else default


class Loop:
    """Closed loop of checked passes over one workload's inputs."""

    def __init__(self, workload: str, cli, data: dict, out: Path):
        self.workload, self.cli, self.data, self.out = workload, cli, data, out
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None
        self.bytes_written: list[int] = []
        self.wall: list[float] = []
        self.chunks: list[float] = []

    def run(self, recorder=None, pass_id=0, capture=False, clock=False) -> float | None:
        """One pass; returns its time, or None when it failed.

        The time is the pass's ``RefClock`` nominal time with ``clock``, its
        wall time without.
        """
        self.attempted += 1
        if recorder is not None:
            recorder.install(pass_id, capture)
        try:
            if clock:
                with refclock.RefClock() as timer:
                    result = workloads.run_pass(self.workload, self.cli, self.data, self.out)
                elapsed = timer.nominal_s
                self.wall.append(timer.wall_s)
                self.chunks.append(timer.chunk_s)
            else:
                started = time.perf_counter()
                result = workloads.run_pass(self.workload, self.cli, self.data, self.out)
                elapsed = time.perf_counter() - started
            problems, digest, written = workloads.check_pass(self.workload, result)
        except Exception:  # a failing pass is counted, reported and survived
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            if recorder is not None:
                recorder.uninstall()
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("output digest differs from the first pass")
        if problems:
            self.failed += 1
            print(f"perfbench: pass {pass_id} failed: {'; '.join(problems)}", file=sys.stderr)
            return None
        self.bytes_written.append(written)
        return elapsed


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            cli, work: Path) -> dict:
    in_dir = work / "inputs"
    inputs.generate(workload, seed, in_dir)
    setup_runs = 1 if smoke else SETUP_RUNS
    setups: list[dict] = []
    loop = Loop(workload, cli, inputs.load(cli, workload, in_dir), work / "out")
    recorder = tracing.SpanRecorder() if trace else None
    plain: list[float] = []
    traced: list[float] = []
    traced_ids: list[int] = []
    rhs_by_call, replay_error = [], 0.0

    if not smoke:
        loop.run(pass_id=0)  # warm-up: checked and counted, not timed
    needed = (2 if trace else 1) * (1 if smoke else MIN_TIMED_PASSES)
    started = time.perf_counter()
    deadline = started + seconds
    pass_id = 1
    while True:
        # Set-up probes are spread over the measuring window, so that they
        # sample the same drifting per-core speed as the passes do.
        if len(setups) < setup_runs and (
            time.perf_counter() >= started + len(setups) * seconds / setup_runs
        ):
            setups.append(_setup_probe(workload, in_dir))
        is_traced = trace and pass_id % 2 == 0
        first_traced = is_traced and not traced_ids
        elapsed = loop.run(recorder if is_traced else None, pass_id, capture=first_traced,
                           clock=not trace)
        if is_traced:
            traced_ids.append(pass_id)
            workloads.probe_layers(workload, loop.data, recorder)
            if first_traced:
                rhs_by_call, replay_error = tracing.replay_rhs(recorder.captured)
                recorder.captured.clear()
        if elapsed is not None:
            (traced if is_traced else plain).append(elapsed)
        if pass_id >= needed and (smoke or time.perf_counter() >= deadline):
            break
        pass_id += 1
    while len(setups) < setup_runs:
        setups.append(_setup_probe(workload, in_dir))

    correct = loop.failed == 0 and replay_error <= REPLAY_TOL
    if replay_error > REPLAY_TOL:
        print(f"perfbench: RHS replay differs by {replay_error:g}", file=sys.stderr)
    if trace:
        values = _layer_metrics(recorder, traced_ids, setups, plain, traced, loop, sum(rhs_by_call))
        recorder.write(
            OUT / f"spans-{workload}-seed{seed}.jsonl",
            {"workload": workload, "seed": seed, "traced_passes": traced_ids,
             "rhs_by_call": rhs_by_call},
        )
        units = PER_LAYER
    else:
        values = {
            "pass_s": _median(plain, default=None),
            "setup_s": _median([s["nominal_s"] for s in setups]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    if plain:
        q1, median, q3 = statistics.quantiles(plain, n=4) if len(plain) > 1 else plain * 3
        print(f"perfbench: {len(plain)} timed passes: min {min(plain):.4g} s, "
              f"quartiles {q1:.4g} / {median:.4g} / {q3:.4g} s")
    if loop.wall:
        print(f"perfbench: wall time per pass: median {_median(loop.wall):.4g} s; reference chunk: "
              f"median {1e3 * _median(loop.chunks):.4g} ms (nominal "
              f"{1e3 * refclock.NOMINAL_CHUNK_S:g} ms)")
    return {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _layer_metrics(recorder, traced_ids, setups, plain, traced, loop, rhs_evals) -> dict:
    table = tracing.per_pass(recorder.spans, traced_ids)
    empty = [(0.0, 0)] * len(traced_ids)

    def seconds(span_name):
        return _median([s for s, _ in table.get(span_name, empty)])

    def calls(span_name):
        return statistics.median_low([n for _, n in table.get(span_name, empty)] or [0])

    def per_call(span_name):
        return _median([s / n for s, n in table.get(span_name, empty) if n])

    values = {metric: seconds(span) for metric, span in SPAN_TIMES.items()}
    rwa = [
        a[0] + b[0]
        for a, b in zip(table.get(tracing.RWA_SPANS[0], empty), table.get(tracing.RWA_SPANS[1], empty))
    ]
    values.update({
        "pass_wall_s": _median(plain),
        "cli.import_s": _median([s["import_s"] for s in setups]),
        "cli.load_s": _median([s["load_s"] for s in setups]),
        "cli.bytes_written": statistics.median_low(loop.bytes_written or [0]),
        "propagator.rhs_evals": rhs_evals,
        "propagator.us_per_rhs": 1e6 * _median(rwa) / rhs_evals if rhs_evals else 0.0,
        "interferometry.propagations": calls("interferometry.pulse_pair_population"),
        "interferometry.ms_per_propagation": 1e3 * per_call("interferometry.pulse_pair_population"),
        "hydro.polar_decompose_calls": calls("hydro.polar_decompose"),
        "trace.overhead_frac": _median(traced) / _median(plain) - 1.0 if plain and traced else 0.0,
    })
    return values


def _report(workload: str, seed: int, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench: workload={workload} seed={seed} passes={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.4g} correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    results = {}
    for workload in inputs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
        _report(workload, args.seed, results[workload])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{name}": metric for w, r in results.items() for name, metric in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one checked pass, no warm-up")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        cli = inputs.import_cli()
    except inputs.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                         cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _report(args.workload, args.seed, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
