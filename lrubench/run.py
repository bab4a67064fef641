"""Benchmark of lrusim's trajectory engine, oracle and fits.

Usage, from the root of a checkout:

    python3 lrubench/run.py --workload disorder-L5 --seed 1 --seconds 36 --trace 0
    python3 lrubench/run.py --workload all --seed 1 --seconds 36

With --trace 0 the run measures the end-to-end metrics: it times set-up in
fresh processes, then runs rounds of the workload's cells for about
--seconds and reports medians over the rounds. With --trace 1 it runs one
untraced round and two traced rounds with the same seed, reports the
per-layer metrics of the first traced round, and checks that the traced
rounds repeat every count and reproduce the untraced outputs bit for bit.
Every round checks its outputs (see checks.py). The last line of standard
output is one JSON object: correct, attempted and failed count cells.
See README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".lrubench-out"

#: Fresh processes timed per run for setup_s.
SETUP_PROBES = 5

#: Seconds a single-threaded run stays on one core before it moves on.
CORE_SWITCH_S = 0.05

sys.dont_write_bytecode = True
sys.path.insert(0, str(SOURCE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Round:
    wall_s: float = 0.0
    ensemble_s: float = 0.0
    trajectories: int = 0
    oracle_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    max_z: float | None = None
    decay_times: dict = field(default_factory=dict)
    digest: str = ""


def plain_api() -> dict:
    import lrusim

    return {name: getattr(lrusim, name)
            for name in ("run_ensemble", "solve_master_dense", "fit_exponential")}


def _hash_fields(digest, obj) -> None:
    for f in fields(obj):
        value = getattr(obj, f.name)
        digest.update(value.tobytes() if hasattr(value, "tobytes") else repr(value).encode())


def run_round(workload, seed: int, round_index: int, api: dict, nproc: int,
              tracer: spans.Tracer | None = None) -> Round:
    """Run every cell of the workload once and check its outputs."""
    out = Round()
    digest = hashlib.sha256()
    start = perf_counter()
    for index, cell in enumerate(workload.cells):
        if tracer is not None:
            tracer.cell = f"{round_index}:{cell.name}"
        out.attempted += 1
        try:
            problems = _run_cell(cell, workloads.cell_seed(seed, round_index, index),
                                 api, nproc, out, digest)
        except Exception:  # a cell that raises counts as failed; keep measuring
            problems = [traceback.format_exc()]
        if problems:
            out.failed += 1
            out.problems += [f"{cell.name}: {p}" for p in problems]
    out.wall_s = perf_counter() - start
    out.digest = digest.hexdigest()
    return out


def _run_cell(cell, master_seed, api, nproc, out: Round, digest) -> list[str]:
    config = workloads.make_config(cell, master_seed)
    t0 = perf_counter()
    ens = api["run_ensemble"](config, n_threads=nproc if cell.parallel else 1)
    out.ensemble_s += perf_counter() - t0
    out.trajectories += ens.n_trajectories_used
    _hash_fields(digest, ens)

    oracle = None
    if cell.oracle:
        t0 = perf_counter()
        oracle = api["solve_master_dense"](config)
        out.oracle_s += perf_counter() - t0
        _hash_fields(digest, oracle)

    fits = {}
    for fit in cell.fits:
        result = api["fit_exponential"](config.time_grid, getattr(ens, fit.series),
                                        t_start=workloads.fit_start(cell, fit))
        fits[fit.name] = result
        out.decay_times[f"{cell.name}.{fit.name}"] = float(result.decay_time)
        _hash_fields(digest, result)

    problems = checks.check_cell(ens, fits, oracle, workloads.Z_BOUND)
    if oracle is not None:
        out.max_z = checks.max_z(ens, oracle)
    return problems


# ---------------------------------------------------------------------------
# measurements around the rounds


def measure_setup() -> list[float]:
    """Seconds to import lrusim and warm up, in SETUP_PROBES fresh processes."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _openblas_function(action: str):
    """`action` of the OpenBLAS library numpy loaded, or None when none is found."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in (f"scipy_openblas_{action}64_", f"openblas_{action}64_", f"openblas_{action}"):
            if hasattr(lib, name):
                return getattr(lib, name)
    return None


def pin_blas_to_one_thread() -> None:
    """Single-threaded workloads run BLAS on one thread too.

    Their matrices are at most 81 x 81, too small for a second BLAS thread
    to help, and a BLAS thread waiting for a busy core of a shared machine
    made their timings wander by a third between runs of the same code.
    """
    setter = _openblas_function("set_num_threads")
    if setter is None:
        raise RuntimeError("cannot pin the BLAS thread count: numpy's OpenBLAS not found")
    setter(ctypes.c_int(1))


@contextmanager
def rotating_cores(active: bool):
    """While active, move the calling thread round the cores every CORE_SWITCH_S.

    A single-threaded run otherwise stays on the core the scheduler picked,
    and on a shared machine that core's speed, set by whatever runs beside
    it, decides the whole run. Moving round the cores spreads the run evenly
    over them: on a 2-vCPU VM it cut the spread of 2 s ensemble timings from
    27% to 11% of their median, with the same median.
    """
    cores = sorted(os.sched_getaffinity(0))
    if not active or len(cores) < 2:
        yield
        return
    target = threading.get_native_id()
    stop = threading.Event()

    def rotate():
        for core in itertools.cycle(cores):
            os.sched_setaffinity(target, {core})
            if stop.wait(CORE_SWITCH_S):
                return

    mover = threading.Thread(target=rotate, name="core-rotation")
    mover.start()
    try:
        yield
    finally:
        stop.set()
        mover.join()
        os.sched_setaffinity(target, cores)


def blas_record() -> dict:
    """BLAS library and its thread setting as the running process sees it."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    getter = _openblas_function("get_num_threads")
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": getter() if getter is not None else None,
        "env": {key: os.environ.get(key)
                for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_record(args, workload, cores: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workloads.describe(workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": cores,
        "n_threads": {cell.name: cores if cell.parallel else 1 for cell in workload.cells},
        "core_switch_s": CORE_SWITCH_S if workload.single_threaded else None,
        "blas": blas_record(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args, workload, cores: int, record: dict) -> tuple[dict, list[Round]]:
    """Untraced run: set-up probes, then rounds until --seconds would pass."""
    setup = measure_setup()
    with rotating_cores(workload.single_threaded):
        workloads.warm_up()
        api = plain_api()
        rounds: list[Round] = []
        start = perf_counter()
        while not rounds or perf_counter() - start + rounds[-1].wall_s <= args.seconds:
            rounds.append(run_round(workload, args.seed, len(rounds), api, cores))

    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(r.wall_s for r in rounds), "s"),
        "traj_per_s": metric(
            statistics.median(r.trajectories / r.ensemble_s for r in rounds), "1/s"),
        "peak_rss_mb": metric(peak_rss_mib(), "MiB"),
    }
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    record["samples"] = {
        "rounds": len(rounds),
        "setup_s": setup,
        "wall_s": [r.wall_s for r in rounds],
        "traj_per_s": [r.trajectories / r.ensemble_s for r in rounds],
    }
    record["report"] = {
        "failed_frac": metric(failed / attempted, "1"),
        "attempted_cells": attempted,
    }
    if any(cell.oracle for cell in workload.cells):
        record["report"]["oracle_s"] = metric(statistics.median(r.oracle_s for r in rounds), "s")
        record["max_z"] = [r.max_z for r in rounds]
    record["decay_times"] = rounds[0].decay_times
    return metrics, rounds


def measure_traced(args, workload, cores: int, record: dict) -> tuple[dict, list[Round]]:
    """Traced run: one untraced round, then two traced rounds, one seed."""
    with rotating_cores(workload.single_threaded):
        workloads.warm_up()
        base = run_round(workload, args.seed, 0, plain_api(), cores)
        tracers, traced = [], []
        for _ in range(2):
            tracer = spans.Tracer()
            with tracer.installed():
                traced.append(run_round(workload, args.seed, 0, tracer.api(), cores, tracer))
            tracers.append(tracer)

    layers = [spans.layer_metrics(t.spans) for t in tracers]
    for name in spans.REPEATABLE:
        if layers[0][name] != layers[1][name]:
            traced[1].problems.append(
                f"count {name} not repeated: {layers[0][name]} then {layers[1][name]}")
    for index, r in enumerate(traced):
        if r.digest != base.digest:
            r.problems.append(f"traced round {index} outputs differ from the untraced round")
    metrics = {name: metric(layers[0][name], unit)
               for name, unit in spans.PER_LAYER_UNITS.items()}
    metrics["trace.overhead_s"] = metric(traced[0].wall_s - base.wall_s, "s")
    record["report"] = {"untraced_wall_s": metric(base.wall_s, "s"),
                        "traced_wall_s": metric(traced[0].wall_s, "s")}

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
    path.write_text(json.dumps({"rounds": [t.records() for t in tracers]}))
    record["spans_file"] = str(path.relative_to(ROOT))
    return metrics, [base, *traced]


# ---------------------------------------------------------------------------
# command line


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")


def run_all(args) -> int:
    """Run every workload in its own process and print all their metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SOURCE / "lrusim" / "__init__.py").is_file():
        print(f"no lrusim sources under {SOURCE}", file=sys.stderr)
        return 2
    errors = checks.self_test()
    if errors:
        print("output checks failed their self-test:", *errors, sep="\n  ", file=sys.stderr)
        return 3

    workload = workloads.WORKLOADS[args.workload]
    cores = nproc()
    if workload.single_threaded:
        pin_blas_to_one_thread()
    record = run_record(args, workload, cores)
    measure_fn = measure_traced if args.trace else measure
    metrics, rounds = measure_fn(args, workload, cores, record)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    for p in problems:
        print(p, file=sys.stderr)
    record["problems"] = problems
    print_table(f"{workload.name} seed={args.seed} trace={args.trace} "
                f"rounds={len(rounds)} cells={attempted} failed={failed}", metrics)
    if "report" in record:
        print_table("  report", {k: v for k, v in record["report"].items()
                                 if isinstance(v, dict)})
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
