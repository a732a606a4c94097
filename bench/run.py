"""Benchmark of the hydrochar CLI workflow: one workload per invocation.

    python3 bench/run.py --workload dtr-train --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 22 --trace 0

A run sets the workload up several times in fresh interpreters (setup_s is
their median), then runs the timed command chain in another fresh
interpreter until ``--seconds`` would be exceeded, checking every artifact.
wall_s is the median over those iterations. Every iteration and every
set-up is scaled by the host speed sampled while it ran (``probe.py``), so
that slow phases of a shared host do not read as regressions; the raw
medians are printed beside them. With ``--trace 1`` the run
splits its time between an untraced chain and one with the layer wrappers
of ``tracing.py`` installed, and reports the per-layer metrics per
iteration.

Standard output is a human-readable summary followed, on the last line, by
one JSON object: ``correct``, ``attempted`` and ``failed`` count CLI
commands (failed = non-zero exit or a failed output check), and ``metrics``
holds the end-to-end metrics (trace 0) or the per-layer metrics (trace 1)
named in BENCHMARK.json. Command output and solver warnings go to the run
log under ``.bench_work/logs/``. ``--workload all`` runs every workload and
prints one row per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # a run must end within 180 s
# Workers run NumPy's BLAS on one thread: with the default pool of one
# thread per core, one seed's svr-train-explain explain step took 0.10 s or
# 0.68 s from run to run, depending on whether the second core was free.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _child(mode: str, args, directory: Path, log, deadline: float, seconds: float = 0.0,
           trace: bool = False) -> tuple[dict, float]:
    """Run one worker process; return its result and its wall time."""
    result_path = directory.parent / f"{directory.name}-{mode}-{int(trace)}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload, "--seed", str(args.seed),
           "--dir", str(directory), "--result", str(result_path), "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    log.write(f"# worker {' '.join(cmd[2:])}\n")
    log.flush()
    t0 = time.perf_counter()
    subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, check=True, timeout=deadline - time.monotonic(),
                   env=WORKER_ENV)
    wall = time.perf_counter() - t0
    return json.loads(result_path.read_text(encoding="utf-8")), wall


def _walls(chain: dict, command: str | None = None, raw: bool = False) -> list[float]:
    """Per-iteration time of a worker's chain, or of one command in it,
    scaled by the probe samples taken during the iteration."""
    walls = []
    for ops, sample in zip(chain["iterations"], chain["probes"]):
        wall = sum(op["seconds"] for op in ops if command in (None, op["command"]))
        walls.append(wall if raw else scaled(wall, sample))
    return walls


def measure(args, work: Path, log) -> tuple[dict, list[dict], dict]:
    """Run the workload; return (metrics with sample counts, all ops, digests)."""
    deadline = time.monotonic() + DEADLINE_S
    ops: list[dict] = []
    digests: dict[str, set[str]] = {}

    def collect(op_list, extra_digests=()):
        for op in op_list:
            ops.append(op)
            for key, value in op["digests"].items():
                digests.setdefault(key, set()).add(value)
        for key, value in dict(extra_digests).items():
            digests.setdefault(key, set()).add(value)

    setup_walls, raw_setup_walls = [], []
    for k in range(SETUP_REPEATS if not args.trace else 1):
        setup, wall = _child("setup", args, work / f"setup{k}", log, deadline)
        # The worker's own checks and digests are not set-up work.
        raw_setup_walls.append(wall - setup["harness_s"])
        setup_walls.append(scaled(raw_setup_walls[-1], setup["probe"]))
        collect(setup["ops"], setup["digests"])
    # A traced run splits its time between an untraced and a traced chain.
    seconds = args.seconds / 2 if args.trace else args.seconds
    chain, _ = _child("chain", args, work / "setup0", log, deadline, seconds=seconds)
    for it in chain["iterations"]:
        collect(it)
    walls = _walls(chain)
    metrics: dict[str, tuple[float, str, int]] = {}
    if args.trace:
        traced, _ = _child("chain", args, work / "setup0", log, deadline, seconds=seconds, trace=True)
        for it in traced["iterations"]:
            collect(it)
        layers = traced["layers"]
        traced_walls = _walls(traced)
        layers["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        layers["cli.artifact_bytes"] = sum(op["bytes"] for op in traced["iterations"][0])
        n = len(traced_walls)
        for m in _spec()["per_layer"]:
            metrics[m["name"]] = (float(layers.get(m["name"], 0.0)), m["unit"], n)
        return metrics, ops, digests

    metrics["wall_s"] = (statistics.median(walls), "s", len(walls))
    metrics["raw_wall_s"] = (statistics.median(_walls(chain, raw=True)), "s", len(walls))
    metrics["setup_s"] = (statistics.median(setup_walls), "s", len(setup_walls))
    metrics["raw_setup_s"] = (statistics.median(raw_setup_walls), "s", len(setup_walls))
    metrics["peak_rss_mb"] = (chain["peak_rss_mb"], "MB", 1)
    for name in ("holdout_r2_mean", "test_r2_mean"):
        r2 = [op[name] for op in ops if name in op]
        metrics[name] = (statistics.median(r2), "r2", len(r2))
    # Stage times are printed for reading; only BENCHMARK.json's metrics go into the result line.
    for name in dict.fromkeys(op["command"] for op in chain["iterations"][0]):
        per_iter = _walls(chain, name)
        metrics[f"{name}_s"] = (statistics.median(per_iter), "s", len(per_iter))
    fitness = [op["best_fitness"] for op in ops if "best_fitness" in op]
    if fitness:
        metrics["ga_best_fitness"] = (statistics.median(fitness), "fitness", len(fitness))
    return metrics, ops, digests


def _summary(workload: str, seed: int, metrics: dict, attempted: int, failed: int) -> str:
    cells = [f"{name}={value:.6g} {unit} (n={n})" for name, (value, unit, n) in metrics.items()]
    return f"{workload} seed={seed} failed_ops_ratio={failed}/{attempted} " + " ".join(cells)


def run_one(args) -> int:
    spec = _spec()
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}-{os.getpid()}"
    logs = WORK / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    log_path = logs / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.log"
    work.mkdir(parents=True)
    try:
        with log_path.open("w", encoding="utf-8") as log:
            metrics, ops, digests = measure(args, work, log)
            problems = [f"{op['label']}: {p}" for op in ops for p in op["problems"]]
            mismatched = sorted(k for k, v in digests.items() if len(v) != 1)
            log.write("# artifact digests (SHA-256)\n")
            for key in sorted(digests):
                log.write(f"{key} {' '.join(sorted(digests[key]))}\n")
            for p in problems + [f"digest differs between runs: {k}" for k in mismatched]:
                log.write(f"FAILED {p}\n")
    except subprocess.CalledProcessError as exc:
        print(f"error: worker exited with {exc.returncode}; see {log_path}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {DEADLINE_S:.0f} s; see {log_path}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for op in ops if op["problems"])
    correct = failed == 0 and not mismatched
    print(f"run log: {log_path.relative_to(ROOT)}")
    for p in problems + [f"digest differs between runs: {k}" for k in mismatched]:
        print(f"FAILED {p}")
    print(_summary(args.workload, args.seed, metrics, len(ops), failed))
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one row per workload."""
    names = [w["name"] for w in _spec()["workloads"]]
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed ({proc.stderr.strip()})")
            status = 1
            continue
        print(lines[-2])
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and waits for the worker,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "hydrochar" / "__init__.py").is_file():
        print(f"error: no hydrochar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
