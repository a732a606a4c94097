"""One benchmark child process: set up a workload, or run its command chain.

    python3 bench/worker.py setup --workload W --seed S --dir D --result R
    python3 bench/worker.py chain --workload W --seed S --dir D --result R \
        --seconds N [--trace]

Each mode runs in a fresh interpreter that imports ``hydrochar`` from the
checkout's ``src/``. Commands go through ``hydrochar.cli.main(argv)``, except
explain (see ``explain_plot``); their standard output, and every solver
warning, go to this process's standard output, which the parent sends to
the run log. The result is written as JSON to ``--result``; each step is
scaled by the speed probe (``probe.py``) started when the process starts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

from probe import NOMINAL_S, Probe

if __name__ == "__main__":
    PROBE = Probe()  # started before hydrochar loads, so set-up time is sampled too

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Command, Workload, holdout, write_inputs  # noqa: E402


def import_program():
    """Import ``hydrochar`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import hydrochar

    if Path(hydrochar.__file__).resolve().parent != src / "hydrochar":
        raise ImportError(f"hydrochar was imported from {hydrochar.__file__}, not {src}")
    return hydrochar


def _option(cmd: Command, flag: str, default: str) -> str:
    return cmd.args[cmd.args.index(flag) + 1] if flag in cmd.args else default


class Runner:
    """Runs commands of one workload against one inputs directory."""

    def __init__(self, workload: Workload, seed: int, inputs: Path, tracer: Tracer | None = None):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.tracer = tracer
        # Time spent on the benchmark's own work (checks, digests, holdout
        # scoring) after commands.
        self.harness_s = 0.0

    def argv(self, cmd: Command, out: Path) -> list[str]:
        files = {ds.file for ds in self.workload.datasets} | set(self.workload.grids)
        args = [str(self.inputs / a) if a in files else a for a in cmd.args]
        return [cmd.name, "--data", str(self.inputs / cmd.data), "--out", str(out), "--seed", str(self.seed), *args]

    def run(self, cmd: Command, out: Path) -> dict:
        """Time one command, then check and digest what it wrote."""
        from hydrochar import cli

        # explain runs in-process without its plot files; see explain_plot.
        main, span = (explain_plot, "lib.explain") if cmd.name == "explain" else (cli.main, f"cli.{cmd.name}")
        if self.tracer is not None:
            main = self.tracer.wrap(span, main)
        buf = io.StringIO()
        plot = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(self.argv(cmd, out))
            if cmd.name == "explain":
                plot, code = code, 0
        except (Exception, SystemExit) as exc:  # a crash counts as a failed command
            code = repr(exc)
        seconds = time.perf_counter() - t0
        try:
            return self.record(cmd, out, code, buf.getvalue(), seconds, plot)
        finally:
            self.harness_s += time.perf_counter() - t0 - seconds

    def record(self, cmd: Command, out: Path, code, stdout: str, seconds: float, plot=None) -> dict:
        """Log the command's output, then check and digest what it wrote
        (for the explain step, the plot data it returned)."""
        print(f"$ hydrochar {' '.join(self.argv(cmd, out))}\n{stdout}", flush=True)
        op = {"label": cmd.label(), "command": cmd.name, "seconds": seconds, "digests": {}, "bytes": 0}
        if code != 0:
            op["problems"] = [f"exit code {code}"]
            return op
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            op["problems"] = self.check(cmd, out, stdout, op, plot)
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True
        return op

    def check(self, cmd: Command, out: Path, stdout: str, op: dict, plot=None) -> list[str]:
        table = self.inputs / cmd.data
        kind = _option(cmd, "--model", "dtr")
        files = list(checks.ARTIFACTS[cmd.name])
        if cmd.name == "validate":
            problems = checks.check_validate(stdout, table)
        elif cmd.name == "stats":
            problems = checks.check_stats(out, table)
        elif cmd.name == "train":
            dataset = next(ds for ds in self.workload.datasets if ds.file == cmd.data)
            problems = checks.check_train(out, table, kind, dataset.reported)
            files += checks.model_files(out, kind)
            if not problems:
                report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                r2 = [m["test"]["r2"] for m in report["models"][kind].values()]
                op["test_r2_mean"] = sum(r2) / len(r2)
                op["holdout_r2_mean"] = checks.holdout_r2(out, kind, *holdout(dataset, self.seed))
        elif cmd.name == "evaluate":
            problems = checks.check_evaluate(out, table, kind)
        elif cmd.name == "explain":
            target = _option(cmd, "--target", "")
            problems = checks.check_explain(plot, out / f"model_{kind}_{target}.json", table)
            op["digests"][f"{op['label']}/plot"] = checks.plot_digest(plot)
        else:
            problems = checks.check_optimize(out)
            if not problems:
                op["best_fitness"] = json.loads((out / "optimum.json").read_text(encoding="utf-8"))["best_fitness"]
        for name in files:
            path = out / name
            if path.is_file():
                op["digests"][f"{op['label']}/{name}"] = checks.sha256(path)
                op["bytes"] += path.stat().st_size
        return problems


def explain_plot(argv: list[str]):
    """``hydrochar explain`` up to, not including, writing its files.

    hydrochar 0.1.0 writes the ``fx`` column of heatmap.csv as NumPy scalar
    reprs (``np.float64(54.6...)``) under NumPy 2, which is not a number, so
    every run of the command would fail its output check. This
    step makes the same calls as ``cli.cmd_explain`` (the program's parser,
    saved model, background draw, one ``shapley.explain`` per row and
    ``shapley.emit_plot_data``) and returns the plot data, without the
    ``out_dir`` that makes ``emit_plot_data`` write the files.
    """
    import numpy as np
    from hydrochar import cli, data, pipeline, shapley

    args = cli.build_parser().parse_args(argv)
    cfg = cli.RunConfig.from_args(args)
    kind = cfg.model if cfg.model in ("dtr", "svr") else "dtr"
    path = cli._model_path(cfg.out, kind, args.target)
    model = pipeline.TrainedTarget.from_json_obj(json.loads(path.read_text(encoding="utf-8")))
    ds = data.load_csv(cfg.data)
    plan = data.split(ds, seed=cfg.seed)
    x = ds.feature_matrix()
    train_x = x[plan.train_indices]
    rng = np.random.default_rng(cfg.seed)
    take = min(cfg.background, len(train_x))
    background = train_x[rng.choice(len(train_x), size=take, replace=False)]
    explanations = [shapley.explain(model.predict, row, background) for row in x]
    return shapley.emit_plot_data(explanations, feature_names=ds.feature_names)


def run_setup(workload: Workload, seed: int, directory: Path) -> dict:
    """Write the inputs and run the set-up commands (pre-training) once.

    ``harness_s`` is the time this process spent on the benchmark's own
    work, which the parent takes out of set-up time.
    """
    write_inputs(workload, seed, directory)
    t0 = time.perf_counter()
    digests = {f"input/{p.name}": checks.sha256(p) for p in sorted(directory.iterdir()) if p.is_file()}
    out = directory / "out"
    out.mkdir()
    runner = Runner(workload, seed, directory)
    harness_s = time.perf_counter() - t0
    ops = [runner.run(cmd, out) for cmd in workload.setup]
    return {"ops": ops, "digests": digests, "harness_s": harness_s + runner.harness_s}


def run_chain(workload: Workload, seed: int, inputs: Path, work: Path, seconds: float,
              tracer: Tracer | None = None, probe: Probe | None = None) -> dict:
    """Repeat the timed chain until ``seconds`` would be exceeded (at least once).

    Every iteration starts from a fresh copy of the set-up outputs, so each
    one does the same work. ``probes`` holds the mean probe sample taken
    during each iteration (see probe.py).
    """
    runner = Runner(workload, seed, inputs, tracer)
    iterations, probes = [], []
    start = time.perf_counter()
    while True:
        out = work / f"iter{len(iterations)}"
        shutil.copytree(inputs / "out", out)
        t0 = time.perf_counter()
        iterations.append([runner.run(cmd, out) for cmd in workload.chain])
        probes.append(probe.mean(t0, time.perf_counter()) if probe is not None else NOMINAL_S)
        shutil.rmtree(out)
        walls = [sum(op["seconds"] for op in ops) for ops in iterations]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    result = {"iterations": iterations, "probes": probes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["layers"] = tracer.metrics(len(iterations))
    return result


def _log_warnings(hydrochar) -> None:
    """Print every solver ConvergenceWarning as its own run-log line."""
    warnings.simplefilter("always", hydrochar.errors.ConvergenceWarning)

    def show(message, cat, filename, lineno, file=None, line=None):
        print(f"warning: {cat.__name__}: {message}", flush=True)

    warnings.showwarning = show


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "chain"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    hydrochar = import_program()
    _log_warnings(hydrochar)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = run_setup(workload, args.seed, args.dir)
        result["probe"] = PROBE.mean()
    else:
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            result = run_chain(workload, args.seed, args.dir, args.dir / f"chain-{int(args.trace)}",
                               args.seconds, tracer, PROBE)
        finally:
            if tracer is not None:
                tracer.restore()
    PROBE.stop()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
