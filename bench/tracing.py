"""Outside-in tracing: timing and counting wrappers around hydrochar's layers.

``Tracer.install`` replaces each public entry point with a wrapper at every
place the name is looked up: the defining module, modules that bound it
with ``from ... import``, and the class for methods. ``Tracer.restore`` puts
every original back. A wrapper records one span per call; a layer's self
time is its total time minus the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

import numpy as np


def _rows(a) -> int:
    return np.atleast_2d(np.asarray(a)).shape[0]


class Tracer:
    """In-memory per-layer totals: seconds, child seconds, counts, samples."""

    def __init__(self):
        self.seconds: Counter = Counter()
        self.child_seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.enabled = True
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None, proxy_arg=None):
        """Timed wrapper around ``fn``.

        ``count(tracer, args, result, seconds)`` runs after each successful
        call. ``proxy_arg(tracer, arg0)`` replaces the first argument, for
        layers that receive a callable whose calls should be counted.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if proxy_arg is not None:
                args = (proxy_arg(tracer, args[0]),) + args[1:]
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                tracer.counts[name + ".calls"] += 1
                tracer.seconds[name] += dt
                tracer.child_seconds[name] += frame[0]
            if count is not None:
                count(tracer, args, result, dt)
            return result

        return wrapper

    def patch(self, owners, attr, name, count=None, proxy_arg=None):
        """Bind a wrapper for ``attr`` on every owner that has the name.

        Owners that bind the same object share one wrapper; an owner
        without the name does not look it up and is skipped.
        """
        wrappers = {}
        for owner in owners:
            original = vars(owner).get(attr)
            if original is None:
                continue
            if id(original) not in wrappers:
                wrappers[id(original)] = self.wrap(name, original, count, proxy_arg)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the public entry points of every hydrochar layer.

        The names bound with ``from ... import`` in ``pipeline`` and
        ``genetic`` are wrapped there too, because those modules look them
        up in their own globals.
        """
        from hydrochar import cart, data, genetic, pipeline, shapley, stats, svr

        self.patch([data], "load_csv", "data.load_csv", count=_count_load)
        self.patch([stats], "correlation_matrix", "stats.correlation_matrix")
        self.patch([stats], "average_ranks", "stats.average_ranks")
        self.patch([stats], "factor_analysis", "stats.factor_analysis")
        self.patch([cart, pipeline], "fit_tree", "cart.fit_tree", count=_count_tree)
        self.patch([cart.RegressionTree], "predict_batch", "cart.predict_batch", count=_count_rows("cart.predict_batch.rows"))
        self.patch([svr, pipeline], "fit_svr", "svr.fit_svr", count=_count_svr)
        self.patch([svr], "kernel_matrix", "svr.kernel_matrix", count=_count_kernel)
        self.patch([svr.SvrModel], "predict_batch", "svr.predict_batch", count=_count_rows("svr.predict_batch.rows"))
        self.patch([pipeline], "train_all", "pipeline.train_all", count=_count_skips)
        self.patch([pipeline], "grid_search", "pipeline.grid_search", count=_count_grid)
        self.patch([pipeline.TrainedTarget], "predict", "pipeline.TrainedTarget.predict", count=_count_rows("pipeline.TrainedTarget.predict.rows"))
        self.patch([shapley], "explain", "shapley.explain", count=_count_explain)
        self.patch([shapley], "coalition_values", "shapley.coalition_values",
                   proxy_arg=_counted("shapley.model_rows"))
        self.patch([shapley], "emit_plot_data", "shapley.emit_plot_data")
        self.patch([genetic], "optimize", "genetic.optimize", count=_count_optimize)
        self.patch([genetic], "run_ga", "genetic.run_ga", count=_count_ga,
                   proxy_arg=_counted("genetic.objective_rows"))
        self.patch([data, genetic], "mass_balance_ok", "data.mass_balance_ok", count=_count_feasible)

    def metrics(self, iterations: int = 1) -> dict[str, float]:
        """Per-layer times and counts per chain iteration, plus ratios.

        ``<layer>.s`` is the summed wall time of the layer's calls and
        ``<layer>.self_s`` that time minus the wrapped calls made inside it.
        """
        out: dict[str, float] = {}
        for name, s in self.seconds.items():
            out[name + ".s"] = s / iterations
            out[name + ".self_s"] = (s - self.child_seconds[name]) / iterations
        for name, n in self.counts.items():
            out[name] = n / iterations
        rows = sorted(self.samples["shapley.explain.row_ms"])
        out["shapley.explain.row_ms.n"] = len(rows)
        if rows:
            pct = tail_percentile(len(rows))
            out["shapley.explain.row_ms.p50"] = percentile(rows, 50.0)
            out["shapley.explain.row_ms.tail"] = percentile(rows, pct)
            out["shapley.explain.row_ms.tail_pct"] = pct
        fits = self.counts["svr.fit_svr.calls"]
        out["svr.fit_svr.converged_ratio"] = self.counts["svr.fit_svr.converged"] / fits if fits else 0.0
        checked = self.counts["data.mass_balance_ok.rows"]
        out["genetic.feasible_ratio"] = self.counts["data.mass_balance_ok.passed"] / checked if checked else 0.0
        best = self.samples["genetic.best_fitness"]
        out["genetic.best_fitness"] = sum(best) / len(best) if best else 0.0
        out["svr.kernel_matrix.computed_bytes"] = 8 * out.get("svr.kernel_matrix.entries", 0)
        return out


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def _count_rows(name: str):
    """Rows of the batch a predict method receives (argument 1, after self)."""

    def count(tracer, args, result, dt):
        tracer.counts[name] += _rows(args[1])

    return count


def _count_load(tracer, args, result, dt):
    tracer.counts["data.load_csv.rows"] += result.n_rows


def _count_tree(tracer, args, result, dt):
    tracer.counts["cart.fit_tree.nodes"] += result.n_nodes


def _count_svr(tracer, args, result, dt):
    tracer.counts["svr.fit_svr.support_vectors"] += len(result.dual_coeffs)
    tracer.counts["svr.fit_svr.converged"] += int(result.converged)


def _count_kernel(tracer, args, result, dt):
    tracer.counts["svr.kernel_matrix.entries"] += int(result.size)


def _count_skips(tracer, args, result, dt):
    tracer.counts["pipeline.targets_skipped"] += sum(len(v) for v in result.skips.values())


def _count_grid(tracer, args, result, dt):
    tracer.counts["pipeline.grid_search.candidates"] += len(result.candidates)
    tracer.counts["pipeline.grid_search.failed_candidates"] += sum(
        1 for _, score in result.candidates if not math.isfinite(score)
    )


def _count_explain(tracer, args, result, dt):
    tracer.samples["shapley.explain.row_ms"].append(dt * 1e3)


def _count_optimize(tracer, args, result, dt):
    tracer.samples["genetic.best_fitness"].append(result.best_fitness)


def _count_ga(tracer, args, result, dt):
    tracer.counts["genetic.generations"] += result[3]


def _count_feasible(tracer, args, result, dt):
    tracer.counts["data.mass_balance_ok.rows"] += len(result)
    tracer.counts["data.mass_balance_ok.passed"] += int(np.count_nonzero(result))


def _counted(name: str):
    """Proxy for a batch callable that adds the rows it receives to ``name``."""

    def proxy(tracer, fn):
        def counted(rows):
            tracer.counts[name] += _rows(rows)
            return fn(rows)
        return counted

    return proxy
