"""Real-coded genetic algorithm over trained surrogates.

The fitness of a candidate input is the equal-weight signed sum of z-scored
surrogate predictions: maximized targets contribute +(pred - mean)/std,
minimized ones the negative, ignored ones nothing. Selection is roulette
(fitness-proportional after shifting by the population minimum), crossover
is blend (BLX-alpha), mutation is per-individual Gaussian, and elites pass
through unchanged so the best fitness never regresses.

Mutation is self-scaling: the per-gene standard deviation is 0.1 times the
population's current range of that gene, floored at a small fraction of the
bounds span. Early on this explores at domain scale; as the population
concentrates the kicks shrink with it, which is what lets the search refine
an optimum to far better than the initial mutation scale while keeping
enough spread to walk off the flat plateaus a tree surrogate produces.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import FEATURE_COLUMNS, TARGET_COLUMNS, mass_balance_ok
from .errors import InfeasibleBounds, MissingModel, UnknownApplication, require_int

MAXIMIZE = "maximize"
MINIMIZE = "minimize"
IGNORE = "ignore"

_BLX_ALPHA = 0.5
_MUTATION_RANGE_FRACTION = 0.1
_MUTATION_FLOOR_FRACTION = 0.005  # of the bounds span, keeps plateau escapes alive

_BUILTIN_PROFILES = {
    "energy": {
        "hc_c": MAXIMIZE,
        "hc_h": MAXIMIZE,
        "hc_n": MINIMIZE,
        "hc_o": MINIMIZE,
        "hc_s": MINIMIZE,
        "hc_vm": MINIMIZE,
        "hc_fc": IGNORE,
        "hc_ash": MINIMIZE,
        "hc_hhv": MAXIMIZE,
        "hc_yield": MAXIMIZE,
    },
    "soil": {
        "hc_c": IGNORE,
        "hc_h": IGNORE,
        "hc_n": MAXIMIZE,
        "hc_o": IGNORE,
        "hc_s": MAXIMIZE,
        "hc_vm": IGNORE,
        "hc_fc": IGNORE,
        "hc_ash": MAXIMIZE,
        "hc_hhv": MINIMIZE,
        "hc_yield": MAXIMIZE,
    },
    "adsorption": {
        "hc_c": IGNORE,
        "hc_h": IGNORE,
        "hc_n": MAXIMIZE,
        "hc_o": MAXIMIZE,
        "hc_s": MAXIMIZE,
        "hc_vm": IGNORE,
        "hc_fc": IGNORE,
        "hc_ash": MAXIMIZE,
        "hc_hhv": MINIMIZE,
        "hc_yield": MAXIMIZE,
    },
}


@dataclass
class ObjectiveProfile:
    """Optimization direction for each of the 10 hydrochar responses."""

    name: str
    directions: dict[str, str]  # {target: direction}, copied in canonical order

    def __post_init__(self):
        missing = [t for t in TARGET_COLUMNS if t not in self.directions]
        if missing:
            raise ValueError(f"profile missing directions for {missing}")
        extra = sorted(set(self.directions) - set(TARGET_COLUMNS))
        if extra:
            raise ValueError(f"profile names unknown targets {extra}")
        self.directions = {t: self.directions[t] for t in TARGET_COLUMNS}
        for t, d in self.directions.items():
            if d not in (MAXIMIZE, MINIMIZE, IGNORE):
                raise ValueError(f"unknown direction {d!r} for {t}")
        if all(d == IGNORE for d in self.directions.values()):
            raise ValueError("profile must have at least one non-ignored target")

    @classmethod
    def builtin(cls, name: str) -> "ObjectiveProfile":
        if name not in _BUILTIN_PROFILES:
            choices = ", ".join(sorted(_BUILTIN_PROFILES))
            raise UnknownApplication(f"unknown application {name!r}; choose one of {choices}, or a .json direction-map file")
        return cls(name, _BUILTIN_PROFILES[name])

    def active(self) -> list[tuple[str, float]]:
        """(target, sign) for every non-ignored target."""
        signs = {MAXIMIZE: 1.0, MINIMIZE: -1.0}
        return [(t, signs[d]) for t, d in self.directions.items() if d != IGNORE]


@dataclass(frozen=True)
class GaConfig:
    bounds: tuple[tuple[float, float], ...]
    population: int = 1000
    crossover_prob: float = 0.5
    mutation_prob: float = 0.3
    generations: int = 200
    elitism: int = 2
    stagnation_limit: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("population", "generations", "elitism", "stagnation_limit", "seed"):
            require_int(name, getattr(self, name))
        if not self.bounds:
            raise ValueError("bounds must hold at least one gene")
        if self.population < 2:
            raise ValueError("population must be >= 2")
        for p in (self.crossover_prob, self.mutation_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        for name in ("generations", "stagnation_limit", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0 <= self.elitism < self.population:
            raise ValueError("elitism must lie in [0, population)")
        for lo, hi in self.bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):  # lo == hi pins the gene
                raise ValueError(f"invalid gene bounds ({lo}, {hi})")


@dataclass
class GaResult:
    best_inputs: np.ndarray
    best_fitness: float
    predicted_outputs: dict[str, float]
    history: list[float]  # best fitness so far after each generation, so one more entry than generations run


def surrogate_objective(models: dict, profile: ObjectiveProfile):
    """Batch fitness: maps an (m, 11) array of raw inputs to m values.

    Each value is the signed standardized-prediction sum over the profile's
    active targets. ``models`` maps target name to an object with a batch
    ``predict(rows)`` and the ``target_mean``/``target_std`` of its training
    data. A missing model raises MissingModel up front.
    """
    active = profile.active()
    for target, _ in active:
        if target not in models:
            raise MissingModel(target)

    def objective(pop: np.ndarray) -> np.ndarray:
        total = np.zeros(pop.shape[0])
        for target, sign in active:
            model = models[target]
            total += sign * (model.predict(pop) - model.target_mean) / model.target_std
        return total

    return objective


def run_ga(objective, config: GaConfig, feasible) -> tuple[np.ndarray, float, list[float], int]:
    """Core GA loop over a batch objective; returns (x, f, history, gens).

    ``objective`` maps an (m, d) array to m fitness values (maximized) and
    ``feasible`` maps it to a boolean mask; infeasible individuals score -inf
    and can never be selected or win. ``history`` is the best fitness so far
    after each generation: f is its last entry and gens its length less one.
    """
    bounds = np.asarray(config.bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    span = hi - lo
    d = len(bounds)
    rng = np.random.default_rng(config.seed)
    for _ in range(100):
        pop = lo + rng.random((config.population, d)) * span
        if feasible(pop).any():
            break
    else:
        raise InfeasibleBounds("no feasible individual in 100x population draws")

    def evaluate(p: np.ndarray) -> np.ndarray:
        fit = np.asarray(objective(p), dtype=float)
        return np.where(feasible(p), fit, -np.inf)

    fit = evaluate(pop)
    i = int(np.argmax(fit))
    best_x, history = pop[i].copy(), [float(fit[i])]
    for _ in range(config.generations):
        elite = pop[np.argsort(-fit, kind="stable")[: config.elitism]]
        # Roulette on fitness shifted by the finite minimum; when every finite
        # fitness ties, uniform over the finite ones; when none is finite, over all.
        finite = np.isfinite(fit)
        least = fit[finite].min() if finite.any() else 0.0
        with np.errstate(over="ignore"):
            weights = np.where(finite, fit - least, 0.0)
            if not np.isfinite(weights.sum()):  # the shift or its sum overflows; over 4n, neither can
                weights = np.where(finite, fit / (4 * len(fit)) - least / (4 * len(fit)), 0.0)
        if not weights.sum() > 0.0:
            weights = finite.astype(float)
        if not weights.sum() > 0.0:
            weights = np.ones(len(fit))
        n_children = config.population - config.elitism
        parents = rng.choice(config.population, size=n_children, p=weights / weights.sum())
        children = pop[parents].copy()
        _blend_crossover(children, rng, config.crossover_prob)
        pop_range = pop.max(axis=0) - pop.min(axis=0)
        sd = _MUTATION_RANGE_FRACTION * np.maximum(pop_range, _MUTATION_FLOOR_FRACTION * span)
        mutate = rng.random(n_children) < config.mutation_prob
        noise = rng.standard_normal((n_children, d)) * sd
        children[mutate] += noise[mutate]
        np.clip(children, lo, hi, out=children)
        pop = np.vstack([elite, children])
        fit = evaluate(pop)
        i = int(np.argmax(fit))
        if fit[i] > history[-1]:
            best_x = pop[i].copy()
        history.append(max(history[-1], float(fit[i])))
        # stagnant: no gain in the last stagnation_limit generations (a NaN best never gains)
        if len(history) > config.stagnation_limit and not history[-1] > history[-1 - config.stagnation_limit]:
            break
    if not np.isfinite(history[-1]):
        raise InfeasibleBounds("search never produced a feasible individual")
    return best_x, history[-1], history, len(history) - 1


def _blend_crossover(children: np.ndarray, rng: np.random.Generator, prob: float) -> None:
    """BLX-alpha on consecutive pairs of the mating pool, in place.

    Draws one uniform per pair to choose the crossing pairs, then 2d per
    crossing pair: the first d place child a, the last d child a + 1.
    """
    n_pairs, d = len(children) // 2, children.shape[1]
    a = 2 * np.flatnonzero(rng.random(n_pairs) < prob)
    u = rng.random((len(a), 2 * d))
    pa, pb = children[a], children[a + 1]
    lo_g = np.minimum(pa, pb)
    hi_g = np.maximum(pa, pb)
    width = hi_g - lo_g
    c_lo = lo_g - _BLX_ALPHA * width
    c_hi = hi_g + _BLX_ALPHA * width
    children[a] = c_lo + u[:, :d] * (c_hi - c_lo)
    children[a + 1] = c_lo + u[:, d:] * (c_hi - c_lo)


def optimize(models: dict, profile: ObjectiveProfile, config: GaConfig) -> GaResult:
    """Search the 11-dimensional input space of the trained surrogates.

    ``models`` maps target name to a trained surrogate with ``predict`` and
    ``target_mean``/``target_std`` attributes. Individuals violating the
    feedstock mass-balance constraints are infeasible.
    """
    objective = surrogate_objective(models, profile)
    best_x, best_f, history, _ = run_ga(objective, config, feasible=mass_balance_ok)
    outputs = {t: float(models[t].predict(best_x.reshape(1, -1))[0]) for t in models}
    return GaResult(best_x, best_f, outputs, history)


def report(result: GaResult, profile: ObjectiveProfile, config: GaConfig) -> dict:
    """JSON-ready optimization report: optimum inputs, predicted outputs,
    the direction map, and the full configuration; the CLI adds provenance."""
    return {
        "application": profile.name,
        "directions": dict(profile.directions),
        "best_inputs": {name: float(v) for name, v in zip(FEATURE_COLUMNS, result.best_inputs)},
        "predicted_outputs": {t: result.predicted_outputs[t] for t in TARGET_COLUMNS if t in result.predicted_outputs},
        "best_fitness": result.best_fitness,
        "generations_run": len(result.history) - 1,
        "history": [float(v) for v in result.history],
        "config": asdict(config),
    }


def render_table(rep: dict) -> str:
    """Human-readable two-column table of an optimization report."""
    lines = [f"application: {rep['application']}   seed: {rep['config']['seed']}",
             f"best fitness: {rep['best_fitness']:.6g} after {rep['generations_run']} generations",
             "", f"{'optimum inputs':<28}{'value':>12}"]
    for name, v in rep["best_inputs"].items():
        lines.append(f"  {name:<26}{v:>12.4g}")
    lines.append(f"{'predicted outputs':<28}{'value':>12}")
    for name, v in rep["predicted_outputs"].items():
        direction = rep["directions"].get(name, "")
        lines.append(f"  {name:<26}{v:>12.4g}  ({direction})")
    return "\n".join(lines)
