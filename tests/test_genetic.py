import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrochar import data, genetic
from hydrochar.cart import TreeParams, fit_tree
from hydrochar.errors import InfeasibleBounds, MissingModel, UnknownApplication
from hydrochar.genetic import (
    GaConfig,
    ObjectiveProfile,
    optimize,
    render_table,
    report,
    run_ga,
    surrogate_objective,
)

from conftest import examples

TABLE_PROFILES = {
    "energy": {
        "hc_c": "maximize",
        "hc_h": "maximize",
        "hc_n": "minimize",
        "hc_o": "minimize",
        "hc_s": "minimize",
        "hc_vm": "minimize",
        "hc_fc": "ignore",
        "hc_ash": "minimize",
        "hc_hhv": "maximize",
        "hc_yield": "maximize",
    },
    "soil": {
        "hc_c": "ignore",
        "hc_h": "ignore",
        "hc_n": "maximize",
        "hc_o": "ignore",
        "hc_s": "maximize",
        "hc_vm": "ignore",
        "hc_fc": "ignore",
        "hc_ash": "maximize",
        "hc_hhv": "minimize",
        "hc_yield": "maximize",
    },
    "adsorption": {
        "hc_c": "ignore",
        "hc_h": "ignore",
        "hc_n": "maximize",
        "hc_o": "maximize",
        "hc_s": "maximize",
        "hc_vm": "ignore",
        "hc_fc": "ignore",
        "hc_ash": "maximize",
        "hc_hhv": "minimize",
        "hc_yield": "maximize",
    },
}


class ConstantModel:
    def __init__(self, value, mean=0.0, std=1.0):
        self.value = value
        self.target_mean = mean
        self.target_std = std

    def predict(self, rows):
        return np.full(np.atleast_2d(rows).shape[0], self.value)


def unit_bounds(d=3):
    return tuple((0.0, 1.0) for _ in range(d))


def everywhere(pop):
    """Feasibility mask that accepts every individual."""
    return np.ones(len(pop), dtype=bool)


def test_builtin_profiles_match_application_table():
    for name, expected in TABLE_PROFILES.items():
        profile = ObjectiveProfile.builtin(name)
        assert profile.directions == expected
        assert list(profile.directions) == list(data.TARGET_COLUMNS)


def test_profile_validation():
    with pytest.raises(UnknownApplication, match=r"^unknown application 'rocketry'; choose one of adsorption, energy, soil"):
        ObjectiveProfile.builtin("rocketry")
    with pytest.raises(ValueError):
        ObjectiveProfile("empty", {t: "ignore" for t in data.TARGET_COLUMNS})
    with pytest.raises(ValueError):
        ObjectiveProfile("partial", {"hc_yield": "maximize"})
    bad = dict(TABLE_PROFILES["energy"], hc_c="upward")
    with pytest.raises(ValueError):
        ObjectiveProfile("bad", bad)


def test_profile_holds_its_own_copy_in_target_order():
    given_order = dict(reversed(TABLE_PROFILES["soil"].items()))
    profile = ObjectiveProfile("soil-reversed", given_order)
    given_order["hc_c"] = "maximize"
    assert list(profile.directions) == list(data.TARGET_COLUMNS)
    assert profile.directions == TABLE_PROFILES["soil"]
    assert profile.active() == ObjectiveProfile.builtin("soil").active()


def test_fitness_hand_computed():
    profile = ObjectiveProfile.builtin("soil")
    models = {
        "hc_n": ConstantModel(4.0, 2.0, 2.0),        # +1.0
        "hc_s": ConstantModel(1.0, 0.5, 0.25),       # +2.0
        "hc_ash": ConstantModel(30.0, 20.0, 10.0),   # +1.0
        "hc_hhv": ConstantModel(20.0, 24.0, 4.0),    # minimize: -(-1.0) = +1.0
        "hc_yield": ConstantModel(60.0, 50.0, 20.0),  # +0.5
    }
    pop = np.zeros((3, 11))
    assert surrogate_objective(models, profile)(pop) == pytest.approx([5.5] * 3, abs=1e-12)


def test_fitness_missing_model():
    profile = ObjectiveProfile.builtin("soil")
    with pytest.raises(MissingModel):
        surrogate_objective({"hc_n": ConstantModel(1.0)}, profile)


def test_fitness_monotone_in_maximized_prediction(rng):
    directions = {t: "ignore" for t in data.TARGET_COLUMNS}
    directions["hc_yield"] = "maximize"
    profile = ObjectiveProfile("only-yield", directions)
    pop = np.zeros((1, 11))
    lo = surrogate_objective({"hc_yield": ConstantModel(40.0, 50.0, 10.0)}, profile)(pop)
    hi = surrogate_objective({"hc_yield": ConstantModel(70.0, 50.0, 10.0)}, profile)(pop)
    assert hi[0] > lo[0]


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(bounds=unit_bounds(), population=1)
    with pytest.raises(ValueError):
        GaConfig(bounds=unit_bounds(), crossover_prob=1.5)
    GaConfig(bounds=((0.5, 0.5), (0.0, 1.0)))  # lo == hi pins the gene
    nan, inf = float("nan"), float("inf")
    for lo, hi in ((1.0, 0.0), (nan, 1.0), (0.0, nan), (nan, nan), (-inf, inf), (0.0, inf), (inf, inf)):
        with pytest.raises(ValueError, match="invalid gene bounds"):
            GaConfig(bounds=((lo, hi),))
    with pytest.raises(ValueError):
        GaConfig(bounds=unit_bounds(), elitism=100, population=50)
    for name in ("generations", "stagnation_limit"):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            GaConfig(bounds=unit_bounds(), **{name: -1})


def test_sphere_convergence_quick():
    c = np.array([0.3, 0.6, 0.45])

    def sphere(pop):
        return -np.sum((pop - c) ** 2, axis=1)

    for seed in (0, 1):
        cfg = GaConfig(bounds=unit_bounds(), population=100, generations=200,
                       stagnation_limit=200, seed=seed)
        best_x, best_f, history, gens = run_ga(sphere, cfg, everywhere)
        assert np.abs(best_x - c).max() <= 1e-2
        assert all(b >= a for a, b in zip(history, history[1:]))


def test_zero_generations_returns_best_of_initial():
    def quad(pop):
        return -np.sum(pop**2, axis=1)

    cfg = GaConfig(bounds=unit_bounds(), population=50, generations=0, seed=3)
    best_x, best_f, history, gens = run_ga(quad, cfg, everywhere)
    assert gens == 0
    assert len(history) == 1
    assert np.all(best_x >= 0.0) and np.all(best_x <= 1.0)
    rng = np.random.default_rng(3)
    pop = rng.random((50, 3))
    assert best_f == pytest.approx(float(np.max(-np.sum(pop**2, axis=1))), abs=1e-12)


def test_determinism():
    def obj(pop):
        return -np.sum((pop - 0.5) ** 2, axis=1)

    cfg = GaConfig(bounds=unit_bounds(), population=40, generations=30, seed=11)
    a = run_ga(obj, cfg, everywhere)
    b = run_ga(obj, cfg, everywhere)
    assert np.array_equal(a[0], b[0])
    assert a[1] == b[1]
    assert a[2] == b[2]


def test_every_evaluated_individual_within_bounds():
    seen = []

    def recorder(pop):
        seen.append(pop.copy())
        return -np.sum(pop**2, axis=1)

    bounds = ((-2.0, 1.0), (0.5, 3.0))
    cfg = GaConfig(bounds=bounds, population=30, generations=20, seed=5)
    run_ga(recorder, cfg, everywhere)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    for pop in seen:
        assert np.all(pop >= lo - 1e-12)
        assert np.all(pop <= hi + 1e-12)


def test_roulette_over_fitnesses_spanning_past_the_float_range():
    """1e308 - -1e308 overflows, so the plain shift by the least fitness gives inf weights and NaN probabilities."""
    cfg = GaConfig(bounds=((0.0, 1.0),), population=10, generations=3, seed=0)
    best_x, best_f, history, gens = run_ga(lambda pop: np.where(pop[:, 0] > 0.5, 1e308, -1e308), cfg, everywhere)
    assert best_f == 1e308 and best_x[0] > 0.5
    assert history == [1e308] * (gens + 1)


def test_infeasible_bounds_raise():
    def obj(pop):
        return np.zeros(len(pop))

    cfg = GaConfig(bounds=unit_bounds(), population=20, generations=5, seed=0)
    with pytest.raises(InfeasibleBounds):
        run_ga(obj, cfg, feasible=lambda pop: np.zeros(len(pop), dtype=bool))


class TreeModel:
    def __init__(self, tree, mean, std):
        self.tree = tree
        self.target_mean = mean
        self.target_std = std

    def predict(self, rows):
        return self.tree.predict_batch(rows)


def tree_models(dataset):
    x = dataset.feature_matrix()
    y = dataset.target_matrix()
    return {
        t: TreeModel(fit_tree(x, y[:, j], TreeParams(max_depth=4)), float(y[:, j].mean()), float(y[:, j].std()))
        for j, t in enumerate(data.TARGET_COLUMNS)
    }


def test_optimize_rejects_mass_balance_violations(medium_dataset):
    x = medium_dataset.feature_matrix()
    models = tree_models(medium_dataset)
    bounds = tuple((float(col.min()), float(col.max())) for col in x.T)
    cfg = GaConfig(bounds=bounds, population=120, generations=40, seed=2)
    result = optimize(models, ObjectiveProfile.builtin("energy"), cfg)
    assert data.mass_balance_ok(result.best_inputs[None, :])[0]
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    assert np.all(result.best_inputs >= lo) and np.all(result.best_inputs <= hi)
    assert set(result.predicted_outputs) == set(data.TARGET_COLUMNS)
    assert all(b >= a for a, b in zip(result.history, result.history[1:]))


def test_report_echoes_inputs_and_roundtrips():
    c = np.array([0.25, 0.5, 0.75])

    def sphere(pop):
        return -np.sum((pop - c) ** 2, axis=1)

    cfg = GaConfig(bounds=unit_bounds(), population=40, generations=25, seed=7)
    best_x, best_f, history, gens = run_ga(sphere, cfg, everywhere)
    from hydrochar.genetic import GaResult

    result = GaResult(
        best_inputs=best_x,
        best_fitness=best_f,
        predicted_outputs={"hc_yield": 55.0},
        history=history,
    )
    profile = ObjectiveProfile.builtin("energy")
    rep = report(result, profile, cfg)
    assert (rep["best_fitness"], rep["generations_run"], rep["history"]) == (best_f, gens, history)
    got = [rep["best_inputs"][name] for name in data.FEATURE_COLUMNS[:3]]
    assert got == pytest.approx(best_x.tolist(), abs=0.0)
    assert json.dumps(rep, sort_keys=True) == json.dumps(
        json.loads(json.dumps(rep)), sort_keys=True
    )
    table = render_table(rep)
    assert "application: energy" in table
    assert "hc_yield" in table


@settings(max_examples=examples(100))
@given(n_children=st.integers(1, 500), d=st.integers(1, 11), seed=st.integers(0, 2**32 - 1),
       prob=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
def test_crossover_blends_crossing_pairs_and_draws_two_arrays(n_children, d, seed, prob):
    """Crossing pairs land in their parents' BLX-0.5 box, every other child is untouched, and
    the generator moves on by one uniform per pair, then 2d per crossing pair: the first d
    place child a, the last d child a + 1."""
    parents = np.random.default_rng(seed + 1).normal(size=(n_children, d))
    parents[:, 0] = 3.0  # equal parent genes give a zero-width blend
    children = parents.copy()
    rng = np.random.default_rng(seed)
    genetic._blend_crossover(children, rng, prob)

    replay = np.random.default_rng(seed)
    crossing = replay.random(n_children // 2) < prob
    u = replay.random((int(crossing.sum()), 2 * d))
    assert rng.random(5).tobytes() == replay.random(5).tobytes()
    if prob == 0.0:
        assert children.tobytes() == parents.tobytes()

    a = 2 * np.flatnonzero(crossing)
    if prob == 1.0:
        assert len(a) == n_children // 2  # and below, each child is placed by its own uniforms
    kept = np.ones(n_children, dtype=bool)
    kept[a] = kept[a + 1] = False
    assert children[kept].tobytes() == parents[kept].tobytes()
    lo_g, hi_g = np.minimum(parents[a], parents[a + 1]), np.maximum(parents[a], parents[a + 1])
    half = genetic._BLX_ALPHA * (hi_g - lo_g)
    c_lo, c_hi = lo_g - half, hi_g + half
    for child, place in ((children[a], u[:, :d]), (children[a + 1], u[:, d:])):
        assert np.all(child >= c_lo) and np.all(child <= c_hi)
        assert np.all(child[:, 0] == 3.0)
        assert child.tobytes() == (c_lo + place * (c_hi - c_lo)).tobytes()


def test_pinned_gene_returns_its_constant(medium_dataset):
    """A gene with lo == hi (a constant training column) stays at that value."""
    x = medium_dataset.feature_matrix()
    models = tree_models(medium_dataset)
    bounds = [(float(col.min()), float(col.max())) for col in x.T]
    pinned = data.FEATURE_COLUMNS.index("water_wt")
    value = float(np.median(x[:, pinned]))
    bounds[pinned] = (value, value)
    cfg = GaConfig(bounds=tuple(bounds), population=60, generations=15, seed=3)
    result = optimize(models, ObjectiveProfile.builtin("soil"), cfg)
    assert result.best_inputs[pinned] == value
    assert np.isfinite(result.best_fitness)


def _reference_run_ga(objective, config: GaConfig, feasible=None):
    """The GA loop as it was before its best-so-far history became its only record of progress: a running best,
    a stagnation counter and a generation counter beside the history. Kept as the reference for run_ga."""
    bounds = np.asarray(config.bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    span = hi - lo
    d = len(bounds)
    rng = np.random.default_rng(config.seed)
    for _ in range(100):
        pop = lo + rng.random((config.population, d)) * span
        if feasible is None or feasible(pop).any():
            break
    else:
        raise InfeasibleBounds("no feasible individual in 100x population draws")

    def evaluate(p):
        fit = np.asarray(objective(p), dtype=float)
        if feasible is not None:
            fit = np.where(feasible(p), fit, -np.inf)
        return fit

    fit = evaluate(pop)
    best_idx = int(np.argmax(fit))
    best_x = pop[best_idx].copy()
    best_f = float(fit[best_idx])
    history = [best_f]
    stagnant = 0
    gens = 0
    for _ in range(config.generations):
        order = np.argsort(-fit, kind="stable")
        elite = pop[order[: config.elitism]].copy()
        finite = np.isfinite(fit)
        if finite.any():
            shifted = np.where(finite, fit - fit[finite].min(), 0.0)
        else:
            shifted = np.zeros_like(fit)
        total = shifted.sum()
        if total > 0.0:
            probs = shifted / total
        else:
            probs = np.where(finite, 1.0, 0.0)
            probs = probs / probs.sum() if probs.sum() > 0 else np.full(len(fit), 1.0 / len(fit))
        n_children = config.population - config.elitism
        parents = rng.choice(config.population, size=n_children, p=probs)
        children = pop[parents].copy()
        genetic._blend_crossover(children, rng, config.crossover_prob)
        pop_range = pop.max(axis=0) - pop.min(axis=0)
        sd = genetic._MUTATION_RANGE_FRACTION * np.maximum(pop_range, genetic._MUTATION_FLOOR_FRACTION * span)
        mutate = rng.random(n_children) < config.mutation_prob
        noise = rng.standard_normal((n_children, d)) * sd
        children[mutate] += noise[mutate]
        np.clip(children, lo, hi, out=children)
        pop = np.vstack([elite, children]) if config.elitism else children
        fit = evaluate(pop)
        gens += 1
        gen_best = int(np.argmax(fit))
        if fit[gen_best] > best_f:
            best_f = float(fit[gen_best])
            best_x = pop[gen_best].copy()
            stagnant = 0
        else:
            stagnant += 1
        history.append(best_f)
        if stagnant >= config.stagnation_limit:
            break
    if not np.isfinite(best_f):
        raise InfeasibleBounds("search never produced a feasible individual")
    return best_x, best_f, history, gens


def _objective(kind: str, cut: float):
    """Batch objectives with a smooth optimum, plateaus (ties), or NaN over part or all of the space."""
    if kind == "sphere":
        return lambda pop: -np.sum((pop - cut) ** 2, axis=1)
    if kind == "plateau":
        return lambda pop: np.floor(4.0 * pop[:, 0])
    if kind == "nan-above-cut":
        return lambda pop: np.where(pop[:, 0] > cut, np.nan, -np.sum(pop**2, axis=1))
    if kind == "nan-below-cut":
        return lambda pop: np.where(pop[:, 0] < cut, np.nan, pop[:, 0])
    return lambda pop: np.full(len(pop), np.nan)


def _outcome(run, objective, cfg, feasible):
    try:
        best_x, best_f, history, gens = run(objective, cfg, feasible)
    except Exception as exc:  # the two loops must fail alike
        return type(exc), str(exc)
    return best_x.tobytes(), np.float64(best_f).tobytes(), np.asarray(history).tobytes(), gens


@settings(max_examples=examples(200))
@given(population=st.integers(2, 40), generations=st.integers(0, 30), stagnation_limit=st.integers(0, 8),
       crossover_prob=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       mutation_prob=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       widths=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["sphere", "plateau", "nan-above-cut", "nan-below-cut", "nan-everywhere"]),
       cut=st.floats(0.0, 1.0), keep=st.sampled_from([1.0, 0.05, 0.0, -1.0]) | st.floats(0.0, 1.0),
       draw=st.data())
def test_run_ga_matches_the_loop_it_replaced(population, generations, stagnation_limit, crossover_prob,
                                             mutation_prob, widths, seed, kind, cut, keep, draw):
    """Equal best_x bytes, best fitness, history and generation count, or the same exception, for elitism 0,
    stagnation limit 0, no generations, masks that keep all, few or no rows, and objectives that return NaN."""
    elitism = draw.draw(st.sampled_from([0, population - 1]) | st.integers(0, population - 1))
    bounds = tuple((-0.5, -0.5 + w) for w in widths)
    cfg = GaConfig(bounds=bounds, population=population, crossover_prob=crossover_prob,
                   mutation_prob=mutation_prob, generations=generations, elitism=elitism,
                   stagnation_limit=stagnation_limit, seed=seed)
    objective = _objective(kind, cut)

    def feasible(pop):  # keeps the share `keep` of the first gene's range; none when keep < 0
        return pop[:, 0] <= -0.5 + keep * widths[0] if keep >= 0 else np.zeros(len(pop), dtype=bool)

    want = _outcome(_reference_run_ga, objective, cfg, feasible)
    assert _outcome(run_ga, objective, cfg, feasible) == want


@pytest.mark.parametrize("max_depth", [6, None])
@pytest.mark.parametrize("target", ["hc_yield", "hc_c"])
@pytest.mark.parametrize("seed", range(8))
def test_optimize_at_its_own_setting_finds_a_trees_best_leaf(medium_dataset, max_depth, target, seed):
    """With GaConfig's defaults, as the optimize command runs it, the GA reaches a single tree's largest leaf
    value: the exact optimum within the training bounds, since every leaf holds a feasible training row."""
    x = medium_dataset.feature_matrix()
    y = medium_dataset.target_matrix()[:, data.TARGET_COLUMNS.index(target)]
    tree = fit_tree(x, y, TreeParams(max_depth=max_depth))
    assert data.mass_balance_ok(x).all()
    profile = ObjectiveProfile("one-target", {t: "maximize" if t == target else "ignore" for t in data.TARGET_COLUMNS})
    bounds = tuple((float(col.min()), float(col.max())) for col in x.T)
    result = optimize({target: TreeModel(tree, float(y.mean()), float(y.std()))}, profile,
                      GaConfig(bounds=bounds, seed=seed))
    assert result.predicted_outputs[target] == tree.value[tree.is_leaf].max()
