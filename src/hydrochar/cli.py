"""Command-line front end: validate -> stats -> train -> explain -> optimize.

Artifacts are deterministic for a fixed seed: JSON is written with sorted
keys, CSV floats use shortest round-trip formatting, and no timestamps are
embedded, so repeated runs are byte-identical.

Exit codes: 0 success, 1 input/usage error, 2 internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, data, genetic, pipeline, shapley, stats
from .errors import (ConstantColumn, HydrocharError, InvalidGrid, InvalidModelFile, MissingModelFile, TooFewRows,
                     UnknownApplication, refusing)
from .pipeline import SCHEMA_VERSION


class RunConfig:
    """Kept only for ``bench/worker.explain_plot``; ROADMAP item 1b deletes it. Commands read the parsed
    arguments, whose ``data`` and ``out`` the parser has already resolved, and ``from_args`` returns them."""

    @staticmethod
    def from_args(args):
        return args


def _provenance(seed: int) -> dict:
    return {"schema_version": SCHEMA_VERSION, "seed": seed, "tool_version": __version__}


def _provenance_comment(seed: int) -> str:
    return f"# schema_version={SCHEMA_VERSION} seed={seed} tool_version={__version__}"


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _model_path(out: Path, kind: str, target: str) -> Path:
    return out / f"model_{kind}_{target}.json"


def cmd_validate(args) -> int:
    ds = data.load_csv(args.data)
    print(f"n_rows: {ds.n_rows}")
    print(f"warnings: {len(ds.warnings)}")
    for w in ds.warnings:
        print(f"  {w}")
    print("missing target cells:")
    ymat = ds.target_matrix()
    for j, t in enumerate(ds.target_names):
        absent = int(np.isnan(ymat[:, j]).sum())
        print(f"  {t}: {absent}/{ds.n_rows}")
    return 0


def cmd_stats(args) -> int:
    ds = data.load_csv(args.data)
    corr = stats.correlation_matrix(ds)
    all_columns = list(ds.feature_names) + list(ds.target_names)
    try:
        factors = stats.factor_analysis(ds, all_columns)
    except (TooFewRows, ConstantColumn) as exc:
        print(f"factor analysis fell back to the {len(ds.feature_names)} input columns: {exc}")
        factors = stats.factor_analysis(ds, list(ds.feature_names))

    comment = _provenance_comment(args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "correlation_matrix.csv").write_text(comment + "\n" + corr.to_csv_text(), encoding="utf-8")
    _write_json(args.out / "correlation_matrix.json", {**_provenance(args.seed), **corr.to_json_obj()})
    _write_van_krevelen(ds, args.out / "van_krevelen.csv", comment)
    _write_json(args.out / "factors.json", {**_provenance(args.seed), **factors.to_json_obj()})
    (args.out / "factors.csv").write_text(comment + "\n" + factors.to_csv_text(), encoding="utf-8")
    print(f"wrote correlation_matrix.csv/.json, factors.json/.csv, van_krevelen.csv to {args.out}")
    return 0


def _write_van_krevelen(ds: data.Dataset, path: Path, comment: str) -> None:
    """One line per row: biomass then hydrochar atomic H/C and O/C. A pair is
    blank where carbon is not positive or a mass fraction is unreported."""
    columns = [[str(i) for i in range(ds.n_rows)]]
    for m, names, elements in ((ds.feature_matrix(), data.FEATURE_COLUMNS, ("biomass_c", "biomass_h", "biomass_o")),
                               (ds.target_matrix(), data.TARGET_COLUMNS, ("hc_c", "hc_h", "hc_o"))):
        c, h, o = (m[:, names.index(e)] for e in elements)
        ok = (c > 0.0) & ~np.isnan(h) & ~np.isnan(o)
        rows = np.flatnonzero(ok).tolist()
        for ratio in data.van_krevelen(c[ok], h[ok], o[ok]):
            cells = [""] * ds.n_rows
            for i, r in zip(rows, ratio.tolist()):  # a Python float's repr is its shortest round-trip form
                cells[i] = repr(r)
            columns.append(cells)
    lines = [comment, "row,biomass_h_over_c,biomass_o_over_c,hydrochar_h_over_c,hydrochar_o_over_c"]
    lines += map(",".join, zip(*columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_grid(path: str | None) -> pipeline.HyperGrid:
    if path is None:
        return pipeline.HyperGrid.default()
    with open(path, encoding="utf-8") as fh, refusing(InvalidGrid, f"grid file {path}"):
        return pipeline.HyperGrid.from_json_obj(json.load(fh))


def cmd_train(args) -> int:
    ds = data.load_csv(args.data)
    grid = _load_grid(args.grid)
    kinds = ("dtr", "svr") if args.model == "both" else (args.model,)
    result = pipeline.train_all(ds, grid, seed=args.seed, models=kinds)
    args.out.mkdir(parents=True, exist_ok=True)
    _write_json(args.out / "report.json", {**_provenance(args.seed), **result.report})
    print(f"{'model':<6}{'target':<10}{'cv_rmse':>10}{'train_r2':>10}{'test_r2':>10}")
    for (kind, target), t in sorted(result.trained.items()):
        _write_json(_model_path(args.out, kind, target), {**_provenance(args.seed), **t.to_json_obj()})
        print(f"{kind:<6}{target:<10}{t.cv_rmse:>10.4g}{t.train_metrics.r2:>10.4f}{t.test_metrics.r2:>10.4f}")
    for kind in kinds:
        for target, reason in result.skips[kind].items():
            print(f"{kind:<6}{target:<10} skipped: {reason}")
    return 0 if result.trained else 1


def _read_model(path: Path, kind: str, target: str) -> pipeline.TrainedTarget:
    """Load the saved ``kind`` model of ``target``; a refusal names the file."""
    with path.open(encoding="utf-8") as fh, refusing(InvalidModelFile, f"model file {path}"):
        trained = pipeline.TrainedTarget.from_json_obj(json.load(fh))
        if (trained.kind, trained.target) != (kind, target):
            raise InvalidModelFile(f"holds the {trained.kind} model of {trained.target!r}, not the {kind} model of "
                                   f"{target!r} its name says")
        return trained


def _load_models(out: Path, kind: str) -> dict[str, pipeline.TrainedTarget]:
    models = {}
    for target in data.TARGET_COLUMNS:
        path = _model_path(out, kind, target)
        if path.exists():
            models[target] = _read_model(path, kind, target)
    return models


def cmd_evaluate(args) -> int:
    ds = data.load_csv(args.data)
    kinds = ("dtr", "svr") if args.model == "both" else (args.model,)
    x = ds.feature_matrix()
    ymat = ds.target_matrix()
    section: dict = {}
    for kind in kinds:
        models = _load_models(args.out, kind)
        if not models:
            continue
        section[kind] = {}
        for target, model in sorted(models.items()):
            j = list(ds.target_names).index(target)
            present = ~np.isnan(ymat[:, j])
            y = ymat[present, j]
            if len(y) < 2:
                section[kind][target] = {"skipped": "fewer than 2 rows with this target"}
            elif y.max() == y.min():
                section[kind][target] = {"skipped": "target is constant"}
            else:
                section[kind][target] = pipeline.evaluate(model, x[present], y).as_dict()
    if not section:
        raise MissingModelFile(f"no model_*.json files found in {args.out}")
    _write_json(args.out / "evaluation.json", {**_provenance(args.seed), "models": section})
    for kind, targets in section.items():
        for target, m in targets.items():
            detail = (f"skipped: {m['skipped']}" if "skipped" in m
                      else f"r2={m['r2']:.4f} rmse={m['rmse']:.4g} mae={m['mae']:.4g} n={m['n']}")
            print(f"{kind:<6}{target:<10} {detail}")
    return 0


def cmd_explain(args) -> int:
    path = _model_path(args.out, args.model, args.target)
    if not path.exists():
        raise MissingModelFile(f"{path} not found; run train first")
    model = _read_model(path, args.model, args.target)
    ds = data.load_csv(args.data)
    plan = data.split(ds, seed=args.seed)
    x = ds.feature_matrix()
    train_x = x[plan.train_indices]
    rng = np.random.default_rng(args.seed)
    take = min(args.background, len(train_x))
    background = train_x[rng.choice(len(train_x), size=take, replace=False)]
    explanations = [shapley.explain(model.predict, row, background) for row in x]
    out_dir = args.out / f"shap_{args.model}_{args.target}"
    shapley.emit_plot_data(
        explanations,
        feature_names=ds.feature_names,
        out_dir=out_dir,
        provenance=_provenance_comment(args.seed),
    )
    print(f"wrote beeswarm.csv, bar.csv, heatmap.csv, importance.svg to {out_dir}")
    return 0


def _resolve_profile(application: str) -> genetic.ObjectiveProfile:
    candidate = Path(application)
    if candidate.suffix != ".json":
        return genetic.ObjectiveProfile.builtin(application)
    with candidate.open(encoding="utf-8") as fh, refusing(UnknownApplication, f"profile file {candidate}"):
        directions = json.load(fh)
        if not isinstance(directions, dict):
            raise ValueError("a profile file must hold a JSON object of target directions, "
                             f"got {type(directions).__name__}")
        return genetic.ObjectiveProfile(candidate.stem, directions)


def cmd_optimize(args) -> int:
    profile = _resolve_profile(args.application)
    needed = [t for t, _ in profile.active()]
    models = _load_models(args.out, "dtr")
    missing = [t for t in needed if t not in models]
    if missing:
        raise MissingModelFile(f"missing trained DTR model files for {missing}; run train first")
    ds = data.load_csv(args.data)
    plan = data.split(ds, seed=args.seed)
    train_x = ds.feature_matrix()[plan.train_indices]
    bounds = tuple((float(c.min()), float(c.max())) for c in train_x.T)
    config = genetic.GaConfig(bounds=bounds, seed=args.seed)
    result = genetic.optimize(models, profile, config)
    rep = genetic.report(result, profile, config)
    _write_json(args.out / "optimum.json", {**_provenance(args.seed), **rep})
    print(genetic.render_table(rep))
    return 0


def cmd_synth(args) -> int:
    ds = data.generate_synthetic(args.n, seed=args.seed, noise_sd=args.noise)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "synthetic.csv"
    data.write_csv(ds, path)
    print(f"wrote {ds.n_rows} rows to {path}")
    return 0


def _resolved(text: str) -> Path:
    return Path(text).resolve()


def _at_least(least: int):
    """An argparse ``type=`` for an integer of at least ``least``: a smaller one is a usage error naming the flag
    and the value, and a non-integer keeps argparse's ``invalid int value``."""
    def convert(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    convert.__name__ = "int"
    return convert


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per workflow step, each with only the options it reads."""
    parser = argparse.ArgumentParser(prog="hydrochar", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--data", required=True, type=_resolved, help="input CSV in the canonical 21-column schema")
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", default=".", type=_resolved, help="output directory (created if absent)")
    writes.add_argument("--seed", type=_at_least(0), default=42)

    def command(name: str, run, summary: str, reads_data: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=[reads, writes] if reads_data else [writes])
        p.set_defaults(run=run)
        return p

    command("validate", cmd_validate, "check a CSV against the schema")
    command("stats", cmd_stats, "correlation, factor, and atomic-ratio artifacts")
    p = command("train", cmd_train, "grid-searched training for every target")
    p.add_argument("--model", choices=("dtr", "svr", "both"), default="both")
    p.add_argument("--grid", help="JSON file overriding the hyperparameter grids")
    p = command("evaluate", cmd_evaluate, "re-evaluate saved models on a dataset")
    p.add_argument("--model", choices=("dtr", "svr", "both"), default="both")
    p = command("explain", cmd_explain, "Shapley artifacts for one target")
    p.add_argument("--model", choices=("dtr", "svr"), default="dtr")
    p.add_argument("--target", required=True, choices=data.TARGET_COLUMNS)
    p.add_argument("--background", type=_at_least(1), default=64, help="background rows for attribution")
    p = command("optimize", cmd_optimize, "GA search over the trained DTR surrogates")
    p.add_argument("--application", default="energy", help="energy | soil | adsorption, or a JSON direction-map file")
    p = command("synth", cmd_synth, "write a synthetic dataset", reads_data=False)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--noise", type=float, default=0.0)
    return parser


def main(argv=None) -> int:
    try:  # parsing resolves paths, so it fails through the same handlers as a command
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse printed --help, --version or a usage error
        return 0 if exc.code == 0 else 1
    except (HydrocharError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else, a stray KeyError included, is a bug
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
