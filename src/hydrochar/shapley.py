"""Exact Shapley-value attribution for any batch prediction function.

Values use the interventional (marginal) game: a coalition's value is the
mean model output over background rows with the coalition's features
replaced by the explained point. A model whose bound ``predict`` is given
and that has a closed form for this game (``shapley_values``: every SVR)
supplies the attributions itself; for any other function (trees, plain
callables) all 2^d coalitions are enumerated.
Both are exact: the efficiency identity holds to rounding error, and the
two agree within 1e-9 of the target's training spread.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, EmptyInput, TooManyFeatures

MAX_FEATURES = 20
_EVAL_ROWS = 1 << 14  # model rows per call, unless one mask's background rows alone exceed it


@dataclass(frozen=True)
class ShapExplanation:
    """Per-feature attributions for one prediction, in target units."""

    feature_values: np.ndarray
    phi: np.ndarray
    base_value: float

    @property
    def prediction(self) -> float:
        return self.base_value + float(self.phi.sum())


def coalition_values(predict_fn, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Value v(S) for every coalition bitmask S in [0, 2^d)."""
    d = len(x)
    n_bg = len(background)
    n_masks = 1 << d
    # masks per call: the largest power of two whose rows fit _EVAL_ROWS, at least one
    chunk = min(n_masks, 1 << max(0, (_EVAL_ROWS // n_bg).bit_length() - 1))
    low_bits = chunk.bit_length() - 1
    rows = np.empty((chunk, n_bg, d))
    values = np.empty(n_masks)
    for start in range(0, n_masks, chunk):
        # Row block i is mask start + i: the chunk's high bits are set in
        # block 0, then each low bit k doubles the blocks [0, 2^k) into
        # [2^k, 2^(k+1)) with column k set to x[k].
        rows[0] = background
        for k in range(low_bits, d):
            if start >> k & 1:
                rows[0, :, k] = x[k]
        for k in range(low_bits):
            h = 1 << k
            rows[h : 2 * h] = rows[:h]
            rows[h : 2 * h, :, k] = x[k]
        preds = np.asarray(predict_fn(rows.reshape(-1, d)), dtype=float)
        values[start : start + chunk] = preds.reshape(chunk, n_bg).mean(axis=1)
    return values


@functools.lru_cache(maxsize=1)  # explain runs a whole set of rows at one d
def _marginal_tables(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per feature i: the masks without i, the same masks with i, and the
    Shapley weight of each, as (d, 2^(d-1)) arrays."""
    masks = np.arange(1 << d)
    sizes = np.zeros(1 << d, dtype=int)
    for i in range(d):
        sizes += (masks >> i) & 1
    fact = [math.factorial(k) for k in range(d + 1)]
    # weight for adding feature i to a coalition of size s (i excluded)
    weight = np.array([fact[s] * fact[d - s - 1] / fact[d] for s in range(d)])
    base = np.array([masks[(masks & (1 << i)) == 0] for i in range(d)], dtype=int).reshape(d, (1 << d) // 2)
    tables = (base, base | (1 << np.arange(d))[:, None], weight[sizes[base]])
    for t in tables:
        t.setflags(write=False)
    return tables


def explain(predict_fn, x, background) -> ShapExplanation:
    """Exact Shapley attribution of ``predict_fn`` at ``x``.

    ``predict_fn`` must accept an (m, d) array and return m predictions.
    ``background`` supplies the reference distribution for absent features.
    When ``predict_fn`` is the bound ``predict`` of a model whose
    ``shapley_values`` gives a closed form, that form is used; otherwise all
    2^d coalitions are enumerated, for at most MAX_FEATURES features.
    """
    x = np.asarray(x, dtype=float).ravel()
    background = np.atleast_2d(np.asarray(background, dtype=float))
    d = len(x)
    if background.shape[0] == 0:
        raise EmptyInput("background matrix has no rows")
    if background.shape[1] != d:
        raise DimensionMismatch(f"background has {background.shape[1]} features, x has {d}")
    model = getattr(predict_fn, "__self__", None)
    phi = None
    if hasattr(model, "shapley_values") and getattr(model, "predict", None) == predict_fn:
        phi = model.shapley_values(x, background)
    if phi is not None:
        base_value = float(np.mean(predict_fn(background)))
    else:
        if d > MAX_FEATURES:
            raise TooManyFeatures(f"{d} features exceeds the exact-enumeration cap of {MAX_FEATURES}")
        v = coalition_values(predict_fn, x, background)
        base, with_i, weight = _marginal_tables(d)
        phi = np.array([float(np.sum(w * (v[a] - v[b]))) for w, a, b in zip(weight, with_i, base)])
        base_value = float(v[0])
    phi.setflags(write=False)
    x.setflags(write=False)
    return ShapExplanation(feature_values=x, phi=phi, base_value=base_value)


@dataclass(frozen=True)
class PlotData:
    """Tabular plot inputs: beeswarm triples, bar means, heatmap matrix."""

    feature_names: tuple[str, ...]
    beeswarm: list[tuple[str, float, float]]  # (feature, phi, raw value)
    bar: list[tuple[str, float]]  # (feature, mean |phi|), ranked
    heatmap: np.ndarray  # rows x features phi
    fx: np.ndarray  # per-row prediction


def emit_plot_data(explanations, feature_names=None, out_dir=None, provenance: str = "") -> PlotData:
    """Assemble beeswarm/bar/heatmap tables from a set of explanations.

    With ``out_dir`` set, writes beeswarm.csv, bar.csv, heatmap.csv, and a
    static importance.svg bar chart into it. ``provenance`` is an optional
    comment line prepended to each CSV.
    """
    explanations = list(explanations)
    if not explanations:
        raise EmptyInput("no explanations given")
    d = len(explanations[0].phi)
    for e in explanations:
        if len(e.phi) != d or len(e.feature_values) != d:
            raise DimensionMismatch("explanations have inconsistent feature counts")
    names = tuple(feature_names) if feature_names is not None else tuple(f"x{i}" for i in range(d))
    if len(names) != d:
        raise DimensionMismatch(f"{len(names)} names for {d} features")
    phi_mat = np.array([e.phi for e in explanations])
    raw_mat = np.array([e.feature_values for e in explanations])
    fx = np.array([e.prediction for e in explanations])
    beeswarm = [
        (names[j], float(phi_mat[i, j]), float(raw_mat[i, j]))
        for i in range(len(explanations))
        for j in range(d)
    ]
    mean_abs = np.abs(phi_mat).mean(axis=0)
    order = np.argsort(-mean_abs, kind="stable")
    bar = [(names[j], float(mean_abs[j])) for j in order]
    out = PlotData(feature_names=names, beeswarm=beeswarm, bar=bar, heatmap=phi_mat, fx=fx)
    if out_dir is not None:
        _write_plot_files(out, Path(out_dir), provenance)
    return out


def _write_plot_files(plot: PlotData, out_dir: Path, provenance: str = "") -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    pre = [provenance] if provenance else []
    d = len(plot.feature_names)

    lines = pre + ["row,feature,phi,feature_value"]
    for i in range(len(plot.fx)):
        for j in range(d):
            name, phi, raw = plot.beeswarm[i * d + j]
            lines.append(f"{i},{name},{phi!r},{raw!r}")
    (out_dir / "beeswarm.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = pre + ["feature,mean_abs_phi"]
    lines += [f"{name},{val!r}" for name, val in plot.bar]
    (out_dir / "bar.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = pre + ["row,fx," + ",".join(plot.feature_names)]
    for i in range(len(plot.fx)):
        cells = ",".join(repr(float(v)) for v in plot.heatmap[i])
        lines.append(f"{i},{float(plot.fx[i])!r},{cells}")
    (out_dir / "heatmap.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    svg = importance_svg(plot)
    if provenance:
        svg = svg.replace("\n", f"\n<!-- {provenance.lstrip('# ')} -->\n", 1)
    (out_dir / "importance.svg").write_text(svg, encoding="utf-8")


def importance_svg(plot: PlotData) -> str:
    """Static horizontal bar chart of mean |phi|, most important on top."""
    bars = plot.bar
    n = len(bars)
    width, height, label_w, margin = 800, 400, 170, 10
    chart_w = width - label_w - 2 * margin
    row_h = (height - 2 * margin) / max(n, 1)
    vmax = max((v for _, v in bars), default=0.0) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<!-- mean absolute attribution per feature -->',
    ]
    for i, (name, val) in enumerate(bars):
        y = margin + i * row_h
        bar_w = chart_w * val / vmax
        parts.append(
            f'<text x="{label_w - 6}" y="{y + row_h * 0.68:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="12">{name}</text>'
        )
        parts.append(
            f'<rect x="{label_w}" y="{y + row_h * 0.15:.2f}" width="{bar_w:.3f}" '
            f'height="{row_h * 0.7:.2f}" fill="#2b7a78"/>'
        )
        parts.append(
            f'<text x="{label_w + bar_w + 4:.3f}" y="{y + row_h * 0.68:.2f}" '
            f'font-family="monospace" font-size="11">{val:.6g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
