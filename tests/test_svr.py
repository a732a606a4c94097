import json
import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrochar import data, svr
from hydrochar.data import Scaler
from hydrochar.errors import (ConvergenceWarning, DimensionMismatch, DualConstraintDrift, EmptyInput, InvalidModelFile,
                             NonFiniteInput)
from hydrochar.pipeline import HyperGrid
from hydrochar.svr import (
    Kernel,
    SvrModel,
    SvrParams,
    fit_svr,
    kernel_matrix,
)

from conftest import examples


# ----------------------------------------------------------------- kernels

def test_kernel_matrix_examples():
    assert kernel_matrix(Kernel("rbf", gamma=0.7), [[1.0, 2.0]], [[1.0, 2.0]])[0, 0] == 1.0
    assert kernel_matrix(Kernel("linear"), [[1.0, 2.0]], [[3.0, 4.0]])[0, 0] == 11.0
    assert kernel_matrix(Kernel("rbf", gamma=0.5), [[0.0, 0.0]], [[1.0, 1.0]])[0, 0] == pytest.approx(math.exp(-1.0))


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel("rbf", gamma=0.0)
    with pytest.raises(ValueError, match="kernel kind 'polynomial' is not supported; expected 'linear' or 'rbf'"):
        Kernel("polynomial")
    with pytest.raises(ValueError, match="kernel kind 'sigmoid' is not supported"):
        Kernel(kind="sigmoid")


def test_kernel_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kernel_matrix(Kernel("linear"), [[1.0, 2.0]], [[1.0]])


def test_kernel_matrix_symmetric(rng):
    x = rng.uniform(-1, 1, (20, 3))
    for kern in (Kernel("linear"), Kernel("rbf", gamma=0.5)):
        k = kernel_matrix(kern, x, x)
        assert np.allclose(k, k.T, atol=1e-12)


# --------------------------------------------------------------------- fit

def test_constant_target_inside_tube():
    x = np.linspace(0, 1, 12)[:, None]
    model = fit_svr(x, np.full(12, 3.3), SvrParams(c=1.0, epsilon=0.1, kernel=Kernel("rbf", gamma=1.0)))
    assert len(model.dual_coeffs) == 0
    assert model.bias == pytest.approx(3.3, abs=1e-12)
    assert model.predict_batch([[0.77]])[0] == pytest.approx(3.3, abs=1e-12)


def test_linear_fit_tracks_targets(rng):
    x = rng.uniform(-1, 1, 30)[:, None]
    y = 2.0 * x[:, 0]
    model = fit_svr(x, y, SvrParams(c=1000.0, epsilon=0.01, kernel=Kernel("linear")))
    assert model.converged
    pred = model.predict_batch(x)
    assert np.abs(pred - y).max() <= 0.02


@pytest.mark.parametrize(
    "kern",
    [Kernel("linear"), Kernel("rbf", gamma=0.5)],
    ids=["linear", "rbf"],
)
def test_kkt_audit_passes(kern, rng):
    x = rng.uniform(-2, 2, (60, 2))
    y = np.sin(x[:, 0]) + 0.3 * x[:, 1] + rng.normal(0, 0.05, 60)
    # low-rank kernels need a deep update budget on this dense problem
    params = SvrParams(c=10.0, epsilon=0.1, kernel=kern, max_passes=1000)
    model = fit_svr(x, y, params)
    assert model.converged
    audit = check_kkt(model, x, y)
    assert audit.ok, audit.violations[:3]
    assert np.all(np.abs(model.dual_coeffs) <= params.c + 1e-9)
    assert abs(model.dual_coeffs.sum()) <= params.tolerance


def test_duplicate_rows_leave_predictions_unchanged(rng):
    x = rng.uniform(-1, 1, (25, 2))
    y = x[:, 0] ** 2 + 0.5 * x[:, 1]
    params = SvrParams(c=10.0, epsilon=0.05, kernel=Kernel("rbf", gamma=0.7), tolerance=1e-8)
    single = fit_svr(x, y, params)
    doubled = fit_svr(np.vstack([x, x]), np.concatenate([y, y]), params)
    q = rng.uniform(-1, 1, (40, 2))
    assert np.abs(single.predict_batch(q) - doubled.predict_batch(q)).max() <= 1e-6


def test_rbf_translation_covariance(rng):
    # tight tolerance pins the solution; near-optimal wiggle would mask it
    x = rng.uniform(-1, 1, (30, 2))
    y = np.cos(x[:, 0]) + x[:, 1]
    shift = np.array([5.0, -3.0])
    params = SvrParams(c=5.0, epsilon=0.05, kernel=Kernel("rbf", gamma=0.4), tolerance=1e-10, max_passes=2000)
    a = fit_svr(x, y, params)
    b = fit_svr(x + shift, y, params)
    q = rng.uniform(-1, 1, (20, 2))
    assert np.abs(a.predict_batch(q) - b.predict_batch(q + shift)).max() <= 1e-8


def test_target_shift_absorbed_by_bias(rng):
    x = rng.uniform(-1, 1, (30, 2))
    y = np.sin(2 * x[:, 0]) - x[:, 1]
    params = SvrParams(c=5.0, epsilon=0.05, kernel=Kernel("rbf", gamma=0.5), tolerance=1e-8, max_passes=2000)
    a = fit_svr(x, y, params)
    b = fit_svr(x, y + 7.5, params)
    q = rng.uniform(-1, 1, (20, 2))
    assert np.abs((b.predict_batch(q) - a.predict_batch(q)) - 7.5).max() <= 1e-6


def test_no_convergence_flag(rng):
    x = rng.uniform(-2, 2, (80, 3))
    y = np.sin(3 * x[:, 0]) * np.cos(x[:, 1]) + x[:, 2]
    params = SvrParams(c=100.0, epsilon=0.001, kernel=Kernel("rbf", gamma=2.0), max_passes=1)
    expected = (r"budget of 80 steps \(max_passes=1 x 80 rows\).*"
                r"C=100\.0, epsilon=0\.001, kernel=rbf gamma=2\.0, tolerance=0\.001")
    with pytest.warns(ConvergenceWarning, match=expected):
        model = fit_svr(x, y, params)
    assert not model.converged
    assert model.predict_batch(x).shape == (80,)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda v: SvrParams(c=v, epsilon=0.1, kernel=Kernel("linear")), "c"),
        (lambda v: SvrParams(c=1.0, epsilon=v, kernel=Kernel("linear")), "epsilon"),
        (lambda v: SvrParams(c=1.0, epsilon=0.1, kernel=Kernel("linear"), tolerance=v), "tolerance"),
        (lambda v: Kernel("rbf", gamma=v), "gamma"),
    ],
    ids=["c", "epsilon", "tolerance", "gamma"],
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_hyperparameters_rejected(make, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make(value)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"], ids=["fraction", "float", "bool", "string"])
def test_non_integer_counts_rejected(value):
    with pytest.raises(ValueError, match=f"max_passes must be an integer, got {value!r}"):
        SvrParams(c=1.0, epsilon=0.1, kernel=Kernel("linear"), max_passes=value)


def test_fit_errors():
    with pytest.raises(EmptyInput):
        fit_svr(np.empty((0, 2)), [], SvrParams(c=1.0, epsilon=0.1, kernel=Kernel("linear")))
    with pytest.raises(DimensionMismatch):
        fit_svr([[1.0], [2.0]], [1.0], SvrParams(c=1.0, epsilon=0.1, kernel=Kernel("linear")))


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("argument", ["x", "y"])
def test_fit_refuses_non_finite_input_naming_it(argument, value):
    x, y = np.linspace(-1.0, 1.0, 12).reshape(6, 2), np.linspace(0.0, 1.0, 6)
    {"x": x, "y": y}[argument][3] = value
    with pytest.raises(NonFiniteInput, match=f"^{argument} holds a value that is not finite$"):
        fit_svr(x, y, SvrParams(c=1.0, epsilon=0.1, kernel=Kernel("linear")))


# ----------------------------------------------------------------- predict

def test_no_support_vectors_predicts_bias():
    model = SvrModel(
        support_vectors=np.empty((0, 2)),
        dual_coeffs=[],
        bias=1.25,
        params=SvrParams(c=1.0, epsilon=0.1, kernel=Kernel("linear")),
        n_features=2,
    )
    assert model.predict_batch([[9.0, 9.0]])[0] == 1.25
    assert np.all(model.predict_batch(np.zeros((5, 2))) == 1.25)


def test_single_support_vector_at_itself():
    sv = np.array([[0.5, -0.5]])
    model = SvrModel(
        support_vectors=sv,
        dual_coeffs=[2.0],
        bias=0.3,
        params=SvrParams(c=1.0, epsilon=0.1, kernel=Kernel("rbf", gamma=1.0)),
        n_features=2,
    )
    # k(sv, sv) = 1, so prediction = coeff + bias
    assert model.predict_batch(sv)[0] == pytest.approx(2.3, abs=1e-12)


def test_prediction_linear_in_dual_coeffs(rng):
    x = rng.uniform(-1, 1, (15, 2))
    y = x[:, 0] + x[:, 1]
    model = fit_svr(x, y, SvrParams(c=5.0, epsilon=0.02, kernel=Kernel("rbf", gamma=0.5)))
    doubled = SvrModel(
        support_vectors=model.support_vectors,
        dual_coeffs=model.dual_coeffs * 2.0,
        bias=model.bias,
        params=model.params,
        n_features=model.n_features,
        sv_indices=model.sv_indices,
    )
    q = rng.uniform(-1, 1, (10, 2))
    a = model.predict_batch(q) - model.bias
    b = doubled.predict_batch(q) - doubled.bias
    assert np.allclose(b, 2.0 * a, atol=1e-12)


def test_predict_dimension_mismatch():
    model = SvrModel(np.empty((0, 3)), [], 0.0, SvrParams(c=1.0, epsilon=0.1, kernel=Kernel("linear")), n_features=3)
    with pytest.raises(DimensionMismatch):
        model.predict_batch([[1.0, 2.0]])


def _block_rows(n_sv):
    """The largest power of two of rows whose kernel fits svr._KERNEL_ENTRIES."""
    b = 1
    while 2 * b * n_sv <= svr._KERNEL_ENTRIES:
        b *= 2
    return b


@pytest.mark.parametrize(
    "kern", [Kernel("linear"), Kernel("rbf", gamma=0.3)], ids=["linear", "rbf"],
)
def test_predict_batch_in_kernel_blocks(kern, monkeypatch):
    """Each block is the one-shot formula on its rows, bit for bit; a batch of
    one block is exactly the one-shot formula."""
    rng = np.random.default_rng(8)
    n_sv, d = 300, 4
    model = SvrModel(rng.normal(size=(n_sv, d)), rng.normal(size=n_sv), 0.7, SvrParams(c=1.0, epsilon=0.1, kernel=kern),
                     n_features=d)
    b = _block_rows(n_sv)

    def one_shot(x):
        return kernel_matrix(kern, x, model.support_vectors) @ model.dual_coeffs + model.bias

    block_rows = []

    def recording_kernel_matrix(kernel, a, sv):
        block_rows.append(len(a))
        return kernel_matrix(kernel, a, sv)

    monkeypatch.setattr(svr, "kernel_matrix", recording_kernel_matrix)
    x_all = rng.normal(size=(3 * b + 5, d))
    for n in (b - 1, b, b + 1, 3 * b + 5):
        x = x_all[:n]
        block_rows.clear()
        got = model.predict_batch(x)
        assert block_rows == [min(b, n - lo) for lo in range(0, n, b)]
        per_block = np.concatenate([one_shot(x[lo : lo + b]) for lo in range(0, n, b)])
        assert got.tobytes() == per_block.tobytes()
        whole = one_shot(x)
        if n <= b:
            assert got.tobytes() == whole.tobytes()
        else:
            assert np.abs(got - whole).max() <= 1e-12 * np.abs(whole).max()


def test_predict_batch_memory_is_bounded_by_the_block():
    """200k rows x 300 support vectors would be a 480 MB kernel in one piece."""
    rng = np.random.default_rng(9)
    n_sv, d = 300, 11
    model = SvrModel(rng.normal(size=(n_sv, d)), rng.normal(size=n_sv), 0.1,
                     SvrParams(c=1.0, epsilon=0.1, kernel=Kernel("rbf", gamma=0.1)), n_features=d)
    x = rng.normal(size=(200_000, d))
    tracemalloc.start()
    try:
        model.predict_batch(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * 2**20  # four 8 MiB blocks


@pytest.mark.parametrize("kern", [Kernel("linear"), Kernel("rbf", gamma=0.5)], ids=str)
def test_fit_memory_is_the_gram_and_one_curvature_table(kern):
    """fit_svr holds the (n, n) Gram matrix and (n, n) curvature table, 16n^2
    bytes, plus one (n, n) temporary while the table is built: 24n^2 at the
    peak, with the rest under 4n^2."""
    n = 512
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(n, 4)), rng.normal(size=n)
    params = SvrParams(c=1.0, epsilon=0.1, kernel=kern, max_passes=1)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            fit_svr(x, y, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * n * n


def test_serialization_roundtrip_bit_stable(rng):
    x = rng.uniform(-1, 1, (40, 2))
    y = np.sin(x[:, 0]) + x[:, 1] ** 2
    model = fit_svr(x, y, SvrParams(c=10.0, epsilon=0.05, kernel=Kernel("rbf", gamma=0.8)))
    back = SvrModel.from_json_obj(json.loads(json.dumps(model.to_json_obj())))
    q = rng.uniform(-1, 1, (30, 2))
    assert np.abs(model.predict_batch(q) - back.predict_batch(q)).max() <= 1e-12
    assert back.params == model.params
    assert np.array_equal(back.sv_indices, model.sv_indices)


def _fitted_json(rng):
    x = rng.uniform(-1, 1, (30, 3))
    model = fit_svr(x, x[:, 0] - x[:, 2], SvrParams(c=10.0, epsilon=0.05, kernel=Kernel("rbf", gamma=0.8)))
    return json.loads(json.dumps(model.to_json_obj()))


def test_flat_support_vectors_are_refused(rng):
    obj = _fitted_json(rng)
    n_sv = len(obj["dual_coeffs"])
    obj["support_vectors"] = [v for row in obj["support_vectors"] for v in row]
    with pytest.raises(InvalidModelFile, match=rf"^support_vectors has shape \({3 * n_sv},\), not \({n_sv}, 3\)"):
        SvrModel.from_json_obj(obj)


def test_nested_dual_coeffs_are_refused(rng):
    obj = _fitted_json(rng)
    n_sv = len(obj["dual_coeffs"])
    obj["dual_coeffs"] = [[v] for v in obj["dual_coeffs"]]
    with pytest.raises(InvalidModelFile, match=rf"^dual_coeffs has shape \({n_sv}, 1\), not \(n_sv,\)$"):
        SvrModel.from_json_obj(obj)


def test_model_without_support_vectors_round_trips():
    model = SvrModel(np.empty((0, 3)), [], 0.5, SvrParams(c=1.0, epsilon=0.1, kernel=Kernel("linear")), n_features=3)
    back = SvrModel.from_json_obj(json.loads(json.dumps(model.to_json_obj())))
    assert back.support_vectors.shape == (0, 3)
    assert back.predict_batch(np.ones((2, 3))).tolist() == [0.5, 0.5]


# ------------------------------------------------------------------ oracle
#
# fit_svr must pick the same working pair and do the same float operations
# as the step loop it replaced, so its duals are compared bit for bit.

def _reference_bias_interval(u: np.ndarray, f: np.ndarray, y: np.ndarray, c: float, eps: float):
    """Per-variable feasible-bias candidates implied by the current duals.

    A variable that can still grow puts a lower bound on the bias, one that
    can still shrink puts an upper bound: value y_i - f_i - eps on the alpha
    side, y_i - f_i + eps on the alpha* side. Returns (vals_a, vals_s,
    lower_ok_a, lower_ok_s, upper_ok_a, upper_ok_s).
    """
    n = len(y)
    slack = 1e-10 * c
    base = y - f
    vals_a = base - eps
    vals_s = base + eps
    u_a = u[:n]
    u_s = u[n:]
    return vals_a, vals_s, u_a < c - slack, u_s > slack, u_a > slack, u_s < c - slack



def _reference_fit_svr(x, y, params: SvrParams) -> SvrModel:
    """The step loop as it was before the one-vector rewrite, kept verbatim as
    the oracle of fit_svr: alpha and alpha* selected in separate halves,
    bound masks rebuilt from u every step, f rebuilt by each update.

    Solve the epsilon-SVR dual by sequential minimal optimization.

    On return every KKT condition holds within ``params.tolerance`` unless
    the update budget (``max_passes`` epochs of n steps each) ran out, in
    which case the best-effort model is returned with ``converged=False``
    and a ConvergenceWarning is emitted. The solver is deterministic and
    holds the dense n x n Gram matrix (8n^2 bytes) for the whole solve.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = len(y)
    if n == 0:
        raise EmptyInput("no training rows")
    if x.shape[0] != n:
        raise DimensionMismatch(f"x has {x.shape[0]} rows but y has {n} values")
    c, eps, tol = params.c, params.epsilon, params.tolerance
    gram = kernel_matrix(params.kernel, x, x)
    diag = gram.diagonal().copy()
    u = np.zeros(2 * n)
    f = np.zeros(n)
    converged = False
    budget = params.max_passes * max(n, 1)
    for step in range(budget):
        if step and step % (8 * n) == 0:
            f = gram @ (u[:n] - u[n:])  # periodic refresh against drift
        vals_a, vals_s, low_a, low_s, up_a, up_s = _reference_bias_interval(u, f, y, c, eps)
        lv_a = np.where(low_a, vals_a, -np.inf)
        lv_s = np.where(low_s, vals_s, -np.inf)
        pa = int(np.argmax(lv_a))
        ps = int(np.argmax(lv_s))
        if lv_a[pa] >= lv_s[ps]:
            p, b_low, s_p = pa, float(lv_a[pa]), 1.0
        else:
            p, b_low, s_p = n + ps, float(lv_s[ps]), -1.0
        uv_a = np.where(up_a, vals_a, np.inf)
        uv_s = np.where(up_s, vals_s, np.inf)
        b_up = float(min(uv_a.min(), uv_s.min()))
        if b_low - b_up <= tol or not np.isfinite(b_low) or not np.isfinite(b_up):
            converged = True
            break
        i = p % n
        k_i = gram[i]
        # partner choice: largest guaranteed decrease viol^2 / eta
        eta_all = np.maximum(diag[i] + diag - 2.0 * k_i, 1e-12)
        eta_all[i] = 1e-12
        gain_a = np.where(uv_a < b_low, (b_low - uv_a) ** 2 / eta_all, -np.inf)
        gain_s = np.where(uv_s < b_low, (b_low - uv_s) ** 2 / eta_all, -np.inf)
        qa = int(np.argmax(gain_a))
        qs = int(np.argmax(gain_s))
        if gain_a[qa] >= gain_s[qs]:
            q, s_q = qa, 1.0
        else:
            q, s_q = n + qs, -1.0
        j = q % n
        k_j = gram[j] if j != i else k_i
        g = (f[i] - y[i] + s_p * eps) - (f[j] - y[j] + s_q * eps)
        eta = k_i[i] + k_j[j] - 2.0 * k_i[j] if i != j else 0.0
        t_lo_p, t_hi_p = (-u[p], c - u[p]) if s_p > 0 else (u[p] - c, u[p])
        t_lo_q, t_hi_q = (u[q] - c, u[q]) if s_q > 0 else (-u[q], c - u[q])
        t_lo = max(t_lo_p, t_lo_q)
        t_hi = min(t_hi_p, t_hi_q)
        if eta > 1e-12:
            t = min(max(-g / eta, t_lo), t_hi)
        else:
            t = t_hi if g < 0.0 else t_lo
        if t == 0.0:
            converged = True  # violating pair has no headroom at float resolution
            break
        beta_i_old = u[i] - u[n + i]
        beta_j_old = u[j] - u[n + j]
        u[p] = min(max(u[p] + s_p * t, 0.0), c)
        u[q] = min(max(u[q] - s_q * t, 0.0), c)
        d_i = (u[i] - u[n + i]) - beta_i_old
        d_j = 0.0 if i == j else (u[j] - u[n + j]) - beta_j_old
        if d_i != 0.0:
            f = f + d_i * k_i
        if d_j != 0.0:
            f = f + d_j * k_j
    if not converged:
        warnings.warn("SVR solver hit max_passes before satisfying KKT conditions", ConvergenceWarning)
    beta = u[:n] - u[n:]
    np.clip(beta, -c, c, out=beta)
    # dual feasibility is maintained exactly by the paired updates
    drift = abs(float(beta.sum()))
    if drift > max(tol, 1e-9 * c * n):
        raise DualConstraintDrift(f"dual coefficients sum to {drift:.3g}; the equality constraint drifted")
    free = (np.abs(beta) > 1e-8 * c) & (np.abs(beta) < c * (1.0 - 1e-8))
    if free.any():
        idx = np.flatnonzero(free)
        bias = float(np.mean([y[i] - f[i] - np.sign(beta[i]) * eps for i in idx]))
    else:
        vals_a, vals_s, low_a, low_s, up_a, up_s = _reference_bias_interval(u, f, y, c, eps)
        # as fit_svr takes them: each value plus a 0 or -/+inf penalty, so a
        # -0.0 value reads +0.0, and the first extreme entry of the 2n vector
        vals = np.concatenate([vals_a, vals_s])
        lv = vals + np.where(np.concatenate([low_a, low_s]), 0.0, -np.inf)
        uv = vals + np.where(np.concatenate([up_a, up_s]), 0.0, np.inf)
        b_low = float(lv[np.argmax(lv)])
        b_up = float(uv[np.argmin(uv)])
        if not np.isfinite(b_low):
            bias = b_up if np.isfinite(b_up) else 0.0
        elif not np.isfinite(b_up):
            bias = b_low
        else:
            bias = 0.5 * (b_low + b_up)
    keep = np.flatnonzero(np.abs(beta) > 1e-12)
    return SvrModel(
        support_vectors=x[keep],
        dual_coeffs=beta[keep],
        bias=bias,
        params=params,
        n_features=x.shape[1],
        sv_indices=keep,
        converged=converged,
    )


@dataclass(frozen=True)
class KktAudit:
    ok: bool
    n_checked: int
    violations: tuple[str, ...]
    max_dual_sum: float


def check_kkt(model: SvrModel, x, y, tolerance: float | None = None) -> KktAudit:
    """Independent KKT audit of a fitted model against its training set.

    Re-derives per-sample dual coefficients from ``sv_indices`` and verifies:
    zero-coefficient samples sit inside the tube (within tolerance), free
    samples sit on the tube edge, and at-bound samples sit on or outside it
    on the side their coefficient pulls. Also checks box and equality
    feasibility of the duals.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    tol = model.params.tolerance if tolerance is None else tolerance
    c, eps = model.params.c, model.params.epsilon
    beta = np.zeros(len(y))
    beta[model.sv_indices] = model.dual_coeffs
    resid = model.predict_batch(x) - y
    margin = 1e-8 * c
    violations = []
    if np.any(np.abs(beta) > c + margin):
        violations.append("a dual coefficient exceeds the box bound")
    dual_sum = float(abs(beta.sum()))
    if dual_sum > tol:
        violations.append(f"dual coefficients sum to {dual_sum:.3g} > tolerance")
    for i in range(len(y)):
        b, r = beta[i], resid[i]
        if abs(b) <= margin:
            if abs(r) > eps + tol:
                violations.append(f"sample {i}: zero coefficient but |residual| {abs(r):.4g} > eps + tol")
        elif abs(b) >= c - margin:
            if -np.sign(b) * r < eps - tol:
                violations.append(f"sample {i}: bound coefficient but residual {r:.4g} inside the tube")
        else:
            if not (eps - tol <= abs(r) <= eps + tol):
                violations.append(f"sample {i}: free coefficient but |residual| {abs(r):.4g} off the tube edge")
            elif eps > 2.0 * tol and np.sign(r) == np.sign(b):
                violations.append(f"sample {i}: free coefficient with residual on the wrong side")
    return KktAudit(ok=not violations, n_checked=len(y), violations=tuple(violations), max_dual_sum=dual_sum)


def _assert_same_fit(x, y, params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        got = fit_svr(x, y, params)
        want = _reference_fit_svr(x, y, params)
    assert got.dual_coeffs.tobytes() == want.dual_coeffs.tobytes()
    assert got.sv_indices.tobytes() == want.sv_indices.tobytes()
    assert got.bias == want.bias and math.copysign(1.0, got.bias) == math.copysign(1.0, want.bias)
    assert got.converged == want.converged


KERNELS = st.one_of(
    st.just(Kernel("linear")),
    st.floats(0.05, 2.0).map(lambda g: Kernel("rbf", gamma=g)),
)


@st.composite
def svr_problems(draw):
    """Small problems rich in ties: rows drawn from a pool (so duplicates
    occur), integer or free features, targets on a half-integer lattice or
    free, and update budgets short enough to end mid-solve."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 3))
    cell = st.integers(-2, 2).map(float) if draw(st.booleans()) else st.floats(-2.0, 2.0)
    pool = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=1, max_size=n))
    x = np.array([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)], dtype=float)
    target = st.integers(-4, 4).map(lambda v: 0.5 * v) if draw(st.booleans()) else st.floats(-3.0, 3.0)
    y = np.array(draw(st.lists(target, min_size=n, max_size=n)), dtype=float)
    params = SvrParams(
        c=draw(st.sampled_from([0.1, 1.0, 10.0, 100.0, 1000.0]) | st.floats(0.1, 1000.0)),
        epsilon=draw(st.sampled_from([0.0, 0.01, 0.1, 0.5]) | st.floats(0.0, 0.5)),
        kernel=draw(KERNELS),
        max_passes=draw(st.integers(1, 30)),
    )
    return x, y, params


@settings(max_examples=examples(300))
@given(svr_problems())
def test_fit_matches_reference_bit_for_bit(problem):
    _assert_same_fit(*problem)


@pytest.mark.parametrize(
    "x, y, params",
    [
        ([[0.3]], [1.0], SvrParams(c=1.0, epsilon=0.0, kernel=Kernel("linear"))),
        ([[0.3], [0.3], [0.3], [1.0]], [1.0, 2.0, 1.0, 0.0],
         SvrParams(c=10.0, epsilon=0.0, kernel=Kernel("rbf", gamma=1.0))),
        # ends with converged=False: 36 steps do not reach the tolerance
        ([[float(v % 5)] for v in range(12)], [0.5 * (v % 4) for v in range(12)],
         SvrParams(c=100.0, epsilon=0.0, kernel=Kernel("rbf", gamma=0.5), tolerance=1e-8, max_passes=3)),
        ([[float(v), float(-v)] for v in range(-4, 5)] * 2, [float(abs(v)) for v in range(-4, 5)] * 2,
         SvrParams(c=1000.0, epsilon=0.01, kernel=Kernel("linear"), max_passes=30)),
        # no free dual, and the bias bounds tie at -0.0 and +0.0
        ([[0.0], [0.0], [0.0]], [-0.0, -0.0, -0.5], SvrParams(c=0.1, epsilon=0.0, kernel=Kernel("linear"))),
    ],
    ids=["one-row", "duplicate-rows", "y-lattice-budget-bound", "doubled-lattice", "signed-zero-bounds"],
)
def test_fit_matches_reference_on_tied_problems(x, y, params):
    _assert_same_fit(np.array(x, dtype=float), np.array(y, dtype=float), params)


def test_default_grid_matches_reference_on_a_fold():
    ds = data.generate_synthetic(500, seed=42)
    plan = data.split(ds, seed=42)
    y = ds.target_matrix()[:, data.TARGET_COLUMNS.index("hc_yield")]
    trn = plan.train_indices[plan.fold_assignments != 0]
    x = Scaler.fit(ds.feature_matrix()[trn]).transform(ds.feature_matrix()[trn])
    y_fit = Scaler.fit(y[trn][:, None]).transform(y[trn][:, None])[:, 0]
    for params in HyperGrid.default().svr_grid:
        _assert_same_fit(x, y_fit, params)
