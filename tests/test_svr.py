import json

import numpy as np
import pytest

from hydrochar.errors import ConvergenceWarning, DimensionMismatch, EmptyInput
from hydrochar.svr import (
    Kernel,
    SvrModel,
    SvrParams,
    check_kkt,
    fit_svr,
    kernel_matrix,
)


# ----------------------------------------------------------------- kernels

def test_kernel_matrix_examples():
    assert kernel_matrix(Kernel.rbf(0.7), [[1.0, 2.0]], [[1.0, 2.0]])[0, 0] == 1.0
    assert kernel_matrix(Kernel.linear(), [[1.0, 2.0]], [[3.0, 4.0]])[0, 0] == 11.0
    assert kernel_matrix(Kernel.polynomial(2, coef0=1.0), [[1.0]], [[1.0]])[0, 0] == 4.0


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel.rbf(0.0)
    with pytest.raises(ValueError):
        Kernel.polynomial(0)
    with pytest.raises(ValueError):
        Kernel(kind="sigmoid")


def test_kernel_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kernel_matrix(Kernel.linear(), [[1.0, 2.0]], [[1.0]])


def test_kernel_matrix_symmetric(rng):
    x = rng.uniform(-1, 1, (20, 3))
    for kern in (Kernel.linear(), Kernel.polynomial(2, 1.0), Kernel.rbf(0.5)):
        k = kernel_matrix(kern, x, x)
        assert np.allclose(k, k.T, atol=1e-12)


# --------------------------------------------------------------------- fit

def test_constant_target_inside_tube():
    x = np.linspace(0, 1, 12)[:, None]
    model = fit_svr(x, np.full(12, 3.3), SvrParams(c=1.0, epsilon=0.1, kernel=Kernel.rbf(1.0)))
    assert len(model.dual_coeffs) == 0
    assert model.bias == pytest.approx(3.3, abs=1e-12)
    assert model.predict_batch([[0.77]])[0] == pytest.approx(3.3, abs=1e-12)


def test_linear_fit_tracks_targets(rng):
    x = rng.uniform(-1, 1, 30)[:, None]
    y = 2.0 * x[:, 0]
    model = fit_svr(x, y, SvrParams(c=1000.0, epsilon=0.01, kernel=Kernel.linear()))
    assert model.converged
    pred = model.predict_batch(x)
    assert np.abs(pred - y).max() <= 0.02


@pytest.mark.parametrize(
    "kern",
    [Kernel.linear(), Kernel.polynomial(2, coef0=1.0), Kernel.rbf(0.5)],
    ids=["linear", "poly", "rbf"],
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
    params = SvrParams(c=10.0, epsilon=0.05, kernel=Kernel.rbf(0.7), tolerance=1e-8)
    single = fit_svr(x, y, params)
    doubled = fit_svr(np.vstack([x, x]), np.concatenate([y, y]), params)
    q = rng.uniform(-1, 1, (40, 2))
    assert np.abs(single.predict_batch(q) - doubled.predict_batch(q)).max() <= 1e-6


def test_rbf_translation_covariance(rng):
    # tight tolerance pins the solution; near-optimal wiggle would mask it
    x = rng.uniform(-1, 1, (30, 2))
    y = np.cos(x[:, 0]) + x[:, 1]
    shift = np.array([5.0, -3.0])
    params = SvrParams(c=5.0, epsilon=0.05, kernel=Kernel.rbf(0.4), tolerance=1e-10, max_passes=2000)
    a = fit_svr(x, y, params)
    b = fit_svr(x + shift, y, params)
    q = rng.uniform(-1, 1, (20, 2))
    assert np.abs(a.predict_batch(q) - b.predict_batch(q + shift)).max() <= 1e-8


def test_target_shift_absorbed_by_bias(rng):
    x = rng.uniform(-1, 1, (30, 2))
    y = np.sin(2 * x[:, 0]) - x[:, 1]
    params = SvrParams(c=5.0, epsilon=0.05, kernel=Kernel.rbf(0.5), tolerance=1e-8, max_passes=2000)
    a = fit_svr(x, y, params)
    b = fit_svr(x, y + 7.5, params)
    q = rng.uniform(-1, 1, (20, 2))
    assert np.abs((b.predict_batch(q) - a.predict_batch(q)) - 7.5).max() <= 1e-6


def test_no_convergence_flag(rng):
    x = rng.uniform(-2, 2, (80, 3))
    y = np.sin(3 * x[:, 0]) * np.cos(x[:, 1]) + x[:, 2]
    params = SvrParams(c=100.0, epsilon=0.001, kernel=Kernel.rbf(2.0), max_passes=1)
    with pytest.warns(ConvergenceWarning):
        model = fit_svr(x, y, params)
    assert not model.converged
    assert model.predict_batch(x).shape == (80,)


def test_fit_errors():
    with pytest.raises(EmptyInput):
        fit_svr(np.empty((0, 2)), [], SvrParams())
    with pytest.raises(DimensionMismatch):
        fit_svr([[1.0], [2.0]], [1.0], SvrParams())


# ----------------------------------------------------------------- predict

def test_no_support_vectors_predicts_bias():
    model = SvrModel(
        support_vectors=np.empty((0, 2)),
        dual_coeffs=[],
        bias=1.25,
        params=SvrParams(),
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
        params=SvrParams(kernel=Kernel.rbf(1.0)),
        n_features=2,
    )
    # k(sv, sv) = 1, so prediction = coeff + bias
    assert model.predict_batch(sv)[0] == pytest.approx(2.3, abs=1e-12)


def test_prediction_linear_in_dual_coeffs(rng):
    x = rng.uniform(-1, 1, (15, 2))
    y = x[:, 0] + x[:, 1]
    model = fit_svr(x, y, SvrParams(c=5.0, epsilon=0.02, kernel=Kernel.rbf(0.5)))
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
    model = SvrModel(np.empty((0, 3)), [], 0.0, SvrParams(), n_features=3)
    with pytest.raises(DimensionMismatch):
        model.predict_batch([[1.0, 2.0]])


def test_serialization_roundtrip_bit_stable(rng):
    x = rng.uniform(-1, 1, (40, 2))
    y = np.sin(x[:, 0]) + x[:, 1] ** 2
    model = fit_svr(x, y, SvrParams(c=10.0, epsilon=0.05, kernel=Kernel.rbf(0.8)))
    back = SvrModel.from_json_obj(json.loads(json.dumps(model.to_json_obj())))
    q = rng.uniform(-1, 1, (30, 2))
    assert np.abs(model.predict_batch(q) - back.predict_batch(q)).max() <= 1e-12
    assert back.params == model.params
    assert np.array_equal(back.sv_indices, model.sv_indices)
