"""Epsilon-insensitive support vector regression trained by SMO.

The dual problem is solved over the 2n box variables (alpha, alpha*) with
the single equality constraint sum(alpha - alpha*) = 0. Each step takes the
maximal KKT violator as the first working variable, picks its partner by
the largest guaranteed objective decrease (second-order rule of Fan, Chen &
Lin 2005), and then minimizes the dual exactly along the feasible segment.
Selection scans all samples every step; an epoch is n steps and
``max_passes`` counts epochs.

Every per-variable vector of the step loop has length 2n: entry k < n is
alpha_k and entry n + k is alpha*_k, so one first-index argmax over it
prefers alpha to alpha* on ties. Whether a variable may still move is kept
as two additive penalty vectors, 0 where it can move that way and -inf
(lower bias bound) or +inf (upper bias bound) where it cannot; a step
changes only its two working variables, so only their two entries are
refreshed. The loop's scratch vectors are allocated once and written in
place, and the duals are held as Python floats for the scalar arithmetic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import (ConvergenceWarning, DimensionMismatch, DualConstraintDrift, EmptyInput, InvalidModelFile,
                     read_fields, require_finite, require_int, require_ints, require_real, require_reals, require_type)


@dataclass(frozen=True)
class Kernel:
    kind: str  # "linear" | "rbf"
    gamma: float = 0.1

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"kernel kind {self.kind!r} is not supported; expected 'linear' or 'rbf'")
        if not math.isfinite(self.gamma):
            raise ValueError(f"kernel gamma must be finite, got {self.gamma!r}")
        if self.kind == "rbf" and not self.gamma > 0.0:
            raise ValueError("rbf gamma must be > 0")
        if self.kind == "linear" and self.gamma != Kernel.gamma:  # one linear kernel: it reads no gamma
            raise ValueError("kernel kind 'linear' does not read field 'gamma'")

    def __str__(self) -> str:
        return " ".join([self.kind] + [f"{k}={v!r}" for k, v in self.to_dict().items() if k != "kind"])

    def to_dict(self) -> dict:
        return {"kind": self.kind, "gamma": self.gamma} if self.kind == "rbf" else {"kind": self.kind}

    @classmethod
    def from_dict(cls, d: dict) -> "Kernel":
        """Read a kernel, refusing an unsupported kind before any other field, and a field its kind does not
        read (a linear kernel's gamma, say)."""
        cls(require_type("kernel", d, dict)["kind"])
        kernel = read_fields(cls, "kernel", d, {"gamma": partial(require_real, "kernel gamma")})
        unread = [k for k in d if k not in kernel.to_dict()]
        if unread:
            raise ValueError(f"kernel kind {kernel.kind!r} does not read field {unread[0]!r}")
        return kernel


@dataclass(frozen=True)
class SvrParams:
    c: float
    epsilon: float
    kernel: Kernel
    tolerance: float = 1e-3
    max_passes: int = 200

    def __post_init__(self):
        for name in ("c", "epsilon", "tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"SVR {name} must be finite, got {getattr(self, name)!r}")
        if not self.c > 0.0:
            raise ValueError("c must be > 0")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be > 0")
        require_int("max_passes", self.max_passes)
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")

    def to_dict(self) -> dict:
        return {**asdict(self), "kernel": self.kernel.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "SvrParams":
        reals = {f: partial(require_real, f) for f in ("c", "epsilon", "tolerance")}
        return read_fields(cls, "svr params", d, {**reals, "kernel": Kernel.from_dict})


def kernel_matrix(kernel: Kernel, a, b) -> np.ndarray:
    """Gram block K[i, j] = k(a_i, b_j) for row matrices a and b."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"feature counts differ: {a.shape[1]} vs {b.shape[1]}")
    if kernel.kind == "linear":
        return a @ b.T
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-kernel.gamma * sq)


# Kernel entries per prediction block (8 MiB of float64). Not smaller: with
# temporaries of a few MB each, malloc hands the heap back to the system and
# faults it in again on every block.
_KERNEL_ENTRIES = 1 << 20

# (background row, support vector, feature) entries per block of the RBF
# closed form in SvrModel.shapley_values: each of its six work arrays is at
# most 1 MiB, whatever the background.
_FACTOR_ENTRIES = 1 << 17


def _add_rbf_shares(total, a, rows, sv, gamma, nodes, weights) -> None:
    """Add each background row's (support vector, feature) share of the RBF
    closed form in SvrModel.shapley_values to ``total``, in row order, so the
    sum does not depend on how the rows are blocked. ``a`` holds the
    explained row's kernel factors; the work arrays are (rows, n_sv, d) and
    freed on return."""
    c = rows[:, None, :] - sv
    np.square(c, out=c)
    c *= -gamma
    np.exp(c, out=c)
    gap = a - c
    integral = np.zeros_like(c)
    h, loo = np.empty_like(c), np.empty_like(c)
    suffix = np.empty(c.shape[:-1] + (c.shape[-1] - 1,))
    for t, w in zip(nodes, weights):
        np.multiply(gap, 0.5 * (t + 1.0), out=h)  # node t of [-1, 1] mapped to u in [0, 1]
        h += c
        loo[..., 0] = 1.0
        np.cumprod(h[..., :-1], axis=-1, out=loo[..., 1:])
        np.cumprod(h[..., :0:-1], axis=-1, out=suffix[..., ::-1])
        loo[..., :-1] *= suffix
        loo *= 0.5 * w
        integral += loo
    gap *= integral
    for share in gap:
        total += share


class SvrModel:
    """Fitted epsilon-SVR: decision function sum(beta_i k(sv_i, x)) + bias."""

    def __init__(self, support_vectors, dual_coeffs, bias, params: SvrParams, n_features: int,
                 sv_indices=None, converged: bool = True):
        self.support_vectors = np.asarray(support_vectors, dtype=float)
        self.dual_coeffs = np.asarray(dual_coeffs, dtype=float)
        self.bias = float(bias)
        self.params = params
        self.n_features = int(n_features)
        self.sv_indices = np.asarray(sv_indices if sv_indices is not None else [], dtype=int)
        self.converged = bool(converged)
        if self.dual_coeffs.ndim != 1:
            raise InvalidModelFile(f"dual_coeffs has shape {self.dual_coeffs.shape}, not (n_sv,)")
        n_sv = len(self.dual_coeffs)
        if self.support_vectors.shape == (0,):  # no support vectors, as an empty JSON list reads
            self.support_vectors = self.support_vectors.reshape(0, self.n_features)
        if self.support_vectors.shape != (n_sv, self.n_features):
            raise InvalidModelFile(f"support_vectors has shape {self.support_vectors.shape}, not "
                                   f"({n_sv}, {self.n_features}) for {n_sv} dual_coeffs and {self.n_features} features")
        if len(self.sv_indices) not in (0, n_sv):
            raise InvalidModelFile(f"sv_indices has {len(self.sv_indices)} entries, dual_coeffs {n_sv}")
        for name, value in (("support_vectors", self.support_vectors), ("dual_coeffs", self.dual_coeffs),
                            ("bias", self.bias)):
            if not np.isfinite(value).all():
                raise InvalidModelFile(f"{name} holds a value that is not finite")
        for arr in (self.support_vectors, self.dual_coeffs, self.sv_indices):
            arr.setflags(write=False)

    def predict_batch(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.n_features:
            raise DimensionMismatch(f"expected {self.n_features} features, got {x.shape[1]}")
        n_sv = len(self.dual_coeffs)
        if n_sv == 0:
            return np.full(x.shape[0], self.bias)
        # Rows go in blocks of a power of two rows whose kernel fits _KERNEL_ENTRIES,
        # so the kernel and its temporaries stay a few blocks whatever the batch.
        b = 1 << max(0, (_KERNEL_ENTRIES // n_sv).bit_length() - 1)
        out = np.empty(x.shape[0])
        for lo in range(0, x.shape[0], b):
            k = kernel_matrix(self.params.kernel, x[lo : lo + b], self.support_vectors)
            out[lo : lo + b] = k @ self.dual_coeffs + self.bias
        return out

    def shapley_values(self, z, background) -> np.ndarray:
        """Exact interventional Shapley values of the decision function at row
        ``z`` over ``background`` rows.

        A linear model is additive: phi_i = w_i (z_i - mean_r r_i) with
        w = sum_s beta_s s. An RBF kernel is a product over features, so for
        a background row r and a support vector s a coalition's kernel value
        is prod_j of a_j = k_j(z_j, s_j) where j is in the coalition and
        c_j = k_j(r_j, s_j) where it is not. By Owen's multilinear extension
        such a product game has phi_i = (a_i - c_i) times the integral over
        u in [0, 1] of prod_{j != i} ((1 - u) c_j + u a_j). The integrand is
        a polynomial in u with powers up to d - 1, so ceil(d / 2) Gauss-Legendre
        nodes integrate it exactly; the products leaving out one j are a
        prefix times a suffix product over j. No kernel is evaluated through
        a matrix product, and background rows go in blocks of at most
        _FACTOR_ENTRIES entries whose shares are added in row order, so the
        values do not depend on how rows are batched.
        """
        z = np.asarray(z, dtype=float).ravel()
        background = np.atleast_2d(np.asarray(background, dtype=float))
        if self.params.kernel.kind == "linear":
            return (self.dual_coeffs @ self.support_vectors) * (z - background.mean(axis=0))
        gamma = self.params.kernel.gamma
        n_sv, d = self.support_vectors.shape
        a = np.exp(-gamma * (z - self.support_vectors) ** 2)  # (n_sv, d)
        nodes, weights = np.polynomial.legendre.leggauss((d + 1) // 2)
        b = max(1, _FACTOR_ENTRIES // max(1, n_sv * d))
        total = np.zeros((n_sv, d))
        for lo in range(0, len(background), b):
            _add_rbf_shares(total, a, background[lo : lo + b], self.support_vectors, gamma, nodes, weights)
        return self.dual_coeffs @ (total / len(background))

    def to_json_obj(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "n_features": self.n_features,
            "support_vectors": [[float(v) for v in row] for row in self.support_vectors],
            "dual_coeffs": [float(v) for v in self.dual_coeffs],
            "sv_indices": [int(v) for v in self.sv_indices],
            "bias": self.bias,
            "converged": self.converged,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SvrModel":
        require_type("model", obj, dict)
        return cls(
            support_vectors=require_reals("support_vectors", obj["support_vectors"]),
            dual_coeffs=require_reals("dual_coeffs", obj["dual_coeffs"]),
            bias=require_real("bias", obj["bias"]),
            params=SvrParams.from_dict(obj["params"]),
            n_features=require_int("n_features", obj["n_features"]),
            sv_indices=require_ints("sv_indices", obj["sv_indices"]),
            converged=require_type("converged", obj["converged"], bool),
        )


def fit_svr(x, y, params: SvrParams) -> SvrModel:
    """Solve the epsilon-SVR dual by sequential minimal optimization.

    On return every KKT condition holds within ``params.tolerance`` unless
    the update budget (``max_passes`` epochs of n steps each) ran out, in
    which case the best-effort model is returned with ``converged=False``
    and a ConvergenceWarning naming the candidate is emitted. The solver is
    deterministic and holds the n x n Gram matrix and n x n table of pair
    curvatures eta for the whole solve: 16n^2 bytes, 24n^2 while eta is built.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = len(y)
    if n == 0:
        raise EmptyInput("no training rows")
    if x.shape[0] != n:
        raise DimensionMismatch(f"x has {x.shape[0]} rows but y has {n} values")
    require_finite("x", x)
    require_finite("y", y)
    c, eps, tol = params.c, params.epsilon, params.tolerance
    gram = kernel_matrix(params.kernel, x, x)
    diag = gram.diagonal()
    y_at = y.tolist()
    slack = 1e-10 * c
    grow_below = c - slack
    u = [0.0] * (2 * n)
    f = np.zeros(n)
    # u = 0: every alpha can grow (bias lower bound), every alpha* can grow
    # (bias upper bound), and nothing can shrink.
    low_pen = np.concatenate([np.zeros(n), np.full(n, -np.inf)])
    up_pen = np.concatenate([np.full(n, np.inf), np.zeros(n)])
    # eta[i, j] = k(i,i) + k(j,j) - 2 k(i,j) for both twins of j, floored at
    # 1e-12 (a step divides only by larger values); the diagonal is the floor
    # (a finite k(i, i) cancels to 0 there; an overflowed one would read NaN).
    eta = np.multiply(gram, 2.0)
    np.subtract(np.add(diag[None, :], diag[:, None]), eta, out=eta)
    np.maximum(eta, 1e-12, out=eta)
    np.fill_diagonal(eta, 1e-12)
    r, scaled_row = np.empty(n), np.empty(n)
    vals, lv, uv, gain = (np.empty(2 * n) for _ in range(4))
    vals_a, vals_s, gain_a, gain_s = vals[:n], vals[n:], gain[:n], gain[n:]
    blocked = np.empty(2 * n, dtype=bool)
    converged = False
    budget = params.max_passes * n
    for step in range(budget + 1):
        if 0 < step < budget and step % (8 * n) == 0:
            f = gram @ (np.array(u[:n]) - np.array(u[n:]))  # periodic refresh against drift
        np.subtract(y, f, r)
        np.subtract(r, eps, vals_a)
        np.add(r, eps, vals_s)
        np.add(vals, low_pen, lv)
        np.add(vals, up_pen, uv)
        p = int(lv.argmax())
        b_low = lv.item(p)
        b_up = uv.item(uv.argmin())
        if step == budget:
            break  # the last pass only selects, leaving b_low and b_up at the final duals
        if b_low - b_up <= tol or not math.isfinite(b_low) or not math.isfinite(b_up):
            converged = True
            break
        i, s_p = (p, 1.0) if p < n else (p - n, -1.0)
        k_i, eta_i = gram[i], eta[i]
        # partner choice: largest guaranteed decrease viol^2 / eta
        np.subtract(b_low, uv, gain)
        np.multiply(gain, gain, gain)
        np.divide(gain_a, eta_i, gain_a)
        np.divide(gain_s, eta_i, gain_s)
        np.greater_equal(uv, b_low, blocked)
        np.copyto(gain, -np.inf, where=blocked)
        q = int(gain.argmax())
        j, s_q = (q, 1.0) if q < n else (q - n, -1.0)
        k_j = gram[j] if j != i else k_i
        g = (f.item(i) - y_at[i] + s_p * eps) - (f.item(j) - y_at[j] + s_q * eps)
        eta_ij = eta_i.item(j)
        u_p, u_q = u[p], u[q]
        t_lo_p, t_hi_p = (-u_p, c - u_p) if s_p > 0 else (u_p - c, u_p)
        t_lo_q, t_hi_q = (u_q - c, u_q) if s_q > 0 else (-u_q, c - u_q)
        t_lo = max(t_lo_p, t_lo_q)
        t_hi = min(t_hi_p, t_hi_q)
        if eta_ij > 1e-12:
            t = min(max(-g / eta_ij, t_lo), t_hi)
        else:
            t = t_hi if g < 0.0 else t_lo
        if t == 0.0:
            converged = True  # violating pair has no headroom at float resolution
            break
        beta_i_old = u[i] - u[n + i]
        beta_j_old = u[j] - u[n + j]
        u[p] = min(max(u_p + s_p * t, 0.0), c)
        u[q] = min(max(u_q - s_q * t, 0.0), c)
        d_i = (u[i] - u[n + i]) - beta_i_old
        d_j = 0.0 if i == j else (u[j] - u[n + j]) - beta_j_old
        if d_i != 0.0:
            np.multiply(k_i, d_i, scaled_row)
            np.add(f, scaled_row, f)
        if d_j != 0.0:
            np.multiply(k_j, d_j, scaled_row)
            np.add(f, scaled_row, f)
        for k in (p, q):
            can_grow, can_shrink = u[k] < grow_below, u[k] > slack
            if k < n:
                low_pen[k] = 0.0 if can_grow else -np.inf
                up_pen[k] = 0.0 if can_shrink else np.inf
            else:
                low_pen[k] = 0.0 if can_shrink else -np.inf
                up_pen[k] = 0.0 if can_grow else np.inf
    u = np.array(u)
    if not converged:
        warnings.warn(
            f"SVR solver used its whole budget of {budget} steps (max_passes={params.max_passes} x {n} rows) "
            f"before satisfying KKT conditions for C={c!r}, epsilon={eps!r}, kernel={params.kernel}, "
            f"tolerance={tol!r}",
            ConvergenceWarning,
        )
    beta = u[:n] - u[n:]
    # dual feasibility is maintained exactly by the paired updates
    drift = abs(float(beta.sum()))
    if drift > max(tol, 1e-9 * c * n):
        raise DualConstraintDrift(f"dual coefficients sum to {drift:.3g}; the equality constraint drifted")
    free = (np.abs(beta) > 1e-8 * c) & (np.abs(beta) < c * (1.0 - 1e-8))
    if free.any():
        idx = np.flatnonzero(free)
        bias = float(np.mean([y[i] - f[i] - np.sign(beta[i]) * eps for i in idx]))
    # no free variable: the loop's last bounds, where a variable that can
    # still grow bounds the bias below and one that can still shrink above
    elif not math.isfinite(b_low):
        bias = b_up if math.isfinite(b_up) else 0.0
    elif not math.isfinite(b_up):
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
