"""Decoding, target losses, and surrogate-to-target calibration checks.

A discrete target loss is handled through an affine decomposition

    L(y_hat, y) = <y_hat, V y + b> + c(y)

so that decoding a continuous prediction ``p`` is a linear argmin over the
label set and the comparison constant ``sigma = sup_y ||V^T y||`` is
computable by enumeration. For the normalized Hamming loss the decomposition
is ``V = -(2/k) I``, ``b = (1/k) 1``, ``c(y) = (1/k) sum_j y_j`` and decoding
reduces to thresholding at 1/2 (exact ties resolve to 0).

``calibration_check`` verifies the excess-risk comparison

    xi(target_excess) <= surrogate_excess,   xi(eps) = eps^2 / (8 sigma^2 M),

where M is the smoothness of the surrogate in its input (exact for bilinear
couplings with strongly convex regularizers, estimated and inflated
``SMOOTHNESS_INFLATION``-fold for the pairwise quadratic embedding).

Rows are the batch axis: ``decode`` and the pointwise risks take one input
or a batch of rows (one input still gives a ``(k,)`` label or a float), and
``calibration_check`` and ``estimate_smoothness`` solve their whole input set
in one batched conjugate call.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from .conjugate import SolverConfig, conjugate
from .energies import BilinearEnergy, Energy, PairwiseEnergy, PairwiseInput
from .exceptions import ContractViolation, EvaluationError
from .numerics import as_rows, as_vec, assert_finite, rng_from_seed, row_values, stack
from .regularizers import Regularizer

MAX_ENUM_LABELS = 20
# Multistarts of the pairwise Bayes-risk minimization, and the safety factor
# on the sampled smoothness of the pairwise surrogate.
BAYES_RISK_STARTS = 4
SMOOTHNESS_INFLATION = 2.0


def enumerate_labels(k: int) -> np.ndarray:
    """All binary label vectors of length ``k``, all-zeros first."""
    if k > MAX_ENUM_LABELS:
        raise ContractViolation(f"refusing to enumerate 2^{k} labels")
    return np.array(list(itertools.product((0.0, 1.0), repeat=k)))


@dataclass
class AffineDecomposition:
    V: np.ndarray
    b: np.ndarray
    c: Callable[[np.ndarray], float]
    k: int = field(init=False)
    sigma: float = field(init=False)

    def __post_init__(self):
        self.k = self.b.size
        self.sigma = max(float(np.linalg.norm(self.V.T @ y)) for y in enumerate_labels(self.k))

    def loss(self, y_hat, y):
        """``L(y_hat, y)`` of one label ``y_hat``, or of each row of ``(B, k)``."""
        return row_values(np.vecdot(as_rows(y_hat), self.V @ as_vec(y) + self.b) + float(self.c(as_vec(y))))


def hamming_decomposition(k: int) -> AffineDecomposition:
    """Normalized Hamming loss ``(1/k) sum_j [y_hat_j != y_j]`` on {0,1}^k."""
    return AffineDecomposition(
        V=-(2.0 / k) * np.eye(k),
        b=np.full(k, 1.0 / k),
        c=lambda y: float(np.sum(y)) / k,
    )


def decode(p, dec: AffineDecomposition) -> np.ndarray:
    """``argmin_{y_hat} <y_hat, V p + b>`` by enumeration, for one point or each
    row of ``(B, k)``; ties take the earliest label in all-zeros-first order."""
    labels = enumerate_labels(dec.k)
    scores = np.vecdot((np.matvec(dec.V, as_rows(p)) + dec.b)[..., None, :], labels)
    return labels[np.argmin(scores, axis=-1)]


def hamming_decode(P) -> np.ndarray:
    """Fast path for the Hamming decomposition: threshold at 1/2, ties to 0.

    ``P`` is one marginal vector or an ``(n, k)`` matrix of them.
    """
    return (np.asarray(P, dtype=float) > 0.5).astype(float)


def accuracy(Y_hat, Y) -> float:
    """Mean per-label agreement (1 - normalized Hamming loss)."""
    Y_hat = np.asarray(Y_hat, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y_hat.shape != Y.shape:
        raise ContractViolation("prediction and label arrays must have the same shape")
    return float(np.mean(Y_hat == Y))


def _check_distribution(q: np.ndarray, n: int) -> np.ndarray:
    q = as_vec(q, "label distribution")
    if q.size != n or np.any(q < -1e-12) or abs(float(np.sum(q)) - 1.0) > 1e-9:
        raise ContractViolation("q must be a probability vector over the enumerated labels")
    return np.maximum(q, 0.0)


def target_pointwise_risk(dec: AffineDecomposition, y_hat, q):
    """``E_{y~q} L(y_hat, y)`` of one label, or of each row of ``(B, k)``."""
    labels = enumerate_labels(dec.k)
    q = _check_distribution(q, len(labels))
    return row_values(sum(qi * dec.loss(y_hat, y) for qi, y in zip(q, labels)))


def target_excess(dec: AffineDecomposition, y_hat, q):
    """Target risk of one label, or of each row, above the Bayes risk."""
    labels = enumerate_labels(dec.k)
    return target_pointwise_risk(dec, y_hat, q) - float(np.min(target_pointwise_risk(dec, labels, q)))


def _loss_mixture(energy: Energy, reg: Regularizer, v, q, conj):
    # E_q [Omega^Phi(v) + Omega(y) - Phi(v, y)] from solved conjugate values, label by
    # label in label order, so that each row rounds as the q-mixture of its gfy_loss values
    labels = enumerate_labels(energy.k)
    q = _check_distribution(q, len(labels))
    if not reg.domain.contains(labels[q > 0.0]).all():
        raise ContractViolation("target lies outside the regularizer domain")
    total = 0.0
    for qi, y in zip(q, labels):
        if qi > 0.0:
            total = total + qi * (conj + reg.value(y) - energy.value(v, y))
    return row_values(assert_finite(total, "surrogate risk"))


def surrogate_pointwise_risk(energy: Energy, reg: Regularizer, v, q, cfg: SolverConfig | None = None):
    """``E_{y~q} loss(v, y)`` of one input, or of each row of a batched input, from one solve."""
    return _loss_mixture(energy, reg, v, q, conjugate(energy, reg, v, cfg).value)


def _bayes_surrogate_risk_bilinear(reg: Regularizer, q: np.ndarray, labels: np.ndarray) -> float:
    # E_q Omega(Y) - Omega(mu): the risk at any v whose argmax equals the mean.
    mu = q @ labels
    return float(sum(qi * reg.value(y) for qi, y in zip(q, labels)) - reg.value(mu))


def _bayes_surrogate_risk_pairwise(
    reg: Regularizer,
    q: np.ndarray,
    labels: np.ndarray,
    cfg: SolverConfig | None,
    seed: int,
) -> float:
    # Minimize the pointwise surrogate risk over (u, U = -A A^T) with the
    # envelope gradient; multistart keeps the estimate honest.
    k = labels.shape[1]
    energy = PairwiseEnergy(k)
    mu = q @ labels
    S = np.einsum("i,ij,il->jl", q, labels, labels)
    e_omega = float(sum(qi * reg.value(y) for qi, y in zip(q, labels)))

    def risk_and_grad(z):
        u = z[:k]
        A = z[k:].reshape(k, k)
        v = PairwiseInput(u=u, U=-A @ A.T)
        res = conjugate(energy, reg, v, cfg)
        p = res.argmax
        risk = res.value + e_omega - (float(u @ mu) + 0.5 * float(np.sum(v.U * S)))
        G = 0.5 * (np.outer(p, p) - S)
        gA = -(G + G.T) @ A
        grad = np.concatenate([p - mu, gA.ravel()])
        if not (math.isfinite(risk) and np.all(np.isfinite(grad))):
            raise EvaluationError("pairwise Bayes surrogate risk or its gradient is not finite")
        return risk, grad

    rng = rng_from_seed(seed)
    best = math.inf
    for s in range(BAYES_RISK_STARTS):
        z0 = np.zeros(k + k * k) if s == 0 else rng.standard_normal(k + k * k)
        out = minimize(risk_and_grad, z0, jac=True, method="L-BFGS-B", options={"maxiter": 500})
        best = min(best, float(out.fun))
    return best


def estimate_smoothness(
    energy: Energy, reg: Regularizer, v_samples: Sequence, cfg: SolverConfig | None = None
) -> float:
    """Largest sampled gradient-difference ratio of the surrogate risk, inflated.

    The risk gradient at ``v`` is ``phi(p*(v)) - mean_phi(q)``, so the constant
    distribution drops out and only argmax embeddings matter.
    """
    if len(v_samples) < 2:
        raise ContractViolation("need at least two samples to estimate smoothness")
    return _smoothness(energy, v_samples, conjugate(energy, reg, stack(list(v_samples)), cfg).argmax)


def _smoothness(energy: Energy, v_samples: Sequence, P: np.ndarray) -> float:
    # each pair's ratio ||phi(p_i) - phi(p_j)|| / ||v_i - v_j||, one row of pairs per i
    embeds = np.concatenate([P, 0.5 * (P[:, :, None] * P[:, None, :]).reshape(len(P), -1)], axis=1)
    flats = np.stack([energy.input_to_vec(v) for v in v_samples])
    ratio = 0.0
    for i in range(len(flats) - 1):
        df, de = flats[i] - flats[i + 1 :], embeds[i] - embeds[i + 1 :]
        dv = np.sqrt(np.vecdot(df, df))
        far = dv > 1e-9
        if far.any():
            ratio = max(ratio, float(np.max(np.sqrt(np.vecdot(de[far], de[far])) / dv[far])))
    return SMOOTHNESS_INFLATION * ratio


def comparison_bound(eps: float, sigma: float, M: float) -> float:
    """``xi(eps) = eps^2 / (8 sigma^2 M)``."""
    return eps * eps / (8.0 * sigma * sigma * M)


@dataclass
class CalibrationReport:
    rows: list[dict]
    sigma: float
    M: float
    bayes_surrogate_risk: float
    passed: bool
    worst_slack: float


def calibration_check(
    energy: Energy,
    reg: Regularizer,
    q,
    v_samples: Sequence,
    dec: AffineDecomposition | None = None,
    cfg: SolverConfig | None = None,
    slack: float = 1e-6,
    seed: int = 0,
) -> CalibrationReport:
    """Verify ``xi(target excess) <= surrogate excess + slack`` at each sample."""
    if slack < 0:
        raise ContractViolation(f"slack must be >= 0, got {slack}")
    V = stack(list(v_samples))
    labels = enumerate_labels(energy.k)
    q = _check_distribution(q, len(labels))
    dec = dec or hamming_decomposition(energy.k)
    if isinstance(energy, BilinearEnergy):
        if not np.array_equal(energy.U, np.eye(energy.k)):
            raise ContractViolation("bilinear calibration checks assume the identity coupling")
        bayes = _bayes_surrogate_risk_bilinear(reg, q, labels)
        if reg.strong_convexity <= 0:
            raise ContractViolation("need a strongly convex regularizer")
        M = 1.0 / reg.strong_convexity
        res = conjugate(energy, reg, V, cfg)
    elif isinstance(energy, PairwiseEnergy):
        if len(v_samples) < 2:
            raise ContractViolation("need at least two samples to estimate smoothness")
        bayes = _bayes_surrogate_risk_pairwise(reg, q, labels, cfg, seed)
        res = conjugate(energy, reg, V, cfg)
        M = _smoothness(energy, v_samples, res.argmax)
    else:
        raise ContractViolation("calibration checks support bilinear and pairwise couplings")
    if not (M > 0 and math.isfinite(M)):
        raise EvaluationError(
            f"surrogate smoothness M = {M} must be positive and finite "
            "(the sampled estimate is 0 when no sampled input moves the argmax)"
        )

    d_target = target_excess(dec, decode(res.argmax, dec), q)
    d_surr = _loss_mixture(energy, reg, V, q, res.value) - bayes
    xi = comparison_bound(d_target, dec.sigma, M)
    ok = xi <= d_surr + slack
    columns = zip(d_target.tolist(), d_surr.tolist(), xi.tolist(), ok.tolist())
    return CalibrationReport(
        rows=[{"target_excess": t, "surrogate_excess": s, "xi": x, "ok": o} for t, s, x, o in columns],
        sigma=dec.sigma,
        M=float(M),
        bayes_surrogate_risk=bayes,
        passed=bool(ok.all()),
        worst_slack=float(np.min(d_surr + slack - xi)),
    )
