"""Decoding, target losses, and surrogate-to-target calibration checks.

A discrete target loss is handled through an affine decomposition

    L(y_hat, y) = <phi(y_hat), V phi(y) + b> + c(y)

so that decoding a continuous prediction ``p`` is a linear argmin over the
label set and the comparison constant ``sigma = sup_y ||V^T phi(y)||`` is
computable by enumeration. For the normalized Hamming loss the decomposition
is ``V = -(2/k) I``, ``b = (1/k) 1``, ``c(y) = (1/k) sum_j y_j`` and decoding
reduces to thresholding at 1/2 (exact ties resolve to 0).

``calibration_check`` verifies the excess-risk comparison

    xi(target_excess) <= surrogate_excess,   xi(eps) = eps^2 / (8 sigma^2 M),

where M is the smoothness of the surrogate in its input (exact for bilinear
couplings with strongly convex regularizers, estimated and inflated 2x for
the pairwise quadratic embedding).
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
from .exceptions import ContractViolation
from .losses import gfy_loss
from .numerics import as_vec, rng_from_seed
from .regularizers import Regularizer

MAX_ENUM_LABELS = 20


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
    phi: Callable[[np.ndarray], np.ndarray] = field(default=lambda y: y)
    k: int = 0
    sigma: float = 0.0

    def __post_init__(self):
        if self.k == 0:
            self.k = self.b.size
        labels = enumerate_labels(self.k)
        self.sigma = max(float(np.linalg.norm(self.V.T @ self.phi(y))) for y in labels)

    def loss(self, y_hat, y) -> float:
        return float(self.phi(as_vec(y_hat)) @ (self.V @ self.phi(as_vec(y)) + self.b)) + float(
            self.c(as_vec(y))
        )


def hamming_decomposition(k: int) -> AffineDecomposition:
    """Normalized Hamming loss ``(1/k) sum_j [y_hat_j != y_j]`` on {0,1}^k."""
    return AffineDecomposition(
        V=-(2.0 / k) * np.eye(k),
        b=np.full(k, 1.0 / k),
        c=lambda y: float(np.sum(y)) / k,
    )


def decode(p, dec: AffineDecomposition) -> np.ndarray:
    """``argmin_{y_hat} <phi(y_hat), V phi(p) + b>`` by enumeration; ties take
    the earliest label in all-zeros-first order."""
    p = as_vec(p)
    labels = enumerate_labels(dec.k)
    scores = np.array([float(dec.phi(y) @ (dec.V @ dec.phi(p) + dec.b)) for y in labels])
    return labels[int(np.argmin(scores))].copy()


def hamming_decode(p) -> np.ndarray:
    """Fast path for the Hamming decomposition: threshold at 1/2, ties to 0."""
    return (as_vec(p) > 0.5).astype(float)


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


def target_pointwise_risk(dec: AffineDecomposition, y_hat, q) -> float:
    labels = enumerate_labels(dec.k)
    q = _check_distribution(q, len(labels))
    return float(sum(qi * dec.loss(y_hat, y) for qi, y in zip(q, labels)))


def target_excess(dec: AffineDecomposition, y_hat, q) -> float:
    labels = enumerate_labels(dec.k)
    risks = [target_pointwise_risk(dec, y, q) for y in labels]
    return target_pointwise_risk(dec, y_hat, q) - min(risks)


def surrogate_pointwise_risk(
    energy: Energy, reg: Regularizer, v, q, cfg: SolverConfig | None = None
) -> float:
    labels = enumerate_labels(energy.k)
    q = _check_distribution(q, len(labels))
    total = 0.0
    for qi, y in zip(q, labels):
        if qi > 0.0:
            total += qi * gfy_loss(energy, reg, v, y, cfg).value
    return total


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
    n_starts: int = 4,
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
        return risk, np.concatenate([p - mu, gA.ravel()])

    rng = rng_from_seed(seed)
    best = math.inf
    for s in range(n_starts):
        z0 = np.zeros(k + k * k) if s == 0 else rng.standard_normal(k + k * k)
        out = minimize(risk_and_grad, z0, jac=True, method="L-BFGS-B", options={"maxiter": 500})
        best = min(best, float(out.fun))
    return best


def estimate_smoothness(
    energy: Energy,
    reg: Regularizer,
    v_samples: Sequence,
    cfg: SolverConfig | None = None,
    inflation: float = 2.0,
) -> float:
    """Largest sampled gradient-difference ratio of the surrogate risk, inflated.

    The risk gradient at ``v`` is ``phi(p*(v)) - mean_phi(q)``, so the constant
    distribution drops out and only argmax embeddings matter.
    """
    if len(v_samples) < 2:
        raise ContractViolation("need at least two samples to estimate smoothness")
    embeds = []
    flats = []
    for v in v_samples:
        p = conjugate(energy, reg, v, cfg).argmax
        embeds.append(np.concatenate([p, 0.5 * np.outer(p, p).ravel()]))
        flats.append(energy.input_to_vec(v))
    ratio = 0.0
    for i in range(len(flats)):
        for j in range(i + 1, len(flats)):
            dv = float(np.linalg.norm(flats[i] - flats[j]))
            if dv > 1e-9:
                ratio = max(ratio, float(np.linalg.norm(embeds[i] - embeds[j])) / dv)
    return inflation * ratio


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
    M: float | None = None,
    cfg: SolverConfig | None = None,
    slack: float = 1e-6,
    seed: int = 0,
) -> CalibrationReport:
    """Verify ``xi(target excess) <= surrogate excess + slack`` sample by sample."""
    labels = enumerate_labels(energy.k)
    q = _check_distribution(q, len(labels))
    dec = dec or hamming_decomposition(energy.k)
    if isinstance(energy, BilinearEnergy):
        if not np.array_equal(energy.U, np.eye(energy.k)):
            raise ContractViolation("bilinear calibration checks assume the identity coupling")
        bayes = _bayes_surrogate_risk_bilinear(reg, q, labels)
        if M is None:
            if reg.strong_convexity <= 0:
                raise ContractViolation("need a strongly convex regularizer (or explicit M)")
            M = 1.0 / reg.strong_convexity
    elif isinstance(energy, PairwiseEnergy):
        bayes = _bayes_surrogate_risk_pairwise(reg, q, labels, cfg, seed)
        if M is None:
            M = estimate_smoothness(energy, reg, v_samples, cfg)
    else:
        raise ContractViolation("calibration checks support bilinear and pairwise couplings")

    target_bayes = min(target_pointwise_risk(dec, y, q) for y in labels)
    rows = []
    worst = math.inf
    passed = True
    for v in v_samples:
        p_star = conjugate(energy, reg, v, cfg).argmax
        y_hat = decode(p_star, dec)
        d_target = target_pointwise_risk(dec, y_hat, q) - target_bayes
        d_surr = surrogate_pointwise_risk(energy, reg, v, q, cfg) - bayes
        xi = comparison_bound(d_target, dec.sigma, M)
        ok = xi <= d_surr + slack
        worst = min(worst, d_surr + slack - xi)
        passed = passed and ok
        rows.append(
            {
                "target_excess": d_target,
                "surrogate_excess": d_surr,
                "xi": xi,
                "ok": ok,
            }
        )
    return CalibrationReport(
        rows=rows,
        sigma=dec.sigma,
        M=float(M),
        bayes_surrogate_risk=bayes,
        passed=passed,
        worst_slack=worst,
    )
