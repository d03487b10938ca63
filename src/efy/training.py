"""Stochastic training of energy models under Fenchel-Young style losses.

The objective is the mean per-sample loss plus a ridge term,

    (1/n) sum_i loss(g_theta(x_i), y_i) + (l2_weight / 2) ||theta||^2,

minimized with ADAM. Everything is deterministic given the run seed: the
parameter init, the per-epoch shuffles, and the summation order, so reports
for identical configs are bit-identical on the same platform.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .calibration import accuracy, hamming_decode
from .conjugate import SolverConfig, conjugate
from .data import MultilabelDataset, split
from .exceptions import ContractViolation, DivergenceError, EvaluationError, TrainingDivergence
from .losses import energy_loss, gfy_loss, perceptron_loss, xent_loss
from .models import Model
from .numerics import rng_from_seed, row, stack
from .regularizers import Regularizer

LOSS_KINDS = ("gfy", "perceptron", "energy", "xent")

# The defaults follow the protocol used by the experiments in this package:
# 5 ridge strengths and 10 learning rates, both log-spaced.
DEFAULT_L2_GRID = tuple(np.logspace(-4, 1, 5))
DEFAULT_LR_GRID = tuple(np.logspace(-5, -1, 10))
# hyperparam_search scores each grid cell on this share of the data
HOLDOUT_FRACTION = 0.25

# ADAM moment decays and denominator offset.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "gfy"
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    l2_weight: float = 0.0
    seed: int = 0
    solver: SolverConfig = field(default_factory=lambda: SolverConfig(tol=1e-6, max_iters=2000))

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ContractViolation(f"unknown loss {self.loss!r}; choose from {LOSS_KINDS}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractViolation("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ContractViolation("learning_rate must be positive")
        if self.l2_weight < 0:
            raise ContractViolation("l2_weight must be nonnegative")


@dataclass
class TrainReport:
    params: object
    train_loss: list[float]
    dev_accuracy: list[float]
    config: TrainConfig
    wall_time: float


def sample_loss(energy, reg: Regularizer, loss_kind: str, v, y, solver: SolverConfig):
    if loss_kind == "gfy":
        return gfy_loss(energy, reg, v, y, solver)
    if loss_kind == "perceptron":
        return perceptron_loss(energy, reg.domain, v, y, solver)
    if loss_kind == "energy":
        return energy_loss(energy, v, y)
    if loss_kind == "xent":
        return xent_loss(energy, reg, v, y, solver)
    raise ContractViolation(f"unknown loss {loss_kind!r}")


def objective_value(
    model: Model,
    params,
    reg: Regularizer,
    loss_kind: str,
    X: np.ndarray,
    Y: np.ndarray,
    l2_weight: float,
    solver: SolverConfig,
) -> float:
    """Exact training objective on the given rows (reference for gradient checks)."""
    energy = model.energy()
    V = model.forward(params, X)
    total = 0.0
    for i in range(X.shape[0]):
        total += sample_loss(energy, reg, loss_kind, row(V, i), Y[i], solver).value
    theta = model.params_to_vec(params)
    return total / X.shape[0] + 0.5 * l2_weight * float(theta @ theta)


def batch_gradient(
    model: Model,
    params,
    reg: Regularizer,
    loss_kind: str,
    X: np.ndarray,
    Y: np.ndarray,
    l2_weight: float,
    solver: SolverConfig,
    rows: np.ndarray | range | None = None,
) -> tuple[np.ndarray, float]:
    """Mean parameter gradient and mean loss over the rows of ``X``/``Y``.

    ``rows`` gives the dataset row number of each batch row (default
    ``range(B)``); a divergence message names the failing row by it.
    """
    rows = range(X.shape[0]) if rows is None else rows
    energy = model.energy()
    theta = model.params_to_vec(params)
    V = model.forward(params, X)
    total = 0.0
    grads_v = []
    for i in range(X.shape[0]):
        try:
            le = sample_loss(energy, reg, loss_kind, row(V, i), Y[i], solver)
        except (EvaluationError, DivergenceError) as exc:
            raise TrainingDivergence(f"diverged at sample {rows[i]}: {exc}") from exc
        if not math.isfinite(le.value):
            raise TrainingDivergence(f"non-finite loss at sample {rows[i]}")
        total += le.value
        grads_v.append(le.grad_v)
    grad = model.params_to_vec(model.vjp(params, X, stack(grads_v))) / X.shape[0]
    total /= X.shape[0]
    grad += l2_weight * theta
    if not np.all(np.isfinite(grad)):
        raise TrainingDivergence(f"non-finite gradient in the batch of samples {', '.join(map(str, rows))}")
    return grad, total + 0.5 * l2_weight * float(theta @ theta)


def predict_marginals(model: Model, params, reg: Regularizer, X: np.ndarray, solver: SolverConfig | None = None) -> np.ndarray:
    energy = model.energy()
    V = model.forward(params, X)
    out = np.empty((X.shape[0], model.k))
    for i in range(X.shape[0]):
        out[i] = conjugate(energy, reg, row(V, i), solver).argmax
    return out


def evaluate_accuracy(model: Model, params, reg: Regularizer, ds: MultilabelDataset, solver: SolverConfig | None = None) -> float:
    if ds.n == 0:
        raise ContractViolation("cannot score an empty dataset")
    return accuracy(hamming_decode(predict_marginals(model, params, reg, ds.X, solver)), ds.Y)


def train(
    model: Model,
    reg: Regularizer,
    train_ds: MultilabelDataset,
    cfg: TrainConfig,
    dev_ds: MultilabelDataset | None = None,
) -> TrainReport:
    """ADAM over shuffled minibatches; per-epoch mean loss and dev accuracy."""
    if train_ds.d != model.d or train_ds.k != model.k:
        raise ContractViolation("dataset dimensions do not match the model")
    if train_ds.n == 0:
        raise ContractViolation("training set is empty")
    start = time.perf_counter()
    rng = rng_from_seed(cfg.seed)
    params = model.init_params(cfg.seed)
    theta = model.params_to_vec(params)
    m = np.zeros_like(theta)
    s = np.zeros_like(theta)
    step = 0
    losses: list[float] = []
    dev_acc: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(train_ds.n)
        epoch_loss = 0.0
        for lo in range(0, train_ds.n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            grad, bloss = batch_gradient(
                model, params, reg, cfg.loss,
                train_ds.X[idx], train_ds.Y[idx],
                cfg.l2_weight, cfg.solver, rows=idx,
            )
            epoch_loss += bloss * idx.size
            step += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            s = ADAM_BETA2 * s + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1**step)
            s_hat = s / (1.0 - ADAM_BETA2**step)
            theta = theta - cfg.learning_rate * m_hat / (np.sqrt(s_hat) + ADAM_EPS)
            params = model.vec_to_params(theta)
        losses.append(epoch_loss / train_ds.n)
        if dev_ds is not None:
            dev_acc.append(evaluate_accuracy(model, params, reg, dev_ds, cfg.solver))
    return TrainReport(
        params=params,
        train_loss=losses,
        dev_accuracy=dev_acc,
        config=cfg,
        wall_time=time.perf_counter() - start,
    )


@dataclass
class SearchResult:
    best_l2: float
    best_lr: float
    table: list[dict]
    report: TrainReport


def hyperparam_search(
    model: Model,
    reg: Regularizer,
    ds: MultilabelDataset,
    base_cfg: TrainConfig,
    l2_grid=DEFAULT_L2_GRID,
    lr_grid=DEFAULT_LR_GRID,
    seeds=(0, 1, 2),
) -> SearchResult:
    """Grid search on a held-out quarter of the data, then refit on all of it.

    Cells are scored by dev accuracy averaged over the training seeds; ties
    prefer the smaller ridge weight, then the smaller learning rate. The
    holdout split is fixed by the base seed, so the search is deterministic.
    """
    fit_ds, dev_ds = split(ds, (1.0 - HOLDOUT_FRACTION, HOLDOUT_FRACTION), seed=base_cfg.seed)
    table = []
    best_key = None
    best_cell = None
    for l2 in l2_grid:
        for lr in lr_grid:
            accs = []
            for sd in seeds:
                cfg = replace(base_cfg, l2_weight=float(l2), learning_rate=float(lr), seed=sd)
                rep = train(model, reg, fit_ds, cfg, dev_ds=None)
                accs.append(evaluate_accuracy(model, rep.params, reg, dev_ds, cfg.solver))
            mean_acc = float(np.mean(accs))
            table.append({"l2_weight": float(l2), "learning_rate": float(lr), "dev_accuracy": mean_acc})
            key = (-mean_acc, float(l2), float(lr))
            if best_key is None or key < best_key:
                best_key = key
                best_cell = (float(l2), float(lr))
    final_cfg = replace(base_cfg, l2_weight=best_cell[0], learning_rate=best_cell[1])
    report = train(model, reg, ds, final_cfg)
    return SearchResult(best_l2=best_cell[0], best_lr=best_cell[1], table=table, report=report)
