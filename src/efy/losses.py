"""Generalized Fenchel-Young losses and derived constructions.

The central object is

    loss(v, y) = Omega^Phi(v) + Omega(y) - Phi(v, y),

a nonnegative gap that vanishes exactly when ``y`` solves the regularized
maximization at ``v``. Its input gradient never differentiates through the
argmax: by the envelope theorem it is ``grad_v Phi(v, p*) - grad_v Phi(v, y)``.

Also here: the unregularized (perceptron) and plain energy baselines, a
linearization upper bound, the reverse construction (biconjugate), and the
induced Bregman-style divergence between outputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .conjugate import ConjugateResult, SolverConfig, conjugate
from .energies import BilinearEnergy, Energy
from .exceptions import ContractViolation
from .numerics import as_vec, assert_finite, finite_diff_grad
from .regularizers import Indicator, OutputSet, Regularizer


@dataclass
class LossEval:
    """Loss value, input-shaped gradient, and the inner solve (if any)."""

    value: float
    grad_v: object
    conjugate: ConjugateResult | None = None


def fy_loss(reg: Regularizer, u, y) -> float:
    """Classical Fenchel-Young gap ``Omega^*(u) + Omega(y) - <u, y>``."""
    u = as_vec(u)
    y = as_vec(y)
    if not reg.domain.contains(y):
        raise ContractViolation("target lies outside the regularizer domain")
    return reg.conjugate_value(u) + reg.value(y) - float(u @ y)


def gfy_loss(energy: Energy, reg: Regularizer, v, y, cfg: SolverConfig | None = None) -> LossEval:
    """Generalized Fenchel-Young loss with its envelope gradient."""
    y = as_vec(y)
    if not reg.domain.contains(y):
        raise ContractViolation("target lies outside the regularizer domain")
    res = conjugate(energy, reg, v, cfg)
    value = res.value + reg.value(y) - energy.value(v, y)
    grad = res.envelope_grad - energy.grad_v(v, y)
    assert_finite(value, "loss value")
    return LossEval(value=float(value), grad_v=grad, conjugate=res)


def perceptron_loss(energy: Energy, domain: OutputSet, v, y, cfg: SolverConfig | None = None) -> LossEval:
    """Unregularized special case: ``max_{p in C} Phi(v, p) - Phi(v, y)``."""
    return gfy_loss(energy, Indicator(domain), v, y, cfg)


def energy_loss(energy: Energy, v, y) -> LossEval:
    """Plain negated energy ``-Phi(v, y)`` (no contrastive term)."""
    y = as_vec(y)
    return LossEval(value=-energy.value(v, y), grad_v=-1.0 * energy.grad_v(v, y), conjugate=None)


def input_grad_finite_diff(energy: Energy, v, fn: Callable, step: float | None = None):
    """Central-difference gradient of ``fn`` w.r.t. a structured input.

    ``fn`` maps an energy input to a scalar. This is the reference oracle for
    envelope gradients: it perturbs every input coordinate and re-solves
    whatever ``fn`` does internally (including inner argmaxes).
    """
    vec = energy.input_to_vec(v)
    g = finite_diff_grad(lambda w: fn(energy.vec_to_input(w)), vec, step)
    return energy.vec_to_input(g)


def xent_loss(
    energy: Energy,
    reg: Regularizer,
    v,
    y,
    cfg: SolverConfig | None = None,
    clip: float = 1e-6,
) -> LossEval:
    """Binary cross-entropy on the regularized prediction ``p*(v)``.

    A baseline, not a Fenchel-Young loss: its gradient needs differentiation
    through the argmax, which we replace by central finite differences over
    the flattened input. Cost scales with the input dimension; intended for
    small problems only. Predictions are clipped to ``[clip, 1 - clip]`` so
    exactly sparse argmaxes keep the log finite.
    """
    y = as_vec(y)

    def value_of(vv) -> float:
        p = conjugate(energy, reg, vv, cfg).argmax
        p = np.clip(p, clip, 1.0 - clip)
        return float(-np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))

    grad = input_grad_finite_diff(energy, v, value_of)
    return LossEval(value=value_of(v), grad_v=grad, conjugate=None)


def linearized_upper_bound(energy: Energy, reg: Regularizer, v, p) -> float:
    """Classical Fenchel-Young loss at the tangent scores ``grad_p Phi(v, p)``.

    For energies concave in ``p`` this upper-bounds the generalized loss at
    ``(v, p)``; for bilinear energies the two coincide.
    """
    g = energy.grad_p(v, p)
    return fy_loss(reg, g, p)


def _omega_fn(omega) -> Callable:
    return omega.value if isinstance(omega, Regularizer) else omega


def biconjugate(
    energy: Energy,
    omega,
    p,
    v_grid: Sequence,
    p_grid: Sequence | None = None,
    cfg: SolverConfig | None = None,
) -> float:
    """Reverse construction ``max_v Phi(v, p) - Omega^Phi(v)`` over a finite v set.

    Always a lower bound on ``Omega(p)``; equality characterizes functions
    expressible as an envelope of couplings against the chosen ``v`` set.
    By default the inner conjugate uses the oracle (``omega`` must then be a
    :class:`Regularizer`); passing ``p_grid`` switches both layers to explicit
    enumeration, which accepts any callable ``omega``.
    """
    v_grid = list(v_grid)
    if not v_grid:
        raise ContractViolation("v_grid must be non-empty")
    if p_grid is None:
        if not isinstance(omega, Regularizer):
            raise ContractViolation("without p_grid, omega must be a Regularizer")
        conj_value = lambda v: conjugate(energy, omega, v, cfg).value
    else:
        p_grid = list(p_grid)
        omega_val = _omega_fn(omega)
        conj_value = lambda v: max(energy.value(v, q) - omega_val(q) for q in p_grid)
    return max(energy.value(v, p) - conj_value(v) for v in v_grid)


def generalized_bregman(
    energy: Energy,
    reg: Regularizer,
    p,
    p_ref,
    v_grid: Sequence | None = None,
    cfg: SolverConfig | None = None,
) -> float:
    """Divergence between outputs induced by the coupling:

    ``D(p, p') = Omega(p) - Phi(v', p) - Omega(p') + Phi(v', p')`` where ``v'``
    maximizes ``Phi(v, p') - Omega^Phi(v)``.

    For square invertible bilinear couplings the inner argmax is closed form
    (``U^T v' = grad Omega(p')``), recovering the classical Bregman divergence;
    otherwise a finite ``v_grid`` must be supplied.
    """
    p = as_vec(p)
    p_ref = as_vec(p_ref)
    if isinstance(energy, BilinearEnergy) and energy.U.shape[0] == energy.U.shape[1]:
        v_ref = np.linalg.solve(energy.U.T, reg.grad(p_ref))
    elif v_grid is not None:
        candidates = list(v_grid)
        if not candidates:
            raise ContractViolation("v_grid must be non-empty")
        scores = [energy.value(v, p_ref) - conjugate(energy, reg, v, cfg).value for v in candidates]
        v_ref = candidates[int(np.argmax(scores))]
    else:
        raise ContractViolation("supply v_grid for couplings without a closed-form inner argmax")
    # paired grouping cancels exactly when p == p_ref
    return (reg.value(p) - reg.value(p_ref)) + (
        energy.value(v_ref, p_ref) - energy.value(v_ref, p)
    )

