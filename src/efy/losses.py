"""Generalized Fenchel-Young losses and derived constructions.

The central object is

    loss(v, y) = Omega^Phi(v) + Omega(y) - Phi(v, y),

a nonnegative gap that vanishes exactly when ``y`` solves the regularized
maximization at ``v``. Its input gradient never differentiates through the
argmax: by the envelope theorem it is ``grad_v Phi(v, p*) - grad_v Phi(v, y)``.

Also here: the unregularized (perceptron) and plain energy baselines, a
linearization upper bound, the reverse construction (biconjugate), and the
induced Bregman-style divergence between outputs.

Rows are the batch axis: with a batched input ``v`` and targets ``y``
(B, k), each training loss returns a ``(B,)`` value, the batched gradient
and one batched conjugate solve (see :mod:`~efy.conjugate` for its status,
the batch's least exact); a single row is the ``B = 1`` case. ``xent_loss``
takes its finite differences on the whole batch at once. ``biconjugate`` and
``generalized_bregman`` solve their whole ``v_grid`` in one call.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .conjugate import ConjugateResult, SolverConfig, conjugate
from .energies import BilinearEnergy, Energy
from .exceptions import ContractViolation, EvaluationError
from .numerics import FD_STEP, as_rows, as_vec, assert_finite, finite_diff_grad, rebuild, row, row_values, stack, walk
from .regularizers import Indicator, OutputSet, Regularizer

XENT_CLIP = 1e-6


@dataclass
class LossEval:
    """Loss value, input-shaped gradient, and the inner solve (if any); ``value`` is ``(B,)`` for a batch."""

    value: float | np.ndarray
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
    """Generalized Fenchel-Young loss with its envelope gradient, of one row or of each row of a batch."""
    y = as_rows(y)
    if not reg.domain.contains(y).all():
        raise ContractViolation("target lies outside the regularizer domain")
    res = conjugate(energy, reg, v, cfg)
    value = res.value + reg.value(y) - energy.value(v, y)
    grad = res.envelope_grad - energy.grad_v(v, y)
    assert_finite(value, "loss value")
    return LossEval(value=row_values(value), grad_v=grad, conjugate=res)


def perceptron_loss(energy: Energy, domain: OutputSet, v, y, cfg: SolverConfig | None = None) -> LossEval:
    """Unregularized special case: ``max_{p in C} Phi(v, p) - Phi(v, y)``."""
    return gfy_loss(energy, Indicator(domain), v, y, cfg)


def energy_loss(energy: Energy, v, y) -> LossEval:
    """Plain negated energy ``-Phi(v, y)`` (no contrastive term)."""
    y = as_rows(y)
    return LossEval(value=row_values(-energy.value(v, y)), grad_v=-1.0 * energy.grad_v(v, y), conjugate=None)


def input_grad_finite_diff(energy: Energy, v, fn: Callable):
    """Central-difference gradient of ``fn`` w.r.t. a structured input.

    ``fn`` maps an energy input to a scalar. This is the reference oracle for
    envelope gradients: it perturbs every input coordinate and re-solves
    whatever ``fn`` does internally (including inner argmaxes).
    """
    vec = energy.input_to_vec(v)
    g = finite_diff_grad(lambda w: fn(energy.vec_to_input(w)), vec)
    return energy.vec_to_input(g)


def xent_loss(
    energy: Energy,
    reg: Regularizer,
    v,
    y,
    cfg: SolverConfig | None = None,
) -> LossEval:
    """Binary cross-entropy on the regularized prediction ``p*(v)``.

    A baseline, not a Fenchel-Young loss: its gradient needs differentiation
    through the argmax, which we replace by central finite differences over
    the input, with the step ``FD_STEP * (1 + |v_i|)`` of
    :func:`~efy.numerics.finite_diff_grad`. Cost scales with the input
    dimension; intended for small problems only. Predictions are clipped to
    ``[XENT_CLIP, 1 - XENT_CLIP]`` so exactly sparse argmaxes keep the log
    finite. A batch is differentiated at once: coordinate ``i`` of every row
    moves together, so the gradient takes ``2 dim(v)`` batched conjugate
    calls, and each row's numbers are those of its own solve.
    """
    y = as_rows(y)
    single = y.ndim == 1
    V, Y = (stack([v]), y[None]) if single else (v, y)

    def value_of(vv) -> np.ndarray:
        p = np.clip(conjugate(energy, reg, vv, cfg).argmax, XENT_CLIP, 1.0 - XENT_CLIP)
        return -np.sum(Y * np.log(p) + (1.0 - Y) * np.log(1.0 - p), axis=-1)

    names, leaves = zip(*[(name, np.asarray(leaf, dtype=float)) for name, leaf in walk(V)])
    leaves, grads = list(leaves), []
    for n, leaf in enumerate(leaves):
        grad = np.empty(leaf.shape)  # C order whatever V's layout: the vjp's products round by layout
        for i in np.ndindex(leaf.shape[1:]):
            at = (slice(None), *i)
            h = FD_STEP * (1.0 + np.abs(leaf[at]))
            plus, minus = leaf.copy(), leaf.copy()
            plus[at] += h
            minus[at] -= h
            fp = value_of(rebuild(V, iter(leaves[:n] + [plus] + leaves[n + 1 :])))
            fm = value_of(rebuild(V, iter(leaves[:n] + [minus] + leaves[n + 1 :])))
            if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
                raise EvaluationError(f"objective non-finite near entry {i} of input {names[n] or 'v'}")
            grad[at] = (fp - fm) / (2.0 * h)
        grads.append(grad)
    value, grad_v = value_of(V), rebuild(V, iter(grads))
    if single:
        return LossEval(value=float(value[0]), grad_v=row(grad_v, 0), conjugate=None)
    return LossEval(value=value, grad_v=grad_v, conjugate=None)


def linearized_upper_bound(energy: Energy, reg: Regularizer, v, p) -> float:
    """Classical Fenchel-Young loss at the tangent scores ``grad_p Phi(v, p)``.

    For energies concave in ``p`` this upper-bounds the generalized loss at
    ``(v, p)``; for bilinear energies the two coincide.
    """
    g = energy.grad_p(v, p)
    return fy_loss(reg, g, p)


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
    V = stack(list(v_grid))
    if p_grid is None:
        if not isinstance(omega, Regularizer):
            raise ContractViolation("without p_grid, omega must be a Regularizer")
        conj = conjugate(energy, omega, V, cfg).value
    else:
        p_grid = list(p_grid)
        if not p_grid:
            raise ContractViolation("p_grid must hold at least one output")
        omega_val = omega.value if isinstance(omega, Regularizer) else omega
        conj = np.max([energy.value(V, q) - omega_val(q) for q in p_grid], axis=0)
    return float(np.max(energy.value(V, p) - conj))


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
        V = stack(candidates)
        v_ref = candidates[int(np.argmax(energy.value(V, p_ref) - conjugate(energy, reg, V, cfg).value))]
    else:
        raise ContractViolation("supply v_grid for couplings without a closed-form inner argmax")
    # paired grouping cancels exactly when p == p_ref
    return (reg.value(p) - reg.value(p_ref)) + (
        energy.value(v_ref, p_ref) - energy.value(v_ref, p)
    )

