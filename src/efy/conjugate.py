"""Generalized conjugates ``max_{p in C} Phi(v, p) - Omega(p)``.

The oracle dispatches on the energy's declared ``p_structure`` to the
cheapest faithful solver:

1. "linear" (``Phi = <linear_score(v), p>``) -> the regularizer's own
   closed-form map, when it has one;
2. "quadratic_concave" (``quadratic(v) -> (A, b)``) + squared L2 over R^k
   -> one SPD solve of ``(gamma I - sym(A)) p = b``;
3. "quadratic_concave" + quadratic negentropy over the box -> exact
   coordinate ascent (``A`` must be negative semidefinite);
4. anything else -> projected gradient ascent with Armijo backtracking.

Results carry the argmax, the envelope gradient ``grad_v Phi(v, p*)`` (no
differentiation through the argmax), and a status describing how the solve
terminated. Nonconcave energies report ``local_only``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .energies import Energy
from .exceptions import (
    ContractViolation,
    DivergenceError,
    EvaluationError,
    InfeasibleError,
    SingularMatrixError,
    UnsupportedOperation,
)
from .numerics import as_mat, as_vec, assert_finite, is_negative_semidefinite, rng_from_seed, solve_spd
from .regularizers import GiniBinary, Regularizer, SquaredL2

MAX_LINE_SEARCH_SHRINKS = 50
OBJECTIVE_CAP = 1e14
# Armijo backtracking in projected ascent: the factor a rejected trial step is
# shrunk by, and the constant c of the sufficient-increase test.
LINE_SEARCH_SHRINK = 0.5
SUFFICIENT_INCREASE = 1e-4


@dataclass(frozen=True)
class SolverConfig:
    """Iterative-solver knobs shared by PGA and coordinate ascent."""

    max_iters: int = 10000
    tol: float = 1e-8
    init_step: float = 1.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ContractViolation("max_iters must be >= 1")
        if self.tol <= 0:
            raise ContractViolation("tol must be positive")
        if self.init_step <= 0:
            raise ContractViolation("init_step must be positive")


@dataclass
class ConjugateResult:
    value: float
    argmax: np.ndarray
    envelope_grad: object  # shaped like the energy input
    status: str  # closed_form | converged | max_iters | local_only | stalled
    iters: int = 0
    gap: float = 0.0


def projected_gradient_ascent(
    value_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    domain,
    cfg: SolverConfig,
    p0: np.ndarray | None = None,
    trace: list | None = None,
) -> tuple[np.ndarray, str, int, float]:
    """Maximize ``value_fn`` over ``domain`` by projected ascent.

    Armijo backtracking on the projection arc: a trial step ``t`` is accepted
    when ``F(p+) >= F(p) + (c/t) ||p+ - p||^2``. The optimality gap is the
    unit-step projected-gradient norm ``||p - proj(p + grad)||``. Objective
    values are monotone nondecreasing across accepted steps.
    """
    p = domain.project(p0) if p0 is not None else domain.center()
    fp = value_fn(p)
    if not math.isfinite(fp):
        raise DivergenceError("objective non-finite at the start point")
    step = cfg.init_step
    gap = math.inf
    for it in range(1, cfg.max_iters + 1):
        g = grad_fn(p)
        gap = float(np.linalg.norm(p - domain.project(p + g)))
        if trace is not None:
            trace.append((it, fp, gap))
        if gap <= cfg.tol:
            return p, "converged", it, gap
        t = min(cfg.init_step, 2.0 * step)
        for _ in range(MAX_LINE_SEARCH_SHRINKS + 1):
            cand = domain.project(p + t * g)
            fc = value_fn(cand)
            move = cand - p
            # a step shrunk to zero cannot move; the search then ends stalled
            if math.isfinite(fc) and t > 0.0 and fc >= fp + SUFFICIENT_INCREASE / t * float(move @ move):
                break
            t *= LINE_SEARCH_SHRINK
        else:
            return p, "stalled", it, gap
        p, fp, step = cand, fc, t
        if fp > OBJECTIVE_CAP:
            raise DivergenceError("objective exceeded cap; maximization appears unbounded")
    return p, "max_iters", cfg.max_iters, gap


def coordinate_ascent_box_quadratic(
    u, U, gamma: float, cfg: SolverConfig | None = None, trace: list | None = None
) -> tuple[np.ndarray, str, int, float]:
    """Exact cyclic coordinate ascent for
    ``max_{p in [0,1]^k} <u, p> + 0.5 <p, U p> - gamma * sum_j (p_j^2 - p_j)``.

    Each coordinate subproblem is a concave 1-D quadratic with the clipped
    closed-form update ``p_j = clip((u_j + s_j + gamma) / (2 gamma - U_jj), 0, 1)``
    where ``s_j`` is the off-diagonal coupling at the current iterate. Requires
    NSD U (symmetric part) so every denominator stays positive. Terminates when
    the largest coordinate move in a sweep is at most ``cfg.tol``.
    """
    cfg = cfg or SolverConfig()
    u = as_vec(u, "unary scores")
    U = as_mat(U, "coupling matrix")
    if gamma <= 0:
        raise ContractViolation("coordinate ascent needs gamma > 0")
    if U.shape != (u.size, u.size):
        raise ContractViolation("coupling matrix shape must match the unary scores")
    Us = 0.5 * (U + U.T)
    try:
        nsd = is_negative_semidefinite(Us)
    except np.linalg.LinAlgError as exc:  # a non-finite coupling
        raise EvaluationError(f"coupling eigenvalues did not converge: {exc}") from exc
    if not nsd:
        raise ContractViolation("coordinate ascent requires a negative semidefinite coupling")
    k = u.size
    p = np.full(k, 0.5)
    moved = math.inf
    for sweep in range(1, cfg.max_iters + 1):
        moved = 0.0
        for j in range(k):
            s = float(Us[j] @ p) - Us[j, j] * p[j]
            new = min(1.0, max(0.0, (u[j] + s + gamma) / (2.0 * gamma - Us[j, j])))
            moved = max(moved, abs(new - p[j]))
            p[j] = new
        if trace is not None:
            obj = float(u @ p) + 0.5 * float(p @ (Us @ p)) - gamma * float(np.sum(p * p - p))
            trace.append((sweep, obj, moved))
        if moved <= cfg.tol:
            return p, "converged", sweep, moved
    return p, "max_iters", cfg.max_iters, moved


def _finish(energy: Energy, v, p: np.ndarray, value: float, status: str, iters: int, gap: float) -> ConjugateResult:
    assert_finite(p, "conjugate argmax")
    if not math.isfinite(value):
        raise EvaluationError(f"conjugate value is {value}")
    return ConjugateResult(
        value=float(value),
        argmax=p,
        envelope_grad=energy.grad_v(v, p),
        status=status,
        iters=iters,
        gap=gap,
    )


def _pga_objective(energy: Energy, reg: Regularizer, v):
    def value_fn(p):
        return energy.value(v, p) - reg.value(p)

    def grad_fn(p):
        return energy.grad_p(v, p) - reg.grad(p)

    return value_fn, grad_fn


def conjugate(
    energy: Energy,
    reg: Regularizer,
    v,
    cfg: SolverConfig | None = None,
    trace: list | None = None,
    p0: np.ndarray | None = None,
) -> ConjugateResult:
    """Compute ``Omega^Phi(v)`` with the argmax and envelope gradient.

    ``p0`` warm-starts the projected-ascent path only; closed forms and
    coordinate ascent ignore it (their solutions do not depend on the start).
    """
    cfg = cfg or SolverConfig()
    if reg.domain.dim != energy.k:
        raise ContractViolation("regularizer dimension must match the energy output")
    if energy.p_structure == "linear":
        score = energy.linear_score(v)
        try:
            p = reg.argmax_map(score)
            value = reg.conjugate_value(score)
            if trace is not None:
                trace.append((0, value, 0.0))
            return _finish(energy, v, p, value, "closed_form", 0, 0.0)
        except UnsupportedOperation:
            pass  # e.g. a restricted or simplex-indicator regularizer
    elif energy.p_structure == "quadratic_concave":
        A, b = energy.quadratic(v)
        if isinstance(reg, SquaredL2) and reg.domain.kind == "reals":
            A = as_mat(A)
            M = reg.gamma * np.eye(energy.k) - 0.5 * (A + A.T)
            try:
                p = solve_spd(M, b)
            except SingularMatrixError as exc:
                raise InfeasibleError(
                    f"gamma * I - A must be positive definite for this pair "
                    f"(gamma = {reg.gamma}): {exc}"
                ) from exc
            value = 0.5 * float(b @ p)
            if trace is not None:
                trace.append((0, value, 0.0))
            return _finish(energy, v, p, value, "closed_form", 0, 0.0)
        if isinstance(reg, GiniBinary):
            p, status, iters, gap = coordinate_ascent_box_quadratic(b, A, reg.gamma, cfg, trace)
            value = energy.value(v, p) - reg.value(p)
            return _finish(energy, v, p, value, status, iters, gap)

    value_fn, grad_fn = _pga_objective(energy, reg, v)
    p, status, iters, gap = projected_gradient_ascent(value_fn, grad_fn, reg.domain, cfg, p0=p0, trace=trace)
    if status == "converged" and energy.p_structure == "nonconcave":
        status = "local_only"
    return _finish(energy, v, p, value_fn(p), status, iters, gap)


def conjugate_with_restarts(
    energy: Energy,
    reg: Regularizer,
    v,
    cfg: SolverConfig | None = None,
    seed: int = 0,
    n_restarts: int = 2,
) -> ConjugateResult:
    """Diagnostic multistart for nonconcave energies.

    Runs the deterministic center start plus ``n_restarts`` seeded random
    starts and keeps the best objective. The result is therefore never worse
    than the plain deterministic solve.
    """
    cfg = cfg or SolverConfig()
    value_fn, grad_fn = _pga_objective(energy, reg, v)
    best = conjugate(energy, reg, v, cfg)
    rng = rng_from_seed(seed)
    for _ in range(n_restarts):
        p0 = reg.domain.project(rng.uniform(-1.0, 2.0, size=reg.domain.dim))
        p, status, iters, gap = projected_gradient_ascent(value_fn, grad_fn, reg.domain, cfg, p0=p0)
        val = value_fn(p)
        if val > best.value:
            status = "local_only" if energy.p_structure == "nonconcave" else status
            best = _finish(energy, v, p, val, status, iters, gap)
    return best


def c_transform(lam: Callable, cost: Callable, v, candidates: Iterable) -> float:
    """``min_p cost(v, p) - lam(p)`` over an explicit candidate set.

    The cost analogue of the conjugate: with ``cost = -Phi`` and
    ``lam = -Omega`` this equals ``-Omega^Phi(v)``.
    """
    best = math.inf
    seen = False
    for p in candidates:
        best = min(best, float(cost(v, p)) - float(lam(p)))
        seen = True
    if not seen:
        raise ContractViolation("candidate set must be non-empty")
    if not math.isfinite(best):
        raise DivergenceError("transform is not finite over the candidate set")
    return best
