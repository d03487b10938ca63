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

Rows are the batch axis: a batched energy input (a leading ``B`` axis on
every leaf) is solved in one call. Closed forms and the SPD solve act on the
whole batch; coordinate ascent checks the batch in one pass and sweeps all
its rows together in numpy, each row bit for bit as it would be swept alone
(a single row is swept on Python floats, where numpy's per-call cost would
dominate); projected ascent solves the rows one by one. The
result holds one value and argmax per row but three scalars for the batch:
the status of its least exact row (``max_iters`` > ``stalled`` >
``local_only`` > ``converged`` > ``closed_form``), the largest iteration
count and the largest gap.
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
from .numerics import as_rows, assert_finite, is_negative_semidefinite, rng_from_seed, row, row_values, solve_spd
from .regularizers import GiniBinary, Regularizer, SquaredL2

MAX_LINE_SEARCH_SHRINKS = 50
OBJECTIVE_CAP = 1e14
# Armijo backtracking in projected ascent: the factor a rejected trial step is
# shrunk by, and the constant c of the sufficient-increase test.
LINE_SEARCH_SHRINK = 0.5
SUFFICIENT_INCREASE = 1e-4
# Solve statuses from most to least exact; a batch reports its last one present.
STATUS_ORDER = ("closed_form", "converged", "local_only", "stalled", "max_iters")


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
    """One solve, or a batch of them: ``value`` is then ``(B,)`` and ``argmax`` ``(B, k)``."""

    value: float | np.ndarray
    argmax: np.ndarray
    envelope_grad: object  # shaped like the energy input
    status: str  # closed_form | converged | local_only | stalled | max_iters; a batch's least exact
    iters: int = 0  # a batch's largest
    gap: float = 0.0  # a batch's largest


def batch_status(statuses: Iterable[str]) -> str:
    """The least exact of the rows' statuses, in the order of ``STATUS_ORDER``."""
    return max(statuses, key=STATUS_ORDER.index)


def _per_batch(solves: list, k: int) -> tuple[np.ndarray, str, int, float]:
    # (p, status, iters, gap) of each row -> the argmax matrix and the batch's scalars;
    # an empty batch has converged with no iterations
    if not solves:
        return np.empty((0, k)), "converged", 0, 0.0
    P, statuses, iters, gaps = zip(*solves)
    return np.array(P), batch_status(statuses), max(iters), max(gaps)


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
    closed-form update ``p_j = clip((u_j + gamma + s_j) / (2 gamma - U_jj), 0, 1)``
    where ``s_j`` is the off-diagonal coupling at the current iterate. Requires
    NSD U (symmetric part) so every denominator stays positive. Terminates when
    the largest coordinate move in a sweep is at most ``cfg.tol``.

    The couplings ``s`` are kept up to date one column at a time: when
    coordinate ``j`` moves by ``step``, ``s += step * column j`` of sym(U) with
    its diagonal zeroed. Every operation is element-wise, so a row's
    arithmetic does not depend on the rows beside it.

    A batch ``u`` (B, k), ``U`` (B, k, k) is checked once (one symmetrization,
    one batched NSD test) and then swept with all rows together, in numpy over
    the row axis; a row leaves the working arrays at the sweep it converges,
    so a slow or capped row costs only itself. Each row of a batch is
    bit-identical to its own solve. It returns the ``(B, k)`` argmax with the
    batch's status, largest sweep count and largest final move; an empty
    batch has converged with no sweeps. A single row, alone or as a batch of
    one, is swept on Python floats with the same operations, because numpy's
    per-call cost would dominate the few flops of each update. ``trace``
    records one row's sweeps and is refused for a batch of more than one row.
    """
    cfg = cfg or SolverConfig()
    u = as_rows(u, "unary scores")
    U = np.asarray(U, dtype=float)
    if gamma <= 0:
        raise ContractViolation("coordinate ascent needs gamma > 0")
    if U.shape != u.shape + u.shape[-1:]:
        raise ContractViolation("coupling matrix shape must match the unary scores")
    if trace is not None and u.ndim == 2 and len(u) > 1:
        raise ContractViolation(f"a sweep trace follows one row; this batch has {len(u)}")
    Us = 0.5 * (U + U.swapaxes(-1, -2))
    try:
        nsd = is_negative_semidefinite(Us)
    except np.linalg.LinAlgError as exc:  # a non-finite coupling
        raise EvaluationError(f"coupling eigenvalues did not converge: {exc}") from exc
    if not nsd.all():
        raise ContractViolation("coordinate ascent requires a negative semidefinite coupling")
    if u.ndim == 1:
        return _sweep_row(u, Us, gamma, cfg, trace)
    if len(u) != 1:
        return _sweep_rows(u, Us, gamma, cfg)
    p, status, sweeps, moved = _sweep_row(u[0], Us[0], gamma, cfg, trace)
    return p[None], status, sweeps, moved


def _box_quadratic_parts(u: np.ndarray, Us: np.ndarray, gamma: float):
    # u + gamma, the denominators and the columns of Us with the diagonal
    # zeroed (Us is exactly symmetric, so its row j is its column j)
    diag = Us.diagonal(axis1=-2, axis2=-1)
    off = Us * (1.0 - np.eye(u.shape[-1]))
    return u + gamma, 2.0 * gamma - diag, off


def _sweep_row(u: np.ndarray, Us: np.ndarray, gamma: float, cfg: SolverConfig, trace: list | None):
    # one row from the center of the box, on Python floats, which round as
    # numpy's element-wise operations do
    ug, denom, off = (x.tolist() for x in _box_quadratic_parts(u, Us, gamma))
    k = u.size
    p, s = [0.5] * k, [0.0] * k
    for col in off:
        s = [si + ci * 0.5 for si, ci in zip(s, col)]
    moved = math.inf
    for sweep in range(1, cfg.max_iters + 1):
        moved = 0.0
        for j in range(k):
            new = min(1.0, max(0.0, (ug[j] + s[j]) / denom[j]))
            step = new - p[j]
            if step:  # a zero step could change s only in the sign of a zero
                moved = max(moved, abs(step))
                s = [si + ci * step for si, ci in zip(s, off[j])]
                p[j] = new
        if trace is not None:
            q = np.array(p)
            obj = float(u @ q) + 0.5 * float(q @ (Us @ q)) - gamma * float(np.sum(q * q - q))
            trace.append((sweep, obj, moved))
        if moved <= cfg.tol:
            return np.array(p), "converged", sweep, moved
    return np.array(p), "max_iters", cfg.max_iters, moved


def _sweep_rows(u: np.ndarray, Us: np.ndarray, gamma: float, cfg: SolverConfig):
    # every row from the center of the box, in numpy over the row axis, which
    # is kept last so that each coordinate's slice is contiguous; fmax and
    # fmin clip NaN as the Python floats' max and min do
    n, k = u.shape
    if n == 0:
        return np.empty((0, k)), "converged", 0, 0.0
    ug, denom, off = _box_quadratic_parts(u, Us, gamma)
    ug, denom, off = ug.T.copy(), denom.T.copy(), off.transpose(1, 2, 0).copy()
    rows, P, S, steps = np.arange(n), np.full((k, n), 0.5), np.zeros((k, n)), np.empty((k, n))
    P_out, moved_out, sweeps = np.empty((k, n)), np.empty(n), np.full(n, cfg.max_iters)
    for col in off:
        S += col * 0.5
    for sweep in range(1, cfg.max_iters + 1):
        for j in range(k):
            new = np.fmin(1.0, np.fmax(0.0, (ug[j] + S[j]) / denom[j]))
            np.subtract(new, P[j], out=steps[j])
            S += off[j] * steps[j]
            P[j] = new
        moved = np.abs(steps).max(axis=0)
        done = moved <= cfg.tol
        if done.any():
            P_out[:, rows[done]], moved_out[rows[done]], sweeps[rows[done]] = P[:, done], moved[done], sweep
            left = ~done
            rows, moved = rows[left], moved[left]
            if not rows.size:
                break
            ug, denom, off, P, S, steps = (x[..., left] for x in (ug, denom, off, P, S, steps))
    else:  # the rows still here are capped, each with its own final move
        P_out[:, rows], moved_out[rows] = P, moved
    status = "max_iters" if rows.size else "converged"
    return P_out.T.copy(), status, int(sweeps.max()), float(moved_out.max())


def _finish(energy: Energy, v, p: np.ndarray, value, status: str, iters: int, gap: float) -> ConjugateResult:
    assert_finite(p, "conjugate argmax")
    values = np.ravel(value)
    if not np.isfinite(values).all():
        raise EvaluationError(f"conjugate value is {values[~np.isfinite(values)][0]}")
    return ConjugateResult(
        value=row_values(value),
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
    """Compute ``Omega^Phi(v)`` with the argmax and envelope gradient, for one input or a batch.

    ``p0`` (one start per row for a batch) warm-starts the projected-ascent
    path only; closed forms and coordinate ascent ignore it (their solutions
    do not depend on the start).
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
            A = np.asarray(A, dtype=float)
            M = reg.gamma * np.eye(energy.k) - 0.5 * (A + A.swapaxes(-1, -2))
            try:
                p = solve_spd(M, b)
            except SingularMatrixError as exc:
                raise InfeasibleError(
                    f"gamma * I - A must be positive definite for this pair "
                    f"(gamma = {reg.gamma}): {exc}"
                ) from exc
            value = 0.5 * np.vecdot(b, p)
            if trace is not None:
                trace.append((0, value, 0.0))
            return _finish(energy, v, p, value, "closed_form", 0, 0.0)
        if isinstance(reg, GiniBinary):
            p, status, iters, gap = coordinate_ascent_box_quadratic(b, A, reg.gamma, cfg, trace)
            value = energy.value(v, p) - reg.value(p)
            return _finish(energy, v, p, value, status, iters, gap)

    n = energy.rows(v)
    if n is None:
        p, status, iters, gap = _pga_row(energy, reg, v, cfg, p0, trace)
    else:
        solves = [_pga_row(energy, reg, row(v, i), cfg, None if p0 is None else p0[i], trace) for i in range(n)]
        p, status, iters, gap = _per_batch(solves, energy.k)
    return _finish(energy, v, p, energy.value(v, p) - reg.value(p), status, iters, gap)


def _pga_row(energy: Energy, reg: Regularizer, v, cfg: SolverConfig, p0, trace: list | None):
    value_fn, grad_fn = _pga_objective(energy, reg, v)
    p, status, iters, gap = projected_gradient_ascent(value_fn, grad_fn, reg.domain, cfg, p0=p0, trace=trace)
    if status == "converged" and energy.p_structure == "nonconcave":
        status = "local_only"
    return p, status, iters, gap


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
