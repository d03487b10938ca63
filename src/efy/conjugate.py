"""Generalized conjugates ``max_{p in C} Phi(v, p) - Omega(p)``.

The oracle dispatches on the energy's declared ``p_structure`` to the
cheapest faithful solver:

1. "linear" (``Phi = <linear_score(v), p>``) -> the regularizer's own
   closed-form map, when it has one;
2. "quadratic_concave" (``quadratic(v) -> (A, b)``) + squared L2 over R^k
   -> one SPD solve of ``(gamma I - sym(A)) p = b``;
3. "quadratic_concave" + quadratic negentropy over the box -> exact
   coordinate ascent, finished by a checked Newton step on the active set
   its sweeps identify (``A`` must be negative semidefinite, which one
   Cholesky factorization certifies for the whole batch);
4. anything else -> projected gradient ascent with Armijo backtracking,
   which evaluates the regularizer inside its domain: every point it
   evaluates comes out of the domain's projection, so it skips
   ``Regularizer.value``/``grad``'s membership test and snap.

Results carry the argmax, the envelope gradient ``grad_v Phi(v, p*)`` (no
differentiation through the argmax), and a status describing how the solve
terminated. Nonconcave energies report ``local_only``.

Rows are the batch axis: a batched energy input (a leading ``B`` axis on
every leaf) is solved in one call. Closed forms and the SPD solve act on the
whole batch; coordinate ascent checks the batch in one pass and sweeps all
its rows together in numpy, each row bit for bit as it would be swept alone
(a single row is swept on Python floats, where numpy's per-call cost would
dominate, and each row's Newton step is its own LAPACK solve); projected
ascent steps all rows together, each with its own step, line search and
exit. The result holds one value and argmax per row but three scalars for
the batch: the status of its least exact row (``max_iters`` > ``stalled`` >
``local_only`` > ``converged`` > ``closed_form``), the largest iteration
count and the largest gap.
"""
from __future__ import annotations

import contextlib
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
from .numerics import _negative_semidefinite, as_rows, assert_finite, rng_from_seed, row_values, solve_spd
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


def projected_gradient_ascent(
    value_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    domain,
    cfg: SolverConfig,
    p0: np.ndarray | None = None,
    trace: list | None = None,
) -> tuple[np.ndarray, str, int, float]:
    """Maximize ``value_fn`` over ``domain`` by projected ascent, at one point or each row of a batch.

    Armijo backtracking on the projection arc: a trial step ``t`` is accepted
    when ``F(p+) >= F(p) + (c/t) ||p+ - p||^2``. The optimality gap is the
    unit-step projected-gradient norm ``||p - proj(p + grad)||``. Objective
    values are monotone nondecreasing across accepted steps.

    A float value at the domain's center means one point ``(k,)``; a ``(B,)``
    value means a batch, whose ``(B, k)`` rows the callables take whole and
    ``p0`` must match. Each row keeps its own step, line search and exit, bit
    for bit as alone; a batch reports its least exact status, largest
    iteration count and largest gap. ``trace`` follows a single row.

    The callables are evaluated only at points returned by
    ``domain.project``: the center, the projected start and each trial
    point. A trial point whose value is not finite is never accepted, and a
    non-finite value at the start raises :class:`DivergenceError`.
    """
    p = domain.center()
    F = np.array(value_fn(p), dtype=float)
    if p0 is not None:
        if np.shape(p0) != F.shape + p.shape:
            raise ContractViolation(f"start point has shape {np.shape(p0)}; this input needs {F.shape + p.shape}")
        p = domain.project(p0)
        F = np.array(value_fn(p), dtype=float)
    if trace is not None and F.size > 1:
        raise ContractViolation(f"an ascent trace follows one row; this batch has {F.size}")
    if not np.isfinite(F).all():
        raise DivergenceError("objective non-finite at the start point")
    P = np.broadcast_to(p, F.shape + p.shape[-1:]).copy()
    if not F.size:
        return P, "converged", 0, 0.0
    t, live, stalled = np.full(F.shape, cfg.init_step), np.ones(F.shape, dtype=bool), False
    for it in range(1, cfg.max_iters + 1):
        G = grad_fn(P)
        D = P - domain.project(P + G)
        gap = np.sqrt(np.vecdot(D, D))  # a finished row's point, and so its gap, stays put
        if trace is not None:
            trace.append((it, F.item(), gap.item()))
        live &= ~(gap <= cfg.tol)
        if not live.any():
            break
        # each live row tries twice its last accepted step and takes the first that passes
        t, searching = np.minimum(cfg.init_step, 2.0 * t), live.copy()
        for _ in range(MAX_LINE_SEARCH_SHRINKS + 1):
            T = domain.project(P + t[..., None] * G)
            FT = value_fn(T)
            M = T - P
            ok = searching & np.isfinite(FT) & (FT >= F + SUFFICIENT_INCREASE / t * np.vecdot(M, M))
            np.copyto(P, T, where=ok[..., None])
            np.copyto(F, FT, where=ok)
            searching &= ~ok
            if not searching.any():
                break
            # a step that would shrink to zero is retried, fails again and ends stalled
            half = t * LINE_SEARCH_SHRINK
            t = np.where(searching & (half > 0.0), half, t)
        else:
            live &= ~searching
            stalled = True
            if not live.any():
                break
        if (live & (F > OBJECTIVE_CAP)).any():
            raise DivergenceError("objective exceeded cap; maximization appears unbounded")
    status = "max_iters" if live.any() else "stalled" if stalled else "converged"
    return P, status, it, float(gap.max())


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

    Between sweeps, a row whose bound sets ``lo = {p_j = 0}`` and
    ``hi = {p_j = 1}`` differ from those of its last try takes a Newton step
    on the free set ``F``. With the bound coordinates held, the maximizer is
    ``(2 gamma I - Us)_FF^-1 (u + gamma + Us_{F,hi} 1)_F``; it is computed
    from the iterate ``p`` as ``p_F + (2 gamma I - Us)_FF^-1 g_F``, with ``g``
    the gradient at ``p``, by one ``np.linalg.solve`` (one LAPACK call per
    row). The row takes the step only if its free coordinates land in the box
    and each bound coordinate's own update there keeps it at its bound,
    which are the KKT conditions: an accepted step lands on the unique
    maximizer, and a rejected one costs only time. The sweeps still start
    from the center and still decide termination, status, sweep count, final
    move and ``trace``, so every result is a coordinate-ascent fixed point;
    the step saves the sweeps that would crawl towards it.

    A batch ``u`` (B, k), ``U`` (B, k, k) is checked once: one
    symmetrization, then one batched NSD test, which is
    ``is_negative_semidefinite`` (a Cholesky certificate, with eigenvalues
    only if it fails) without the symmetry test that the symmetrized coupling
    cannot fail. It is then swept with all rows together, in numpy over the
    row axis; a row leaves the working arrays at the sweep it converges,
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
    Us = 0.5 * (U + U.swapaxes(-1, -2))  # exactly symmetric, so not tested again
    try:
        nsd = _negative_semidefinite(Us)
    except np.linalg.LinAlgError as exc:  # a NaN in the coupling
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
    # u + gamma, the denominators, the columns of Us with the diagonal zeroed
    # (Us is exactly symmetric, so its row j is its column j) and the negated
    # Hessian 2 gamma I - Us, whose diagonal is the denominators
    eye = np.eye(u.shape[-1])
    diag = Us.diagonal(axis1=-2, axis2=-1)
    return u + gamma, 2.0 * gamma - diag, Us * (1.0 - eye), 2.0 * gamma * eye - Us


def _sweep_row(u: np.ndarray, Us: np.ndarray, gamma: float, cfg: SolverConfig, trace: list | None):
    # one row from the center of the box, on Python floats, which round as
    # numpy's element-wise operations do
    ug, denom, off, M = _box_quadratic_parts(u, Us, gamma)
    ug, denom, off = ug.tolist(), denom.tolist(), off.tolist()
    k = u.size
    p, s, tried = [0.5] * k, [0.0] * k, None
    for col in off:
        s = [si + ci * 0.5 for si, ci in zip(s, col)]
    moved = math.inf
    for sweep in range(1, cfg.max_iters + 1):
        moved = 0.0
        for j, (ugj, dj, col) in enumerate(zip(ug, denom, off)):
            new = (ugj + s[j]) / dj
            new = new if 0.0 < new < 1.0 else 1.0 if new >= 1.0 else 0.0  # NaN and -0.0 go to 0.0
            step = new - p[j]
            if step:  # a zero step could change s only in the sign of a zero
                if abs(step) > moved:
                    moved = abs(step)
                s = [si + ci * step for si, ci in zip(s, col)]
                p[j] = new
        if trace is not None:
            q = np.array(p)
            obj = float(u @ q) + 0.5 * float(q @ (Us @ q)) - gamma * float(np.sum(q * q - q))
            trace.append((sweep, obj, moved))
        if moved <= cfg.tol:
            return np.array(p), "converged", sweep, moved
        if sweep < cfg.max_iters:
            sets = [math.floor(pj) + math.ceil(pj) for pj in p]
            if sets != tried:
                tried = sets
                if 1 in sets:  # a vertex has nothing to solve for
                    p, s = _newton_row(ug, denom, off, M, p, s, [b == 1 for b in sets])
    return np.array(p), "max_iters", cfg.max_iters, moved


def _newton_row(ug: list, denom: list, off: list, M: np.ndarray, p: list, s: list, free: list):
    # _newton_rows for one row, its element-wise steps on Python floats and
    # its LAPACK call the one a batch makes for this row; returns the new p
    # and s, or the old ones if the step is rejected
    g = [ugj + sj - dj * pj for ugj, sj, dj, pj in zip(ug, s, denom, p)]
    A = M
    if not all(free):  # padded with the identity on the bound coordinates
        f = np.array(free)
        A = np.where(f & f[:, None], M, np.eye(len(p)))
    try:
        x = np.linalg.solve(A, np.array(g)[:, None])[:, 0].tolist()
    except np.linalg.LinAlgError:  # an exactly zero pivot
        return p, s
    cand = [pj + xj if fj else pj for pj, xj, fj in zip(p, x, free)]
    if not all(0.0 <= cj <= 1.0 for cj in cand):  # NaN fails too
        return p, s
    sc = [0.0] * len(p)
    for col, cj in zip(off, cand):
        if cj:  # a zero cj could change sc only in the sign of a zero
            sc = [si + ci * cj for si, ci in zip(sc, col)]
    for cj, ugj, scj, dj, fj in zip(cand, ug, sc, denom, free):
        if not fj and min(1.0, max(0.0, (ugj + scj) / dj)) != cj:
            return p, s
    return cand, sc


def _sweep_rows(u: np.ndarray, Us: np.ndarray, gamma: float, cfg: SolverConfig):
    # every row from the center of the box, in numpy over the row axis, which
    # is kept last so that each coordinate's slice is contiguous; fmax and
    # fmin clip NaN and -0.0 to 0.0 as _sweep_row's clip does
    n, k = u.shape
    if n == 0:
        return np.empty((0, k)), "converged", 0, 0.0
    ug, denom, off, M = _box_quadratic_parts(u, Us, gamma)
    ug, denom, off, M = ug.T.copy(), denom.T.copy(), off.transpose(1, 2, 0).copy(), M.transpose(1, 2, 0).copy()
    rows, P, S, steps = np.arange(n), np.full((k, n), 0.5), np.zeros((k, n)), np.empty((k, n))
    P_out, moved_out, sweeps = np.empty((k, n)), np.empty(n), np.full(n, cfg.max_iters)
    tried = np.full((k, n), -1.0)  # the bound sets of each row's last Newton step; none yet
    eye = np.eye(k)[..., None]
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
            fin = rows[done]
            P_out[:, fin], moved_out[fin], sweeps[fin] = P[:, done], moved[done], sweep
            left = ~done
            rows, moved = rows[left], moved[left]
            if not rows.size:
                break
            ug, denom, off, M, P, S, steps, tried = (x[..., left] for x in (ug, denom, off, M, P, S, steps, tried))
        if sweep < cfg.max_iters:
            sets = np.floor(P) + np.ceil(P)  # 0 at the lower bound, 1 free, 2 at the upper
            fresh = (sets != tried).any(axis=0)
            if fresh.any():
                np.copyto(tried, sets, where=fresh)
                _newton_rows(fresh, sets == 1.0, ug, denom, off, M, eye, P, S)
    else:  # the rows still here are capped, each with its own final move
        P_out[:, rows], moved_out[rows] = P, moved
    status = "max_iters" if rows.size else "converged"
    return P_out.T.copy(), status, int(sweeps.max()), float(moved_out.max())


def _newton_rows(fresh, free, ug, denom, off, M, eye, P, S) -> None:
    # A Newton step for the rows where fresh is set that have a free
    # coordinate, in place on the working arrays; the other rows are computed
    # alongside and left as they are. With the bound coordinates held, the
    # objective is a concave quadratic in the free ones whose Hessian is
    # -M_FF, so p_F + M_FF^-1 g_F maximizes it, for the gradient
    # g = u + gamma + Us p - 2 gamma p = ug + S - denom P. The system is
    # padded to k x k with the identity on the bound coordinates, whose
    # right-hand sides then do not reach the free ones. A row takes the step
    # when its free coordinates land in the box and every bound coordinate's
    # own update at the new point keeps it at its bound: the KKT conditions,
    # so the new point is the unique maximizer.
    g = ug + S - denom * P
    A = np.where(free & free[:, None], M, eye)
    x = _solve_stack(A.transpose(2, 0, 1), g.T[..., None])[..., 0].T
    cand = np.where(free, P + x, P)
    Sc = np.zeros_like(S)
    for col, cj in zip(off, cand):
        Sc += col * cj
    q = np.where(free, cand, (ug + Sc) / denom)
    ok = fresh & free.any(axis=0) & (np.fmin(1.0, np.fmax(0.0, q)) == cand).all(axis=0)
    np.copyto(P, cand, where=ok)
    np.copyto(S, Sc, where=ok)


def _solve_stack(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.linalg.solve over a stack (m, k, k) and (m, k, 1): one LAPACK gesv per
    # matrix, so a row's solution does not depend on the rows beside it. A
    # matrix with an exactly zero pivot gets NaN, which no step accepts.
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for i, (Ai, bi) in enumerate(zip(A, b)):
            with contextlib.suppress(np.linalg.LinAlgError):
                x[i] = np.linalg.solve(Ai, bi)
        return x


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
    # projected ascent evaluates only projected points: the snap in
    # Regularizer.value leaves them as they are, and its membership test
    # passes them all, save a simplex projection of entries of about 1e7 or
    # more, whose rounded sum can miss the tolerance
    def value_fn(p):
        return energy.value(v, p) - reg._value_inside(p)

    def grad_fn(p):
        return energy.grad_p(v, p) - reg._grad_inside(p)

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

    Every path makes one solver call for the whole batch. ``p0`` (one start
    per row for a batch, shaped like the argmax) warm-starts the
    projected-ascent path only; closed forms and coordinate ascent ignore it
    (their solutions do not depend on the start).
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

    value_fn, grad_fn = _pga_objective(energy, reg, v)
    p, status, iters, gap = projected_gradient_ascent(value_fn, grad_fn, reg.domain, cfg, p0=p0, trace=trace)
    if status == "converged" and energy.p_structure == "nonconcave":
        status = "local_only"
    return _finish(energy, v, p, energy.value(v, p) - reg.value(p), status, iters, gap)


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
    than the plain deterministic solve. It takes one input, not a batch.
    """
    cfg = cfg or SolverConfig()
    best = conjugate(energy, reg, v, cfg)
    if np.ndim(best.value):
        raise ContractViolation("multistart solves one input, not a batch of rows")
    value_fn, grad_fn = _pga_objective(energy, reg, v)
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
