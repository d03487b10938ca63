"""Dense linear-algebra substrate: validation, seeded RNG, finite differences,
and the flatten/unflatten of structured values.

Everything here is deterministic. Matrices are dense ``float64`` arrays;
no sparse formats are supported.
"""
from __future__ import annotations

from dataclasses import fields, is_dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import solve_triangular

from .exceptions import ContractViolation, EvaluationError, SingularMatrixError

# Central-difference step is scaled per coordinate: h_i = FD_STEP * (1 + |v_i|).
FD_STEP = 1e-5
NSD_EIG_TOL = 1e-9
SYMMETRY_TOL = 1e-12


def rng_from_seed(seed: int) -> np.random.Generator:
    """Deterministic generator; identical seeds give bit-identical streams."""
    if seed < 0:
        raise ContractViolation(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def as_vec(x, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ContractViolation(f"{name} must be 1-D, got shape {v.shape}")
    return v


def as_mat(x, name: str = "matrix") -> np.ndarray:
    m = np.asarray(x, dtype=float)
    if m.ndim != 2:
        raise ContractViolation(f"{name} must be 2-D, got shape {m.shape}")
    return m


def as_sym_mat(x, name: str = "matrix", tol: float = SYMMETRY_TOL) -> np.ndarray:
    m = as_mat(x, name)
    if m.shape[0] != m.shape[1]:
        raise ContractViolation(f"{name} must be square, got shape {m.shape}")
    skew = np.abs(m - m.T).max() if m.size else 0.0
    # exactly symmetric input, the common case, skips the scale reduction
    if skew > 0.0 and skew > tol * max(1.0, float(np.abs(m).max())):
        raise ContractViolation(f"{name} is not symmetric (max |M - M^T| = {skew:.3e})")
    return m


def assert_finite(x, what: str = "result"):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise EvaluationError(f"{what} contains non-finite entries")
    return x


def finite_diff_grad(f: Callable[[np.ndarray], float], v, step: float | None = None) -> np.ndarray:
    """Central-difference gradient of a scalar field ``f`` at ``v``.

    The default step is ``FD_STEP * (1 + |v_i|)`` per coordinate, which keeps
    the estimate exact (to roundoff) on polynomials of degree <= 2.
    Raises :class:`EvaluationError` if ``f`` returns a non-finite value.
    """
    v = as_vec(v, "evaluation point")
    grad = np.empty_like(v)
    for i in range(v.size):
        h = step if step is not None else FD_STEP * (1.0 + abs(v[i]))
        vp = v.copy()
        vm = v.copy()
        vp[i] += h
        vm[i] -= h
        fp = float(f(vp))
        fm = float(f(vm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"objective non-finite near coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def rel_err(approx, reference) -> float:
    """Max-norm relative error with a unit floor on the denominator."""
    a = np.asarray(approx, dtype=float).ravel()
    b = np.asarray(reference, dtype=float).ravel()
    denom = max(1.0, float(np.max(np.abs(b))) if b.size else 0.0)
    return float(np.max(np.abs(a - b))) / denom if a.size else 0.0


def is_negative_semidefinite(m, tol: float = NSD_EIG_TOL) -> bool:
    """True when the largest eigenvalue of symmetric ``m`` is <= ``tol * max(1, max|m|)``.

    The tolerance is relative because the rounding error of the eigenvalues
    grows with the scale of the matrix.
    """
    m = as_sym_mat(m)
    if m.size == 0:
        return True
    scale = max(1.0, float(np.abs(m).max()))
    return bool(np.linalg.eigvalsh(m)[-1] <= tol * scale)


def solve_spd(m, b) -> np.ndarray:
    """Solve ``m x = b`` for symmetric positive definite ``m``.

    Uses a square-root-free LDL^T factorization so systems with dyadic
    rational entries solve exactly. Raises :class:`SingularMatrixError`
    naming the first non-positive pivot.
    """
    a = as_sym_mat(m, "SPD matrix")
    b = as_vec(b, "right-hand side")
    k = a.shape[0]
    if b.size != k:
        raise ContractViolation(
            f"dimension mismatch: matrix is {k}x{k}, rhs has {b.size}"
        )
    lower = np.eye(k)
    diag = np.zeros(k)
    for j in range(k):
        pivot = a[j, j] - (lower[j, :j] * lower[j, :j]) @ diag[:j]
        if pivot <= 0.0 or not np.isfinite(pivot):
            raise SingularMatrixError(j, float(pivot))
        diag[j] = pivot
        if j + 1 < k:
            lower[j + 1 :, j] = (
                a[j + 1 :, j] - lower[j + 1 :, :j] @ (diag[:j] * lower[j, :j])
            ) / pivot
    y = solve_triangular(lower, b, lower=True, unit_diagonal=True)
    x = solve_triangular(lower.T, y / diag, lower=False, unit_diagonal=True)
    return assert_finite(x, "solve_spd result")


@lru_cache(maxsize=None)
def _field_names(cls: type) -> tuple[str, ...] | None:
    """Field names of a dataclass type in declaration order; None for a leaf type."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def walk(tree, prefix: str = "") -> Iterator[tuple[str, object]]:
    """Yield ``(dotted name, leaf)`` for each leaf of a dataclass tree, in field order.

    Fields holding dataclasses are walked into; anything else (an array or a
    float) is a leaf. A bare leaf yields once, named ``""``.
    """
    names = _field_names(type(tree))
    if names is None:
        yield prefix, tree
        return
    for name in names:
        node = getattr(tree, name)
        # Leaves are yielded here, not by a nested call: training flattens
        # once per sample, and a generator per leaf is measurable there.
        if _field_names(type(node)) is None:
            yield prefix + name, node
        else:
            yield from walk(node, f"{prefix}{name}.")


def flatten(tree) -> np.ndarray:
    """All leaves of ``tree`` raveled into one new float vector, in :func:`walk` order."""
    return np.concatenate([leaf for _, leaf in walk(tree)], axis=None, dtype=float)


def rebuild(like, leaves: Iterator):
    """A tree shaped like ``like`` whose leaves are drawn, in :func:`walk` order, from ``leaves``."""
    names = _field_names(type(like))
    if names is None:
        return next(leaves)
    return type(like)(*[rebuild(getattr(like, name), leaves) for name in names])


def unflatten(like, vec):
    """Inverse of :func:`flatten`: a tree shaped like ``like`` holding copies of ``vec``.

    Leaves take their shapes from ``like``; a ``float`` leaf comes back as a
    ``float``. Raises :class:`ContractViolation` on a size mismatch.
    """
    vec = as_vec(vec, "flat vector")
    leaves = [leaf for _, leaf in walk(like)]
    size = sum(np.size(leaf) for leaf in leaves)
    if vec.size != size:
        raise ContractViolation(f"flat vector has {vec.size} entries, the structure holds {size}")
    parts, pos = [], 0
    for leaf in leaves:
        part = vec[pos : pos + np.size(leaf)]
        pos += part.size
        parts.append(float(part[0]) if isinstance(leaf, float) else part.reshape(np.shape(leaf)).copy())
    return rebuild(like, iter(parts))
