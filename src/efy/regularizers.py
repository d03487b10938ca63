"""Output sets and regularization functions.

A regularizer ``Omega`` is a convex function over an output set ``C`` with a
known strong-convexity constant (w.r.t. the Euclidean norm). Kinds with a
closed-form argmax map expose ``argmax_map(u) = argmax_{p in C} <u, p> - Omega(p)``,
which is the workhorse for conjugates of energies that are linear in ``p``.

Rows are the batch axis: ``OutputSet.contains`` and ``project``, and a
regularizer's ``value``, ``grad``, ``argmax_map`` and ``conjugate_value``,
take one point ``(k,)`` or a batch ``(B, k)`` and answer row by row (a scalar
per row becomes a ``(B,)`` array).

Conventions: ``0 log 0 = 0``, so entropies are finite on the whole closed
domain, while their gradients blow up at the boundary and raise
:class:`DomainBoundaryError` there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, xlogy

from .exceptions import (
    ContractViolation,
    DivergenceError,
    DomainBoundaryError,
    EvaluationError,
    UnsupportedOperation,
)
from .numerics import as_rows, as_vec

MEMBERSHIP_TOL = 1e-9


def lse(u, gamma: float = 1.0):
    """Temperature log-sum-exp ``gamma * log(sum_i exp(u_i / gamma))`` of each row.

    Computed with a max shift so that it never overflows; converges to
    ``max(u)`` as ``gamma -> 0``.
    """
    u = as_rows(u)
    if gamma <= 0:
        raise ContractViolation(f"lse temperature must be positive, got {gamma}")
    m = np.max(u, axis=-1, keepdims=True)
    return m[..., 0] + gamma * np.log(np.sum(np.exp((u - m) / gamma), axis=-1))


def softmax(u, gamma: float = 1.0) -> np.ndarray:
    """Gradient of :func:`lse`; a point on the interior of the simplex per row."""
    u = as_rows(u)
    if gamma <= 0:
        raise ContractViolation(f"softmax temperature must be positive, got {gamma}")
    z = np.exp((u - np.max(u, axis=-1, keepdims=True)) / gamma)
    return z / np.sum(z, axis=-1, keepdims=True)


def _project_simplex(z: np.ndarray) -> np.ndarray:
    # Euclidean projection of each row onto the probability simplex (sort-based):
    # theta comes from the last breakpoint rho where u_rho > (sum_{i<=rho} u_i - 1) / rho.
    # Each row is shifted by its maximum first, which leaves its projection unchanged
    # but rounds z - theta to the precision of the row's spread, not of its magnitude.
    z = z - np.max(z, axis=-1, keepdims=True, initial=-np.inf)
    u = np.flip(np.sort(z, axis=-1), axis=-1)
    css = np.cumsum(u, axis=-1) - 1.0
    cond = u - css / np.arange(1, z.shape[-1] + 1) > 0
    if not np.all(np.any(cond, axis=-1)):  # only a non-finite point leaves no breakpoint
        raise EvaluationError("cannot project a non-finite point onto the simplex")
    last = z.shape[-1] - 1 - np.argmax(np.flip(cond, axis=-1), axis=-1)
    theta = np.take_along_axis(css, last[..., None], axis=-1) / (last[..., None] + 1)
    return np.maximum(z - theta, 0.0)


@dataclass(frozen=True)
class OutputSet:
    """Compact (or all of R^k) admissible output set with projection."""

    kind: str  # "box" | "simplex" | "reals"
    dim: int
    lo: np.ndarray | None = field(default=None, repr=False)
    hi: np.ndarray | None = field(default=None, repr=False)

    def contains(self, p, tol: float = MEMBERSHIP_TOL):
        """Membership of a point (a bool), or of each row of a batch (a ``(B,)`` bool array)."""
        p = as_rows(p)
        if p.shape[-1] != self.dim:
            return np.zeros(p.shape[:-1], dtype=bool)[()]
        if self.kind == "reals":
            return np.isfinite(p).all(axis=-1)
        if self.kind == "box":
            return ((p >= self.lo - tol) & (p <= self.hi + tol)).all(axis=-1)
        if self.kind == "simplex":
            return (p >= -tol).all(axis=-1) & (np.abs(p.sum(axis=-1) - 1.0) <= tol)
        raise ContractViolation(f"unknown output set kind {self.kind!r}")

    def project(self, p) -> np.ndarray:
        """Euclidean projection onto the set, row by row."""
        p = as_rows(p)
        if p.shape[-1] != self.dim:
            raise ContractViolation(f"point has dim {p.shape[-1]}, set has dim {self.dim}")
        if self.kind == "reals":
            return p.copy()
        if self.kind == "box":
            return np.clip(p, self.lo, self.hi)
        if self.kind == "simplex":
            return _project_simplex(p)
        raise ContractViolation(f"unknown output set kind {self.kind!r}")

    def center(self) -> np.ndarray:
        """Deterministic interior-ish start point: projection of (1/2, ..., 1/2)."""
        return self.project(np.full(self.dim, 0.5))


def box01(k: int) -> OutputSet:
    return box(np.zeros(k), np.ones(k))


def box(lo, hi) -> OutputSet:
    lo = as_vec(lo, "box lower bound")
    hi = as_vec(hi, "box upper bound")
    if lo.size != hi.size or np.any(lo > hi):
        raise ContractViolation("box bounds must satisfy lo <= hi elementwise")
    return OutputSet("box", lo.size, lo=lo, hi=hi)


def simplex(k: int) -> OutputSet:
    return OutputSet("simplex", k)


def reals(k: int) -> OutputSet:
    return OutputSet("reals", k)


class Regularizer:
    """Base class: a convex function on an output set.

    Attributes
    ----------
    domain : OutputSet
    gamma : float
        User-facing scale of the regularizer.
    strong_convexity : float
        Exact strong-convexity modulus w.r.t. the Euclidean norm on the domain
        (0 for the indicator).
    """

    kind = "abstract"

    def __init__(self, domain: OutputSet, gamma: float, strong_convexity: float):
        if gamma < 0:
            raise ContractViolation(f"gamma must be nonnegative, got {gamma}")
        self.domain = domain
        self.gamma = gamma
        self.strong_convexity = strong_convexity

    def value(self, p):
        """Extended-real value; +inf outside the domain. A batch gives one value per row."""
        p = as_rows(p)
        inside = self.domain.contains(p)
        if inside.all():
            return self._value_inside(self._snap(p))
        if p.ndim == 1:
            return math.inf
        out = np.full(len(p), math.inf)
        out[inside] = self._value_inside(self._snap(p[inside]))
        return out

    def _snap(self, p: np.ndarray) -> np.ndarray:
        # Points within membership tolerance may sit a hair outside the exact
        # set; snap them in so entropies never see negative arguments.
        if self.domain.kind == "box":
            return np.clip(p, self.domain.lo, self.domain.hi)
        if self.domain.kind == "simplex":
            return np.maximum(p, 0.0)
        return p

    def _value_inside(self, p: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, p) -> np.ndarray:
        """Gradient at a point, or at each row of a batch; every row must lie in the domain."""
        p = as_rows(p)
        if not self.domain.contains(p).all():
            raise ContractViolation("gradient requested outside the domain")
        return self._grad_inside(p)

    def _grad_inside(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def argmax_map(self, u) -> np.ndarray:
        """Closed-form ``argmax_{p in C} <u, p> - Omega(p)`` of each row, where available."""
        raise UnsupportedOperation(
            f"{self.kind} over {self.domain.kind} has no closed-form argmax map; "
            "use the iterative conjugate oracle"
        )

    def conjugate_value(self, u):
        """``max_{p in C} <u, p> - Omega(p)`` of each row, via the closed-form argmax map."""
        u = as_rows(u)
        p = self.argmax_map(u)
        return np.vecdot(u, p) - self._value_inside(p)


class SquaredL2(Regularizer):
    """``Omega(p) = (gamma / 2) ||p||^2`` over any of the three set kinds."""

    kind = "squared_l2"

    def __init__(self, gamma: float, domain: OutputSet):
        if gamma <= 0:
            raise ContractViolation("squared_l2 needs gamma > 0")
        super().__init__(domain, gamma, strong_convexity=gamma)

    def _value_inside(self, p):
        return 0.5 * self.gamma * np.vecdot(p, p)

    def _grad_inside(self, p):
        return self.gamma * p

    def argmax_map(self, u):
        u = as_rows(u)
        # argmax <u,p> - (gamma/2)||p||^2 = projection of u / gamma onto C.
        return self.domain.project(u / self.gamma)


class ShannonBinary(Regularizer):
    """Coordinate-wise bit entropy ``gamma * sum_j [p log p + (1-p) log(1-p)]``.

    Defined over the unit box; the argmax map is a temperature sigmoid.
    Strong convexity is ``4 * gamma`` (the curvature minimum, at p = 1/2).
    """

    kind = "shannon_binary"

    def __init__(self, gamma: float, k: int):
        if gamma <= 0:
            raise ContractViolation("shannon_binary needs gamma > 0")
        super().__init__(box01(k), gamma, strong_convexity=4.0 * gamma)

    def _value_inside(self, p):
        return self.gamma * np.sum(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p), axis=-1)

    def _grad_inside(self, p):
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise DomainBoundaryError("bit-entropy gradient undefined at the box boundary")
        return self.gamma * (np.log(p) - np.log1p(-p))

    def argmax_map(self, u):
        return expit(as_rows(u) / self.gamma)

    def conjugate_value(self, u):
        # Per-coordinate conjugate of the bit entropy: gamma * softplus(u / gamma).
        t = as_rows(u) / self.gamma
        return self.gamma * np.sum(np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t))), axis=-1)


class GiniBinary(Regularizer):
    """Coordinate-wise quadratic negentropy ``gamma * sum_j (p_j^2 - p_j)``.

    The convex counterpart of the Gini impurity on the unit box: it vanishes
    at the vertices and dips to ``-gamma k / 4`` at the center. Its argmax map
    is a hard sigmoid, so exactly sparse solutions (0 or 1) are reachable.
    Strong convexity is ``2 * gamma``.
    """

    kind = "gini_binary"

    def __init__(self, gamma: float, k: int):
        if gamma <= 0:
            raise ContractViolation("gini_binary needs gamma > 0")
        super().__init__(box01(k), gamma, strong_convexity=2.0 * gamma)

    def _value_inside(self, p):
        return self.gamma * np.sum(p * p - p, axis=-1)

    def _grad_inside(self, p):
        return self.gamma * (2.0 * p - 1.0)

    def argmax_map(self, u):
        return np.clip((as_rows(u) + self.gamma) / (2.0 * self.gamma), 0.0, 1.0)


class ShannonSimplex(Regularizer):
    """Scaled negative entropy ``gamma * <p, log p>`` over the simplex.

    Argmax map is a temperature softmax; the conjugate is temperature
    log-sum-exp. Strong convexity w.r.t. the Euclidean norm is ``gamma``
    (curvature ``gamma / p_j >= gamma`` on the simplex).
    """

    kind = "shannon_simplex"

    def __init__(self, gamma: float, k: int):
        if gamma <= 0:
            raise ContractViolation("shannon_simplex needs gamma > 0")
        super().__init__(simplex(k), gamma, strong_convexity=gamma)

    def _value_inside(self, p):
        return self.gamma * np.sum(xlogy(p, p), axis=-1)

    def _grad_inside(self, p):
        if np.any(p <= 0.0):
            raise DomainBoundaryError("negative entropy gradient undefined at the simplex boundary")
        return self.gamma * (np.log(p) + 1.0)

    def argmax_map(self, u):
        return softmax(u, self.gamma)

    def conjugate_value(self, u):
        return lse(u, self.gamma)


class Indicator(Regularizer):
    """Zero on the output set, +inf outside: the unregularized case."""

    kind = "indicator"

    def __init__(self, domain: OutputSet):
        super().__init__(domain, gamma=0.0, strong_convexity=0.0)

    def _value_inside(self, p):
        return np.zeros(p.shape[:-1])[()]

    def _grad_inside(self, p):
        return np.zeros_like(p)

    def argmax_map(self, u):
        u = as_rows(u)
        if self.domain.kind == "box":
            # Linear maximization over a box: pick the favorable bound.
            return np.where(u >= 0.0, self.domain.hi, self.domain.lo).astype(float)
        if self.domain.kind == "reals":
            if np.any(u != 0.0):
                raise DivergenceError("linear maximization over all of R^k is unbounded")
            return np.zeros(u.shape)
        raise UnsupportedOperation(
            "indicator over non-box sets has no closed-form argmax map; "
            "use the iterative conjugate oracle"
        )


class Restriction(Regularizer):
    """A regularizer restricted to a smaller output set (same values inside)."""

    def __init__(self, base: Regularizer, subdomain: OutputSet):
        if subdomain.dim != base.domain.dim:
            raise ContractViolation("restriction must preserve the dimension")
        super().__init__(subdomain, base.gamma, base.strong_convexity)
        self.base = base
        self.kind = f"{base.kind}_restricted"

    def _value_inside(self, p):
        return self.base._value_inside(p)

    def _grad_inside(self, p):
        return self.base._grad_inside(p)


def restrict(base: Regularizer, subdomain: OutputSet) -> Regularizer:
    return Restriction(base, subdomain)


REGULARIZER_KINDS = ("squared_l2", "shannon_binary", "gini_binary", "shannon_simplex", "indicator")


def make_regularizer(kind: str, k: int, gamma: float = 1.0, domain: OutputSet | None = None) -> Regularizer:
    """Factory used by the CLI config layer."""
    if gamma <= 0:
        raise ContractViolation(f"regularizer gamma must be positive, got {gamma}")
    if kind == "squared_l2":
        return SquaredL2(gamma, domain if domain is not None else reals(k))
    if kind == "shannon_binary":
        return ShannonBinary(gamma, k)
    if kind == "gini_binary":
        return GiniBinary(gamma, k)
    if kind == "shannon_simplex":
        return ShannonSimplex(gamma, k)
    if kind == "indicator":
        return Indicator(domain if domain is not None else box01(k))
    raise ContractViolation(f"unknown regularizer kind {kind!r}; choose from {REGULARIZER_KINDS}")
