"""Energy couplings ``Phi(v, p)``.

Each energy is a scalar coupling between an input ``v`` (a vector or a
dataclass bundle of arrays) and an output ``p``. It exposes the value and
both partial gradients. ``input_to_vec``/``vec_to_input`` on the base class
flatten any input through the one field walk in :mod:`~efy.numerics`, so
generic code (finite differences, smoothness probes, training) can treat
``v`` as one vector. Structure tags describe curvature:

* ``p_structure``: "linear" | "quadratic_concave" | "concave" | "nonconcave"
* ``v_structure``: "linear" | "convex" | "nonconvex"

The first two ``p_structure`` tags come with one declared form, from which
the base class derives ``value`` and ``grad_p`` and the conjugate oracle
picks its exact solve:

* "linear": ``linear_score(v) -> s`` with ``Phi = <s, p>``;
* "quadratic_concave": ``quadratic(v) -> (A, b)`` with
  ``Phi = 0.5 <p, A p> + <b, p>`` (only the symmetric part of ``A`` acts).

Rows are the batch axis: a batched input has a leading ``B`` axis on every
leaf (as :class:`~efy.models.Model` ``forward`` makes it), outputs are then
``(B, k)``, and ``value``, ``grad_p`` and ``grad_v`` answer row by row with a
``(B,)`` value and batched gradients; one output ``p`` broadcasts over a
batched input. The bilinear, linear-quadratic, pairwise, rectifier and spen
energies take batches; maxout and lse_net take one row at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit

from .exceptions import ContractViolation
from .numerics import as_mat, as_rows, as_vec, flatten, rebuild, rng_from_seed, unflatten, walk
from .regularizers import lse, softmax


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + exp(z)) without overflow.
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.outer of each row pair
    return a[..., :, None] * b[..., None, :]


class _FieldArithmetic:
    """Elementwise +, -, and scalar * over the leaves of a dataclass tree."""

    def _zip(self, other, op):
        pairs = zip(walk(self), walk(other), strict=True)
        return rebuild(self, iter([op(a, b) for (_, a), (_, b) in pairs]))

    def __add__(self, other):
        return self._zip(other, np.add)

    def __sub__(self, other):
        return self._zip(other, np.subtract)

    def __mul__(self, c):
        return rebuild(self, iter([float(c) * a for _, a in walk(self)]))

    __rmul__ = __mul__


@dataclass
class LinQuadInput(_FieldArithmetic):
    """Input of the linear-quadratic energy: ``Phi = 0.5 <p, A p> + <p, b>``."""

    A: np.ndarray
    b: np.ndarray


@dataclass
class PairwiseInput(_FieldArithmetic):
    """Unary scores and a pairwise coupling: ``Phi = <u, p> + 0.5 <p, U p>``."""

    u: np.ndarray
    U: np.ndarray


@dataclass
class PriorWeights(_FieldArithmetic):
    """One-hidden-layer scalar net ``psi(p) = W2 @ relu(W1 p + b1) + b2``."""

    W1: np.ndarray  # (h, k)
    b1: np.ndarray  # (h,)
    W2: np.ndarray  # (h,)
    b2: float


@dataclass
class SpenInput(_FieldArithmetic):
    """Unary scores plus trainable prior-net weights: ``Phi = <u, p> - psi(w, p)``."""

    u: np.ndarray
    w: PriorWeights


class Energy:
    kind = "abstract"
    p_structure = "nonconcave"
    v_structure = "nonconvex"

    def __init__(self, k: int):
        if k < 1:
            raise ContractViolation("output dimension must be >= 1")
        self.k = k

    def check_output(self, p) -> np.ndarray:
        p = as_rows(p, "output point")
        if p.shape[-1] != self.k:
            raise ContractViolation(f"output has {p.shape[-1]} coordinates, energy expects {self.k}")
        return p

    def value(self, v, p):
        """``Phi(v, p)``, derived from the declared form of ``p_structure``."""
        p = self.check_output(p)
        if self.p_structure == "linear":
            return np.vecdot(self.linear_score(v), p)
        if self.p_structure == "quadratic_concave":
            A, b = self.quadratic(v)
            return np.vecdot(b, p) + 0.5 * np.vecdot(p, np.matvec(A, p))
        raise NotImplementedError

    def grad_p(self, v, p) -> np.ndarray:
        if self.p_structure == "linear":
            return self.linear_score(v)
        if self.p_structure == "quadratic_concave":
            A, b = self.quadratic(v)
            return b + np.matvec(0.5 * (A + A.swapaxes(-1, -2)), as_rows(p))
        raise NotImplementedError

    def grad_v(self, v, p):
        """Gradient w.r.t. the input, shaped like the input."""
        raise NotImplementedError

    def input_to_vec(self, v) -> np.ndarray:
        return flatten(v)

    def vec_to_input(self, vec):
        return unflatten(self._input_like, vec)

    @cached_property
    def _input_like(self):
        # Any input fixes the structure and leaf shapes that vec_to_input rebuilds.
        return self.random_input(rng_from_seed(0))

    def random_input(self, rng: np.random.Generator, scale: float = 1.0):
        """A random instance at unit-ish magnitude, for checks; here a normal ``d``-vector."""
        return scale * rng.standard_normal(self.d)


class BilinearEnergy(Energy):
    """``Phi(v, p) = <v, U p>`` for a fixed score matrix U (d x k)."""

    kind = "bilinear"
    p_structure = "linear"
    v_structure = "linear"

    def __init__(self, U):
        U = as_mat(U, "score matrix")
        super().__init__(U.shape[1])
        self.U = U
        self.d = U.shape[0]

    def grad_v(self, v, p):
        return np.matvec(self.U, as_rows(p))

    def linear_score(self, v) -> np.ndarray:
        # Phi(v, p) = <score(v), p>
        return np.matvec(self.U.T, as_rows(v))


class LinearQuadraticEnergy(Energy):
    """``Phi(v, p) = 0.5 <p, A p> + <p, b>`` with input ``v = (A, b)``.

    ``p`` ranges over all of R^k; paired with squared L2 the conjugate has a
    closed form whenever ``gamma I - A`` is positive definite.
    """

    kind = "linear_quadratic"
    p_structure = "quadratic_concave"
    v_structure = "linear"

    def quadratic(self, v):
        return v.A, v.b

    def grad_v(self, v, p):
        p = as_rows(p)
        return LinQuadInput(A=0.5 * _outer(p, p), b=p.copy())

    def random_input(self, rng, scale=1.0, nsd=True):
        g = rng.standard_normal((self.k, self.k))
        A = -scale * (g @ g.T) / self.k if nsd else scale * 0.5 * (g + g.T)
        return LinQuadInput(A=A, b=scale * rng.standard_normal(self.k))

    @staticmethod
    def joint_smoothness(A) -> float:
        """Spectral norm of the joint Hessian in ``(b, p)`` with ``A`` held fixed."""
        A = as_mat(A)
        k = A.shape[0]
        H = np.block([[np.zeros((k, k)), np.eye(k)], [np.eye(k), 0.5 * (A + A.T)]])
        return float(np.max(np.abs(np.linalg.eigvalsh(H))))


class PairwiseEnergy(Energy):
    """Multilabel coupling ``Phi(v, p) = <u, p> + 0.5 <p, U p>``, U symmetric NSD.

    Linear in the input ``v = (u, U)`` and concave in ``p`` when U is NSD.
    Asymmetric U is tolerated (only its symmetric part enters the value).
    """

    kind = "pairwise"
    p_structure = "quadratic_concave"
    v_structure = "linear"

    def quadratic(self, v):
        return v.U, v.u

    def grad_v(self, v, p):
        p = as_rows(p)
        return PairwiseInput(u=p.copy(), U=0.5 * _outer(p, p))

    def random_input(self, rng, scale=1.0):
        g = rng.standard_normal((self.k, self.k))
        return PairwiseInput(
            u=scale * rng.standard_normal(self.k), U=-scale * (g @ g.T) / self.k
        )


class RectifierEnergy(Energy):
    """``Phi(v, p) = <relu(v), U p>`` with elementwise-nonnegative U.

    Convex in ``v`` (nonnegative combination of convex relus) and linear in
    ``p``. The relu kink makes ``grad_v`` a subgradient at coordinates with
    ``v_i = 0`` (we use relu'(0) = 0).
    """

    kind = "rectifier"
    p_structure = "linear"
    v_structure = "convex"

    def __init__(self, U):
        U = as_mat(U, "score matrix")
        if np.any(U < 0):
            raise ContractViolation("rectifier energy requires an elementwise-nonnegative U")
        super().__init__(U.shape[1])
        self.U = U
        self.d = U.shape[0]

    def grad_v(self, v, p):
        return np.where(as_rows(v) > 0.0, np.matvec(self.U, as_rows(p)), 0.0)

    def linear_score(self, v):
        return np.matvec(self.U.T, relu(as_rows(v)))


class MaxoutEnergy(Energy):
    """Scalar-output ``Phi(v, p) = p * max_i(v_i)``; ties pick the lowest index."""

    kind = "maxout"
    p_structure = "linear"
    v_structure = "convex"

    def __init__(self, d: int):
        super().__init__(1)
        self.d = d

    def grad_v(self, v, p):
        v = as_vec(v)
        g = np.zeros_like(v)
        g[int(np.argmax(v))] = float(as_vec(p)[0])
        return g

    def linear_score(self, v):
        return np.array([float(np.max(as_vec(v)))])


class LogSumExpEnergy(Energy):
    """Smoothed maxout ``Phi(v, p) = p * lse_gamma(v)`` with scalar ``p``."""

    kind = "lse_net"
    p_structure = "linear"
    v_structure = "convex"

    def __init__(self, d: int, gamma: float = 1.0):
        if gamma <= 0:
            raise ContractViolation("lse_net needs gamma > 0")
        super().__init__(1)
        self.d = d
        self.gamma = gamma

    def grad_v(self, v, p):
        return float(as_vec(p)[0]) * softmax(as_vec(v), self.gamma)

    def linear_score(self, v):
        return np.array([lse(as_vec(v), self.gamma)])


class SpenEnergy(Energy):
    """``Phi(v, p) = <u, p> - psi(w, p)`` with ``v = (u, w)``.

    ``psi`` is a one-hidden-layer relu net with scalar output. With
    ``concave=True`` the stored second-layer weights are passed through a
    softplus, making the effective weights nonnegative, hence ``psi`` convex
    in ``p`` and ``Phi`` concave. Without it ``Phi`` is nonconcave in ``p``
    and conjugates are local only.
    """

    kind = "spen"
    v_structure = "nonconvex"

    def __init__(self, k: int, hidden: int, concave: bool = True):
        if hidden < 1:
            raise ContractViolation("prior net needs at least one hidden unit")
        super().__init__(k)
        self.hidden = hidden
        self.concave = concave
        self.p_structure = "concave" if concave else "nonconcave"

    def _effective_w2(self, w: PriorWeights) -> np.ndarray:
        return softplus(w.W2) if self.concave else w.W2

    def prior_value(self, w: PriorWeights, p):
        h = relu(np.matvec(w.W1, as_rows(p)) + w.b1)
        return np.vecdot(self._effective_w2(w), h) + w.b2

    def value(self, v, p):
        return np.vecdot(v.u, self.check_output(p)) - self.prior_value(v.w, p)

    def grad_p(self, v, p):
        w = v.w
        z = np.matvec(w.W1, as_rows(p)) + w.b1
        active = (z > 0.0).astype(float)
        return v.u - np.vecmat(self._effective_w2(w) * active, w.W1)

    def grad_v(self, v, p):
        p = as_rows(p)
        w = v.w
        z = np.matvec(w.W1, p) + w.b1
        h = relu(z)
        w2_eff = self._effective_w2(w)
        back = w2_eff * (z > 0.0)
        gW1 = -_outer(back, p)
        gb1 = -back
        gW2 = -h * expit(w.W2) if self.concave else -h
        # a float for one row, as the input's own b2 is
        gb2 = -1.0 if p.ndim == 1 else np.full(len(p), -1.0)
        return SpenInput(u=p.copy(), w=PriorWeights(W1=gW1, b1=gb1, W2=gW2, b2=gb2))

    def random_input(self, rng, scale=1.0):
        k, h = self.k, self.hidden
        return SpenInput(
            u=scale * rng.standard_normal(k),
            w=PriorWeights(
                W1=scale * rng.standard_normal((h, k)),
                b1=scale * rng.standard_normal(h),
                W2=scale * rng.standard_normal(h),
                b2=float(scale * rng.standard_normal()),
            ),
        )


ENERGY_KINDS = (
    "bilinear",
    "linear_quadratic",
    "pairwise",
    "rectifier",
    "maxout",
    "lse_net",
    "spen",
)
