"""Parametric maps from feature vectors to energy inputs.

Three architectures, all built on one hidden-layer relu MLPs:

* ``unary``: ``x -> u`` scores paired with the identity bilinear energy.
* ``pairwise``: adds an affine head ``a(x) = WA x + bA`` and the rank-one
  coupling ``U(x) = -a a^T`` (negative semidefinite by construction), with
  parameters separate from the unary trunk.
* ``spen``: the unary trunk supplies ``u``; the prior-net weights are
  themselves part of the model parameters and ride along in the energy input,
  so their gradient is an identity pass-through.

Rows are the batch axis: ``forward`` and ``vjp`` take one row ``(d,)`` or a
matrix ``(B, d)``. A batched energy input has a leading ``B`` axis on every
leaf (spen rows share the prior weights, as read-only broadcast views), and
``vjp`` returns the parameter gradient summed over the rows.

Backpropagation is written out by hand (the graphs are three lines long).
Parameters are dataclass trees: ``Model.params_to_vec``/``vec_to_params``
flatten them through the field walk in :mod:`~efy.numerics`, and they
serialize to a JSON header (the walk's dotted tensor names and shapes) plus
a flat little-endian float64 payload.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .energies import (
    BilinearEnergy,
    PairwiseInput,
    PriorWeights,
    SpenEnergy,
    SpenInput,
    PairwiseEnergy,
    relu,
)
from .exceptions import ContractViolation, ParseError
from .numerics import flatten, rebuild, rng_from_seed, stack, unflatten, walk

FORMAT_TAG = "efy-params-v1"


def default_hidden(d: int) -> int:
    """Hidden width heuristic: a third of the input dimension, capped at 100."""
    return max(1, min(100, d // 3))


@dataclass
class MLPParams:
    W1: np.ndarray  # (m, d)
    b1: np.ndarray  # (m,)
    W2: np.ndarray  # (k, m)
    b2: np.ndarray  # (k,)


@dataclass
class PairwiseParams:
    unary: MLPParams
    WA: np.ndarray  # (k, d)
    bA: np.ndarray  # (k,)


@dataclass
class SpenParams:
    unary: MLPParams
    prior: PriorWeights


# ndarray.dot skips the ufunc dispatch of ``@``, which costs more than the
# arithmetic when a batch is a single row.
def _mlp_forward(p: MLPParams, X: np.ndarray) -> np.ndarray:
    return relu(X.dot(p.W1.T) + p.b1).dot(p.W2.T) + p.b2


def _mlp_vjp(p: MLPParams, X: np.ndarray, G: np.ndarray) -> MLPParams:
    """Gradient summed over the rows of ``X`` (B, d) with upstream ``G`` (B, k)."""
    Z = X.dot(p.W1.T) + p.b1
    dZ = G.dot(p.W2) * (Z > 0.0)
    return MLPParams(W1=dZ.T.dot(X), b1=dZ.sum(axis=0), W2=G.T.dot(relu(Z)), b2=G.sum(axis=0))


def _uniform(rng, shape, fan_in: int) -> np.ndarray:
    s = 1.0 / math.sqrt(max(1, fan_in))
    return rng.uniform(-s, s, size=shape)


class Model:
    """Shape bookkeeping plus forward / vjp / (de)serialization."""

    architecture = "abstract"

    def __init__(self, d: int, k: int, hidden: int | None = None):
        if d < 1 or k < 1:
            raise ContractViolation("feature and label dimensions must be >= 1")
        if hidden is not None and hidden < 1:
            raise ContractViolation(f"hidden must be >= 1, got {hidden}")
        self.d = d
        self.k = k
        self.hidden = hidden if hidden is not None else default_hidden(d)

    def init_params(self, seed: int):
        return self._draw_params(rng_from_seed(seed))

    def _draw_params(self, rng):
        raise NotImplementedError

    def forward(self, params, x):
        """Energy input of a row ``x`` (d,); for a matrix (B, d), one with a leading ``B`` axis on every leaf.

        spen rows share the prior weights, as read-only views of ``params``."""
        raise NotImplementedError

    def vjp(self, params, x, grad_v):
        """Parameter gradient of ``<grad_v, forward(params, x)>``, summed over the rows of a matrix ``x``.

        ``grad_v`` is batched like ``forward``'s output; a row ``x`` (d,) is the ``B = 1`` case."""
        x = self._check_x(x)
        if x.ndim == 1:
            x, grad_v = x[None], stack([grad_v])
        return self._vjp(params, x, grad_v)

    def energy(self):
        raise NotImplementedError

    def meta(self) -> dict:
        return {"architecture": self.architecture, "d": self.d, "k": self.k, "hidden": self.hidden}

    # Flattening and serialization both follow the params dataclasses' field
    # order (numerics.walk), so that order is the on-disk tensor order:
    # reordering a field changes params.bin, and a test pins the header.
    def params_to_vec(self, params) -> np.ndarray:
        return flatten(params)

    def vec_to_params(self, vec: np.ndarray):
        return unflatten(self._params_like, vec)

    @cached_property
    def _params_like(self):
        # draws are zero-memory views of their shapes, so a params header's
        # dimensions allocate nothing until they have been checked
        return self._draw_params(SimpleNamespace(uniform=lambda low, high, size: np.broadcast_to(0.0, size)))

    def _init_mlp(self, rng) -> MLPParams:
        d, k, m = self.d, self.k, self.hidden
        return MLPParams(
            W1=_uniform(rng, (m, d), d),
            b1=_uniform(rng, m, d),
            W2=_uniform(rng, (k, m), m),
            b2=_uniform(rng, k, m),
        )

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise ContractViolation(f"features have shape {x.shape}, model expects ({self.d},) or (B, {self.d})")
        return x


class UnaryModel(Model):
    architecture = "unary"

    def _draw_params(self, rng) -> MLPParams:
        return self._init_mlp(rng)

    def forward(self, params: MLPParams, x) -> np.ndarray:
        return _mlp_forward(params, self._check_x(x))

    def _vjp(self, params: MLPParams, X, G) -> MLPParams:
        return _mlp_vjp(params, X, G)

    def energy(self) -> BilinearEnergy:
        return BilinearEnergy(np.eye(self.k))


class PairwiseModel(Model):
    architecture = "pairwise"

    def _draw_params(self, rng) -> PairwiseParams:
        return PairwiseParams(
            unary=self._init_mlp(rng),
            WA=_uniform(rng, (self.k, self.d), self.d),
            bA=_uniform(rng, self.k, self.d),
        )

    def forward(self, params: PairwiseParams, x) -> PairwiseInput:
        x = self._check_x(x)
        a = x.dot(params.WA.T) + params.bA
        return PairwiseInput(u=_mlp_forward(params.unary, x), U=-(a[..., :, None] * a[..., None, :]))

    def _vjp(self, params: PairwiseParams, X, G: PairwiseInput) -> PairwiseParams:
        A = X.dot(params.WA.T) + params.bA
        # d<G, -a a^T>/da = -(G + G^T) a, row by row
        GA = -((G.U + G.U.swapaxes(1, 2)) @ A[:, :, None])[:, :, 0]
        return PairwiseParams(unary=_mlp_vjp(params.unary, X, G.u), WA=GA.T.dot(X), bA=GA.sum(axis=0))

    def energy(self) -> PairwiseEnergy:
        return PairwiseEnergy(self.k)


class SpenModel(Model):
    architecture = "spen"

    def __init__(self, d: int, k: int, hidden: int | None = None, prior_hidden: int = 4, concave: bool = True):
        super().__init__(d, k, hidden)
        if prior_hidden < 1:
            raise ContractViolation(f"prior_hidden must be >= 1, got {prior_hidden}")
        self.prior_hidden = prior_hidden
        self.concave = concave

    def _draw_params(self, rng) -> SpenParams:
        unary = self._init_mlp(rng)
        k, h = self.k, self.prior_hidden
        prior = PriorWeights(
            W1=_uniform(rng, (h, k), k),
            b1=_uniform(rng, h, k),
            W2=_uniform(rng, h, h),
            b2=float(_uniform(rng, (), h)),
        )
        return SpenParams(unary=unary, prior=prior)

    def forward(self, params: SpenParams, x) -> SpenInput:
        x = self._check_x(x)
        w = params.prior
        if x.ndim == 2:  # every row holds the same weights: views, not copies
            w = rebuild(w, iter([np.broadcast_to(leaf, (len(x), *np.shape(leaf))) for _, leaf in walk(w)]))
        return SpenInput(u=_mlp_forward(params.unary, x), w=w)

    def _vjp(self, params: SpenParams, X, G: SpenInput) -> SpenParams:
        # The prior weights enter the energy input directly, so their
        # gradient passes through, summed over the rows.
        prior = rebuild(G.w, iter([leaf.sum(axis=0) for _, leaf in walk(G.w)]))
        return SpenParams(unary=_mlp_vjp(params.unary, X, G.u), prior=prior)

    def energy(self) -> SpenEnergy:
        return SpenEnergy(self.k, self.prior_hidden, concave=self.concave)

    def meta(self) -> dict:
        base = super().meta()
        base.update({"prior_hidden": self.prior_hidden, "concave": self.concave})
        return base


ARCHITECTURES = ("unary", "pairwise", "spen")


def make_model(
    architecture: str,
    d: int,
    k: int,
    hidden: int | None = None,
    prior_hidden: int = 4,
    concave: bool = True,
) -> Model:
    if prior_hidden < 1:  # rejected for every architecture, though only spen uses it
        raise ContractViolation(f"prior_hidden must be >= 1, got {prior_hidden}")
    if architecture == "unary":
        return UnaryModel(d, k, hidden)
    if architecture == "pairwise":
        return PairwiseModel(d, k, hidden)
    if architecture == "spen":
        return SpenModel(d, k, hidden, prior_hidden=prior_hidden, concave=concave)
    raise ContractViolation(f"unknown architecture {architecture!r}; choose from {ARCHITECTURES}")


def _tensor_list(params) -> list[dict]:
    return [{"name": name, "shape": list(np.shape(leaf))} for name, leaf in walk(params)]


def save_params(path, model: Model, params, seed: int | None = None):
    """Write a JSON header line plus a flat little-endian float64 payload."""
    header = {"format": FORMAT_TAG, "seed": seed, "tensors": _tensor_list(params), **model.meta()}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(flatten(params).astype("<f8").tobytes())


# The make_model arguments a header carries, with the type each must have when
# present; only the first three are required, and an absent optional key takes
# make_model's default.
_HEADER_TYPES = {"architecture": str, "d": int, "k": int, "hidden": int, "prior_hidden": int, "concave": bool}


def load_params(path) -> tuple[Model, object, dict]:
    """Inverse of :func:`save_params`; returns (model, params, header).

    The header's tensor names and shapes must be the named model's own, and
    the payload must hold exactly their floats. Both are checked before any
    array of the model's size is allocated.
    """
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise ParseError("missing header line in parameter file")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"unreadable parameter header: {exc}") from exc
    if not isinstance(header, dict):
        raise ParseError("parameter header is not a JSON object")
    if header.get("format") != FORMAT_TAG:
        raise ParseError(f"unsupported parameter format {header.get('format')!r}")
    for key, typ in _HEADER_TYPES.items():
        value = header.get(key)
        if type(value) is not typ and (key in header or key in ("architecture", "d", "k")):
            raise ParseError(f"parameter header field {key!r} must be a {typ.__name__}, got {value!r}")
    model = make_model(**{key: header[key] for key in _HEADER_TYPES if key in header})
    try:
        expected = _tensor_list(model._params_like)
    except (ValueError, OverflowError) as exc:  # dimensions no array can have
        raise ParseError(f"parameter header dimensions are out of range: {exc}") from exc
    if header.get("tensors") != expected:
        raise ParseError(f"parameter header tensors do not match the {model.architecture} model's {expected}")
    size = sum(math.prod(tensor["shape"]) for tensor in expected)
    payload = raw[nl + 1 :]
    if len(payload) != 8 * size:
        raise ParseError(f"parameter payload holds {len(payload)} bytes, header declares {size} floats")
    return model, model.vec_to_params(np.frombuffer(payload, dtype="<f8")), header
