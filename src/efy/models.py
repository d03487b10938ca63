"""Parametric maps from feature vectors to energy inputs.

Three architectures, all built on one hidden-layer relu MLPs:

* ``unary``: ``x -> u`` scores paired with the identity bilinear energy.
* ``pairwise``: adds an affine head ``a(x) = WA x + bA`` and the rank-one
  coupling ``U(x) = -a a^T`` (negative semidefinite by construction), with
  parameters separate from the unary trunk.
* ``spen``: the unary trunk supplies ``u``; the prior-net weights are
  themselves part of the model parameters and ride along in the energy input,
  so their gradient is an identity pass-through.

Backpropagation is written out by hand (the graphs are three lines long).
Parameters are dataclass trees: ``Model.params_to_vec``/``vec_to_params``
flatten them through the field walk in :mod:`~efy.numerics`, and they
serialize to a JSON header (the walk's dotted tensor names and shapes) plus
a flat little-endian float64 payload.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

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
from .numerics import as_vec, flatten, rng_from_seed, unflatten, walk

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


def _mlp_forward(p: MLPParams, x: np.ndarray) -> np.ndarray:
    return p.W2 @ relu(p.W1 @ x + p.b1) + p.b2


def _mlp_vjp(p: MLPParams, x: np.ndarray, g: np.ndarray) -> MLPParams:
    z = p.W1 @ x + p.b1
    h = relu(z)
    dz = (p.W2.T @ g) * (z > 0.0)
    return MLPParams(W1=np.outer(dz, x), b1=dz, W2=np.outer(g, h), b2=g.copy())


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    s = 1.0 / np.sqrt(max(1, fan_in))
    return rng.uniform(-s, s, size=shape)


class Model:
    """Shape bookkeeping plus forward / vjp / (de)serialization."""

    architecture = "abstract"

    def __init__(self, d: int, k: int, hidden: int | None = None):
        if d < 1 or k < 1:
            raise ContractViolation("feature and label dimensions must be >= 1")
        self.d = d
        self.k = k
        self.hidden = hidden if hidden is not None else default_hidden(d)

    def init_params(self, seed: int):
        raise NotImplementedError

    def forward(self, params, x):
        raise NotImplementedError

    def vjp(self, params, x, grad_v):
        """Parameter gradient of ``<grad_v, forward(params, x)>``."""
        raise NotImplementedError

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
        return self.init_params(0)

    def _init_mlp(self, rng: np.random.Generator) -> MLPParams:
        d, k, m = self.d, self.k, self.hidden
        return MLPParams(
            W1=_uniform(rng, (m, d), d),
            b1=_uniform(rng, m, d),
            W2=_uniform(rng, (k, m), m),
            b2=_uniform(rng, k, m),
        )

    def _check_x(self, x) -> np.ndarray:
        x = as_vec(x, "feature vector")
        if x.size != self.d:
            raise ContractViolation(f"feature vector has dim {x.size}, model expects {self.d}")
        return x


class UnaryModel(Model):
    architecture = "unary"

    def init_params(self, seed: int) -> MLPParams:
        return self._init_mlp(rng_from_seed(seed))

    def forward(self, params: MLPParams, x) -> np.ndarray:
        return _mlp_forward(params, self._check_x(x))

    def vjp(self, params: MLPParams, x, grad_v) -> MLPParams:
        return _mlp_vjp(params, self._check_x(x), as_vec(grad_v))

    def energy(self) -> BilinearEnergy:
        return BilinearEnergy(np.eye(self.k))


class PairwiseModel(Model):
    architecture = "pairwise"

    def init_params(self, seed: int) -> PairwiseParams:
        rng = rng_from_seed(seed)
        return PairwiseParams(
            unary=self._init_mlp(rng),
            WA=_uniform(rng, (self.k, self.d), self.d),
            bA=_uniform(rng, self.k, self.d),
        )

    def forward(self, params: PairwiseParams, x) -> PairwiseInput:
        x = self._check_x(x)
        a = params.WA @ x + params.bA
        return PairwiseInput(u=_mlp_forward(params.unary, x), U=-np.outer(a, a))

    def vjp(self, params: PairwiseParams, x, grad_v: PairwiseInput) -> PairwiseParams:
        x = self._check_x(x)
        a = params.WA @ x + params.bA
        # d<G, -a a^T>/da = -(G + G^T) a
        ga = -(grad_v.U + grad_v.U.T) @ a
        return PairwiseParams(
            unary=_mlp_vjp(params.unary, x, as_vec(grad_v.u)),
            WA=np.outer(ga, x),
            bA=ga,
        )

    def energy(self) -> PairwiseEnergy:
        return PairwiseEnergy(self.k)


class SpenModel(Model):
    architecture = "spen"

    def __init__(self, d: int, k: int, hidden: int | None = None, prior_hidden: int = 4, concave: bool = True):
        super().__init__(d, k, hidden)
        if prior_hidden < 1:
            raise ContractViolation("prior net needs at least one hidden unit")
        self.prior_hidden = prior_hidden
        self.concave = concave

    def init_params(self, seed: int) -> SpenParams:
        rng = rng_from_seed(seed)
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
        return SpenInput(u=_mlp_forward(params.unary, self._check_x(x)), w=params.prior)

    def vjp(self, params: SpenParams, x, grad_v: SpenInput) -> SpenParams:
        # The prior weights enter the energy input directly, so their
        # gradient passes through unchanged.
        return SpenParams(
            unary=_mlp_vjp(params.unary, self._check_x(x), as_vec(grad_v.u)),
            prior=grad_v.w,
        )

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

    The header's tensor names and shapes must be the named model's own.
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
    expected = _tensor_list(model._params_like)
    if header.get("tensors") != expected:
        raise ParseError(f"parameter header tensors do not match the {model.architecture} model's {expected}")
    vec = np.frombuffer(raw[nl + 1 :], dtype="<f8")
    size = flatten(model._params_like).size
    if vec.size != size:
        raise ParseError(f"parameter payload holds {vec.size} floats, header declares {size}")
    return model, model.vec_to_params(vec), header
