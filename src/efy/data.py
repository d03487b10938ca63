"""Multilabel dataset I/O, splits, standardization, and a planted generator.

Text format: one instance per line, ``LABELS idx:val idx:val ...`` with
comma-separated label ids and 1-based feature indices, e.g. ``1,3 2:0.5 4:1.0``.
A line that starts directly with a feature token has an empty label field and
becomes an all-zero label row. Parse failures report the 1-based line number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjugate import SolverConfig, coordinate_ascent_box_quadratic
from .exceptions import ContractViolation, ParseError
from .numerics import rng_from_seed

STD_FLOOR = 1e-8


@dataclass
class MultilabelDataset:
    X: np.ndarray  # (n, d) features
    Y: np.ndarray  # (n, k) binary labels

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise ContractViolation("X and Y must be 2-D")
        if self.X.shape[0] != self.Y.shape[0]:
            raise ContractViolation("X and Y must have the same number of rows")
        bad = (self.Y != 0.0) & (self.Y != 1.0)
        if np.any(bad):
            raise ContractViolation("labels must be 0/1")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def k(self) -> int:
        return self.Y.shape[1]

    def subset(self, idx) -> "MultilabelDataset":
        return MultilabelDataset(self.X[idx].copy(), self.Y[idx].copy())


def parse_libsvm_multilabel(
    source,
    n_features: int | None = None,
    n_labels: int | None = None,
    labels_one_based: bool = True,
) -> MultilabelDataset:
    """Parse multilabel text into dense arrays.

    ``source`` is a string of lines or any iterable of lines. Dimensions are
    inferred from the largest indices unless declared, in which case
    out-of-bound indices are parse errors.
    """
    for name, declared in (("n_features", n_features), ("n_labels", n_labels)):
        if declared is not None and declared < 1:
            raise ContractViolation(f"{name} must be >= 1, got {declared}")
    lines = source.splitlines() if isinstance(source, str) else list(source)
    rows: list[tuple[list[int], list[tuple[int, float]]]] = []
    max_feat = 0
    max_label = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        labels: list[int] = []
        feat_tokens = tokens
        if ":" not in tokens[0]:
            feat_tokens = tokens[1:]
            for tok in tokens[0].split(","):
                if tok == "":
                    continue
                try:
                    lab = int(tok)
                except ValueError:
                    raise ParseError(f"line {lineno}: bad label token {tok!r}") from None
                labels.append(lab - 1 if labels_one_based else lab)
        feats: list[tuple[int, float]] = []
        for tok in feat_tokens:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: feature token {tok!r} lacks ':'")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"line {lineno}: bad feature token {tok!r}") from None
            if not math.isfinite(val):
                raise ParseError(f"line {lineno}: feature value in {tok!r} is not finite")
            if idx < 1:
                raise ParseError(f"line {lineno}: feature index {idx} is not 1-based")
            if n_features is not None and idx > n_features:
                raise ParseError(
                    f"line {lineno}: feature index {idx} exceeds declared dimension {n_features}"
                )
            feats.append((idx - 1, val))
            max_feat = max(max_feat, idx)
        for lab in labels:
            if lab < 0:
                raise ParseError(f"line {lineno}: label id below the valid range")
            if n_labels is not None and lab >= n_labels:
                raise ParseError(
                    f"line {lineno}: label id exceeds declared label count {n_labels}"
                )
            max_label = max(max_label, lab)
        rows.append((labels, feats))
    d = n_features if n_features is not None else max_feat
    k = n_labels if n_labels is not None else max_label + 1
    if d < 1 or k < 1:
        raise ParseError("could not infer dimensions from empty input; declare them explicitly")
    X = np.zeros((len(rows), d))
    Y = np.zeros((len(rows), k))
    for i, (labels, feats) in enumerate(rows):
        for j, val in feats:
            X[i, j] = val
        for lab in labels:
            Y[i, lab] = 1.0
    return MultilabelDataset(X, Y)


def format_libsvm_multilabel(ds: MultilabelDataset, labels_one_based: bool = True) -> str:
    """Inverse of :func:`parse_libsvm_multilabel` (zeros are omitted)."""
    out = []
    offset = 1 if labels_one_based else 0
    for i in range(ds.n):
        labels = ",".join(str(j + offset) for j in np.flatnonzero(ds.Y[i]))
        feats = " ".join(f"{j + 1}:{ds.X[i, j]:.17g}" for j in np.flatnonzero(ds.X[i]))
        out.append((labels + " " + feats).strip() if feats else labels)
    return "\n".join(out) + "\n"


def split(ds: MultilabelDataset, fractions, seed: int) -> tuple[MultilabelDataset, ...]:
    """Seeded permutation split; one dataset per fraction, sizes rounded."""
    fractions = [float(f) for f in fractions]
    if not fractions or any(f <= 0 for f in fractions):
        raise ContractViolation("fractions must be positive")
    if sum(fractions) > 1.0 + 1e-9:
        raise ContractViolation("fractions must sum to at most 1")
    perm = rng_from_seed(seed).permutation(ds.n)
    bounds = np.round(np.cumsum(fractions) * ds.n).astype(int)
    parts = []
    start = 0
    for stop in bounds:
        parts.append(ds.subset(perm[start:stop]))
        start = stop
    return tuple(parts)


@dataclass
class Standardizer:
    """Per-feature affine transform fitted on the training split only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, ds: MultilabelDataset) -> "Standardizer":
        if ds.n == 0:
            raise ContractViolation("cannot standardize on an empty training set")
        mean = ds.X.mean(axis=0)
        std = ds.X.std(axis=0)
        # Constant columns get unit scale instead of a division blow-up.
        std = np.where(std < STD_FLOOR, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, ds: MultilabelDataset) -> MultilabelDataset:
        return MultilabelDataset((ds.X - self.mean) / self.std, ds.Y.copy())


def standardize(train: MultilabelDataset, *others: MultilabelDataset):
    """Fit on ``train``, apply everywhere; returns transformed sets + the fit."""
    st = Standardizer.fit(train)
    return (st.transform(train), *(st.transform(o) for o in others), st)


def planted_pairwise(
    n: int,
    d: int,
    k: int,
    seed: int,
    coupling: float = 4.0,
    unary_scale: float = 4.0,
    gamma: float = 1.0,
    return_truth: bool = False,
):
    """Synthetic multilabel data from a planted pairwise energy.

    Features are standard normal and a random linear map produces unary
    scores, so the score function itself is easy for any student. The labels
    are tied by an input-dependent rank-one negative semidefinite coupling
    ``-a(x) a(x)^T`` with ``a`` linear in ``x``, and each label is Bernoulli
    with the regularized-argmax marginal. The coupling multiplies feature
    projections into the marginals: a pairwise student absorbs the products
    with its coupling head, a unary-only score map has to approximate them
    with its hidden layer.
    """
    if n < 1 or d < 1 or k < 1:
        raise ContractViolation("n, d, k must be >= 1")
    if coupling < 0 or unary_scale < 0:
        raise ContractViolation(f"coupling and unary_scale must be >= 0, got {coupling} and {unary_scale}")
    rng = rng_from_seed(seed)
    X = rng.standard_normal((n, d))
    W = rng.standard_normal((k, d)) / math.sqrt(d)
    A = coupling * rng.standard_normal((k, d)) / math.sqrt(d)
    # one coordinate-ascent call solves all n rows
    a = np.matvec(A, X)
    P = coordinate_ascent_box_quadratic(
        unary_scale * np.matvec(W, X), -(a[:, :, None] * a[:, None, :]), gamma, SolverConfig(tol=1e-10)
    )[0]
    Y = (rng.uniform(size=(n, k)) < P).astype(float)
    ds = MultilabelDataset(X, Y)
    if return_truth:
        return ds, {"A": A, "W": W, "p_star": P, "unary_scale": unary_scale}
    return ds
