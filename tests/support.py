"""Shared samplers and brute-force oracles for the test suite.

The grid maximizers here are deliberately naive: they are the independent
reference implementations the fast paths are checked against.
"""
from __future__ import annotations

import itertools

import numpy as np

from efy import (
    BilinearEnergy,
    LinQuadInput,
    LinearQuadraticEnergy,
    LogSumExpEnergy,
    MaxoutEnergy,
    PairwiseEnergy,
    PairwiseInput,
    RectifierEnergy,
    SpenEnergy,
    box01,
    make_regularizer,
    reals,
)


def box_grid(k: int, step: float = 1e-3) -> np.ndarray:
    """All points of a uniform grid over [0,1]^k. Only sane for k <= 2."""
    axis = np.arange(0.0, 1.0 + step / 2, step)
    if k == 1:
        return axis.reshape(-1, 1)
    return np.array(list(itertools.product(axis, repeat=k)))


def simplex_grid(step: float = 1e-3) -> np.ndarray:
    """Grid over the 2-simplex: points (t, 1-t)."""
    t = np.arange(0.0, 1.0 + step / 2, step)
    return np.column_stack([t, 1.0 - t])


def brute_force_max(objective, grid: np.ndarray) -> tuple[float, np.ndarray]:
    """Exhaustive maximizer of a scalar objective over grid rows."""
    vals = np.array([objective(p) for p in grid])
    i = int(np.argmax(vals))
    return float(vals[i]), grid[i].copy()


def reg_values_on_grid(kind: str, gamma: float, P: np.ndarray) -> np.ndarray:
    """Vectorized, independently-coded regularizer values for grid oracles."""
    from scipy.special import xlogy

    if kind == "squared_l2":
        return 0.5 * gamma * np.sum(P * P, axis=1)
    if kind == "gini_binary":
        return gamma * np.sum(P * P - P, axis=1)
    if kind == "shannon_binary":
        return gamma * np.sum(xlogy(P, P) + xlogy(1.0 - P, 1.0 - P), axis=1)
    if kind == "shannon_simplex":
        return gamma * np.sum(xlogy(P, P), axis=1)
    raise ValueError(kind)


def grid_conjugate_linear(u: np.ndarray, kind: str, gamma: float, grid: np.ndarray) -> tuple[float, np.ndarray]:
    """Brute-force ``max_p <u,p> - Omega(p)`` over grid rows, vectorized."""
    vals = grid @ u - reg_values_on_grid(kind, gamma, grid)
    i = int(np.argmax(vals))
    return float(vals[i]), grid[i].copy()


def grid_conjugate_pairwise(u: np.ndarray, U: np.ndarray, gamma: float, grid: np.ndarray) -> tuple[float, np.ndarray]:
    """Brute-force pairwise+gini objective over grid rows, vectorized."""
    quad = 0.5 * np.einsum("ni,ij,nj->n", grid, 0.5 * (U + U.T), grid)
    vals = grid @ u + quad - reg_values_on_grid("gini_binary", gamma, grid)
    i = int(np.argmax(vals))
    return float(vals[i]), grid[i].copy()


def random_nsd(rng: np.random.Generator, k: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((k, k))
    return -scale * (g @ g.T) / k


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


def feasible_linquad(rng: np.random.Generator, k: int, gamma: float) -> LinQuadInput:
    """Random (A, b) with gamma*I - A comfortably positive definite.

    A is symmetric and may be indefinite; its top eigenvalue is rescaled
    below gamma so the paired quadratic solve stays feasible.
    """
    g = rng.standard_normal((k, k))
    A = 0.5 * (g + g.T)
    top = float(np.linalg.eigvalsh(A)[-1])
    if top > 0.7 * gamma:
        A = A * (0.7 * gamma / top)
    return LinQuadInput(A=A, b=rng.standard_normal(k))


def pairwise_input(rng: np.random.Generator, k: int, scale: float = 1.0) -> PairwiseInput:
    return PairwiseInput(u=rng.standard_normal(k), U=random_nsd(rng, k, scale))


def margin_uniform(rng: np.random.Generator, k: int, lo: float = 0.05, hi: float = 0.95) -> np.ndarray:
    """Interior box points, clear of the {0,1} boundary."""
    return rng.uniform(lo, hi, size=k)


def sample_instance(family: str, rng: np.random.Generator, k: int = 3, d: int = 4):
    """One (energy, regularizer, v, y) tuple per family, kink-safe.

    Margins keep finite differences away from relu kinks, maxout ties and
    hard-sigmoid clip corners; see the per-family notes.
    """
    if family == "bilinear":
        energy = BilinearEnergy(rng.standard_normal((d, k)))
        reg = make_regularizer("squared_l2", k, gamma=1.0, domain=reals(k))
        return energy, reg, rng.standard_normal(d), rng.standard_normal(k)
    if family == "bilinear_box":
        energy = BilinearEnergy(rng.standard_normal((d, k)))
        reg = make_regularizer("gini_binary", k, gamma=1.0)
        # keep the hard-sigmoid argument away from its clip corners
        while True:
            v = rng.standard_normal(d)
            t = (energy.U.T @ v + 1.0) / 2.0
            if np.all(np.minimum(np.abs(t), np.abs(t - 1.0)) > 1e-3):
                break
        return energy, reg, v, margin_uniform(rng, k)
    if family == "linear_quadratic":
        energy = LinearQuadraticEnergy(k)
        reg = make_regularizer("squared_l2", k, gamma=1.0, domain=reals(k))
        return energy, reg, feasible_linquad(rng, k, 1.0), rng.standard_normal(k)
    if family == "pairwise":
        energy = PairwiseEnergy(k)
        reg = make_regularizer("gini_binary", k, gamma=1.0)
        return energy, reg, pairwise_input(rng, k), margin_uniform(rng, k)
    if family == "rectifier":
        energy = RectifierEnergy(rng.uniform(0.1, 1.0, size=(d, k)))
        reg = make_regularizer("gini_binary", k, gamma=1.0)
        v = rng.standard_normal(d)
        v[np.abs(v) < 1e-2] = 1e-2
        return energy, reg, v, margin_uniform(rng, k)
    if family == "maxout":
        energy = MaxoutEnergy(d)
        reg = make_regularizer("gini_binary", 1, gamma=1.0)
        v = rng.standard_normal(d)
        v[int(np.argmax(v))] += 0.5  # unique max, clear of ties
        return energy, reg, v, margin_uniform(rng, 1)
    if family == "lse_net":
        energy = LogSumExpEnergy(d, gamma=1.0)
        reg = make_regularizer("gini_binary", 1, gamma=1.0)
        return energy, reg, rng.standard_normal(d), margin_uniform(rng, 1)
    if family == "spen":
        energy = SpenEnergy(k, hidden=2, concave=True)
        reg = make_regularizer("squared_l2", k, gamma=1.0, domain=box01(k))
        return energy, reg, energy.random_input(rng), margin_uniform(rng, k)
    raise ValueError(f"unknown family {family!r}")


FAMILIES = ("bilinear", "linear_quadratic", "pairwise", "rectifier", "maxout", "lse_net", "spen")


def rewrite_params_header(path, edit) -> None:
    """Apply ``edit`` to the JSON header of a params file, keeping its payload."""
    import json

    raw = path.read_bytes()
    nl = raw.find(b"\n")
    header = json.loads(raw[:nl])
    edit(header)
    path.write_bytes(json.dumps(header).encode("utf-8") + raw[nl:])
