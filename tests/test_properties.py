"""Property tests of the loss invariants over random energies and regularizers.

For each drawn ``(energy, regularizer, v)`` and outputs ``y`` in the
regularizer's domain:

* the generalized loss ``Omega^Phi(v) + Omega(y) - Phi(v, y)`` is >= 0;
* it vanishes at the oracle's argmax ``y = p*``;
* the Fenchel-Young inequality holds: ``Omega^Phi(v) >= Phi(v, y) - Omega(y)``,
  with equality at ``p*``;
* the solve is exact: ``closed_form``, or ``converged`` for coordinate ascent.

Coordinate ascent on a batch, in any row order and with a cap that stops
some rows early, gives each row bit for bit its own solve and reports the
rows' largest sweep count, largest final move and least exact status.

Quadratic energies (both classes, negative semidefinite ``A``) are paired
with the two regularizers they have an exact solve for; linear energies with
every regularizer that has a closed-form argmax map.
"""
import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from efy import (
    BilinearEnergy,
    GiniBinary,
    Indicator,
    LinQuadInput,
    LinearQuadraticEnergy,
    LogSumExpEnergy,
    MaxoutEnergy,
    PairwiseEnergy,
    PairwiseInput,
    RectifierEnergy,
    ShannonBinary,
    ShannonSimplex,
    SolverConfig,
    SquaredL2,
    box01,
    conjugate,
    coordinate_ascent_box_quadratic,
    gfy_loss,
    reals,
    simplex,
)

from efy.conjugate import batch_status

PROPERTY_SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)
# coordinate ascent stops when no coordinate moves more than tol in a sweep
SOLVER = SolverConfig(tol=1e-12)
N_OUTPUTS = 3

GAMMAS = st.floats(0.1, 5.0)
ENTRIES = st.floats(-3.0, 3.0)
UNIT = st.floats(0.0, 1.0)


def matrices(rows, cols):
    return arrays(float, (rows, cols), elements=ENTRIES)


def outputs_in(domain, raw: np.ndarray) -> list[np.ndarray]:
    """Map rows of ``raw`` (entries in [0, 1]) into ``domain``."""
    if domain.kind == "reals":
        return list(6.0 * (raw - 0.5))
    if domain.kind == "simplex":
        return list((raw + 1e-3) / np.sum(raw + 1e-3, axis=1, keepdims=True))
    return list(raw)


def check_invariants(energy, reg, v, ys, exact_status):
    res = conjugate(energy, reg, v, SOLVER)
    assert res.status == exact_status
    p = res.argmax
    assert reg.domain.contains(p)

    def tol(*terms):
        return 1e-9 * (1.0 + sum(abs(t) for t in terms))

    phi, omega = energy.value(v, p), reg.value(p)
    assert abs(res.value - (phi - omega)) <= tol(res.value, phi, omega)
    assert abs(gfy_loss(energy, reg, v, p, SOLVER).value) <= tol(res.value, phi, omega)
    for y in ys:
        phi, omega = energy.value(v, y), reg.value(y)
        assert res.value >= phi - omega - tol(res.value, phi, omega)
        assert gfy_loss(energy, reg, v, y, SOLVER).value >= -tol(res.value, phi, omega)


@st.composite
def quadratic_cases(draw):
    k = draw(st.integers(1, 4))
    g = draw(matrices(k, k))
    A = -(g @ g.T) / k
    b = draw(arrays(float, k, elements=ENTRIES))
    if draw(st.booleans()):
        energy, v = LinearQuadraticEnergy(k), LinQuadInput(A=A, b=b)
    else:
        energy, v = PairwiseEnergy(k), PairwiseInput(u=b, U=A)
    gamma = draw(GAMMAS)
    reg = SquaredL2(gamma, reals(k)) if draw(st.booleans()) else GiniBinary(gamma, k)
    raw = draw(arrays(float, (N_OUTPUTS, k), elements=UNIT))
    return energy, reg, v, outputs_in(reg.domain, raw)


@PROPERTY_SETTINGS
@given(case=quadratic_cases())
def test_quadratic_energies(case):
    energy, reg, v, ys = case
    exact = "closed_form" if reg.kind == "squared_l2" else "converged"
    check_invariants(energy, reg, v, ys, exact)


@st.composite
def linear_cases(draw):
    family = draw(st.sampled_from(["bilinear", "rectifier", "maxout", "lse_net"]))
    d = draw(st.integers(1, 4))
    if family in ("bilinear", "rectifier"):
        k = draw(st.integers(1, 4))
        U = draw(matrices(d, k))
        energy = BilinearEnergy(U) if family == "bilinear" else RectifierEnergy(np.abs(U))
    elif family == "maxout":
        k, energy = 1, MaxoutEnergy(d)
    else:
        k, energy = 1, LogSumExpEnergy(d, gamma=draw(GAMMAS))
    v = draw(arrays(float, d, elements=ENTRIES))
    gamma = draw(GAMMAS)
    reg = draw(
        st.sampled_from(
            [
                SquaredL2(gamma, reals(k)),
                SquaredL2(gamma, box01(k)),
                SquaredL2(gamma, simplex(k)),
                ShannonBinary(gamma, k),
                GiniBinary(gamma, k),
                ShannonSimplex(gamma, k),
                Indicator(box01(k)),
            ]
        )
    )
    raw = draw(arrays(float, (N_OUTPUTS, k), elements=UNIT))
    return energy, reg, v, outputs_in(reg.domain, raw)


@PROPERTY_SETTINGS
@given(case=linear_cases())
def test_linear_energies(case):
    energy, reg, v, ys = case
    check_invariants(energy, reg, v, ys, "closed_form")


@pytest.mark.parametrize(
    "energy_cls, batched",
    [
        pytest.param(LinearQuadraticEnergy, False, id="LinearQuadraticEnergy"),
        pytest.param(PairwiseEnergy, False, id="PairwiseEnergy"),
        pytest.param(PairwiseEnergy, True, id="PairwiseEnergy-batch"),
    ],
)
def test_quadratic_energies_with_gini_take_coordinate_ascent(energy_cls, batched, monkeypatch):
    # the linear-quadratic class used to fall through to projected ascent;
    # a batch of rows takes one coordinate-ascent call, not one per row
    module = importlib.import_module("efy.conjugate")
    calls = []

    def spy(*args):
        calls.append(args)
        return coordinate_ascent_box_quadratic(*args)

    monkeypatch.setattr(module, "coordinate_ascent_box_quadratic", spy)
    A = -0.5 * np.array([[1.0, 0.5], [0.5, 1.0]])
    b = np.array([0.4, -0.2])
    v = LinQuadInput(A=A, b=b) if energy_cls is LinearQuadraticEnergy else PairwiseInput(u=b, U=A)
    expected = [8 / 15, 4 / 15]
    if batched:  # the same row, and its mirror image
        v, expected = PairwiseInput(u=np.stack([b, b[::-1]]), U=np.stack([A, A])), [expected, expected[::-1]]
    res = conjugate(energy_cls(2), GiniBinary(1.0, 2), v, SOLVER)
    assert len(calls) == 1 and res.status == "converged"
    np.testing.assert_allclose(res.argmax, expected, atol=1e-12)


@st.composite
def coordinate_ascent_batches(draw):
    # rank-one couplings -a a^T, as the pairwise model emits, and general NSD
    # ones -g g^T; tol sits below what a few sweeps reach, so some rows cap
    k, rows = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    u, U = np.empty((rows, k)), np.empty((rows, k, k))
    for i in range(rows):
        u[i] = draw(arrays(float, k, elements=ENTRIES))
        if draw(st.booleans()):
            a = draw(arrays(float, k, elements=ENTRIES))
            U[i] = -np.outer(a, a)
        else:
            g = draw(matrices(k, k))
            U[i] = -(g @ g.T) / k
    cfg = SolverConfig(tol=1e-12, max_iters=draw(st.integers(1, 30)))
    return u, U, draw(GAMMAS), cfg, draw(st.permutations(range(rows)))


@PROPERTY_SETTINGS
@given(case=coordinate_ascent_batches())
def test_coordinate_ascent_batch_rows_are_their_own_solves(case):
    u, U, gamma, cfg, order = case
    singles = [coordinate_ascent_box_quadratic(u[i], U[i], gamma, cfg) for i in range(len(u))]
    for rows in (list(range(len(u))), list(order)):
        P, status, sweeps, gap = coordinate_ascent_box_quadratic(u[rows], U[rows], gamma, cfg)
        assert P.shape == u.shape
        for p, i in zip(P, rows):
            assert p.tobytes() == singles[i][0].tobytes()
        assert status == batch_status([s[1] for s in singles])
        assert sweeps == max(s[2] for s in singles)
        assert gap == max(s[3] for s in singles)
