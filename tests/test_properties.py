"""Property tests of the loss invariants over random energies and regularizers.

For each drawn ``(energy, regularizer, v)`` and outputs ``y`` in the
regularizer's domain:

* the generalized loss ``Omega^Phi(v) + Omega(y) - Phi(v, y)`` is >= 0;
* it vanishes at the oracle's argmax ``y = p*``;
* the Fenchel-Young inequality holds: ``Omega^Phi(v) >= Phi(v, y) - Omega(y)``,
  with equality at ``p*``;
* the solve is exact: ``closed_form``, or ``converged`` for coordinate ascent.

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


@pytest.mark.parametrize("energy_cls", [LinearQuadraticEnergy, PairwiseEnergy])
def test_quadratic_energies_with_gini_take_coordinate_ascent(energy_cls, monkeypatch):
    # the linear-quadratic class used to fall through to projected ascent
    module = importlib.import_module("efy.conjugate")
    calls = []

    def spy(*args):
        calls.append(args)
        return coordinate_ascent_box_quadratic(*args)

    monkeypatch.setattr(module, "coordinate_ascent_box_quadratic", spy)
    A = -0.5 * np.array([[1.0, 0.5], [0.5, 1.0]])
    b = np.array([0.4, -0.2])
    v = LinQuadInput(A=A, b=b) if energy_cls is LinearQuadraticEnergy else PairwiseInput(u=b, U=A)
    res = conjugate(energy_cls(2), GiniBinary(1.0, 2), v, SOLVER)
    assert len(calls) == 1 and res.status == "converged"
    np.testing.assert_allclose(res.argmax, [8 / 15, 4 / 15], atol=1e-12)
