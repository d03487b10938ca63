"""Property tests of the loss invariants over random energies and regularizers.

For each drawn ``(energy, regularizer, v)`` and outputs ``y`` in the
regularizer's domain:

* the generalized loss ``Omega^Phi(v) + Omega(y) - Phi(v, y)`` is >= 0;
* it vanishes at the oracle's argmax ``y = p*``;
* the Fenchel-Young inequality holds: ``Omega^Phi(v) >= Phi(v, y) - Omega(y)``,
  with equality at ``p*``;
* the solve is exact: ``closed_form``, or ``converged`` for coordinate ascent.

Coordinate ascent and projected ascent on a batch, in any row order and with
a cap that stops some rows early, give each row bit for bit its own solve and
report the rows' largest iteration count, largest gap and least exact status.

Quadratic energies (both classes, negative semidefinite ``A``) are paired
with the two regularizers they have an exact solve for; linear energies with
every regularizer that has a closed-form argmax map.
"""
import importlib

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from efy import (
    BilinearEnergy,
    EfyError,
    GiniBinary,
    Indicator,
    LinQuadInput,
    LinearQuadraticEnergy,
    LogSumExpEnergy,
    MaxoutEnergy,
    PairwiseEnergy,
    PairwiseInput,
    PriorWeights,
    RectifierEnergy,
    ShannonBinary,
    ShannonSimplex,
    SolverConfig,
    SpenEnergy,
    SpenInput,
    SquaredL2,
    box01,
    conjugate,
    coordinate_ascent_box_quadratic,
    gfy_loss,
    projected_gradient_ascent,
    reals,
    simplex,
)

from efy.conjugate import batch_status
from efy.numerics import stack

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


@pytest.mark.parametrize("family", ["pairwise", "spen"])
def test_a_batch_takes_one_projected_ascent_call(family, monkeypatch):
    # the perceptron's pair and spen's: every row of the batch in one solve
    module = importlib.import_module("efy.conjugate")
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return projected_gradient_ascent(*args, **kwargs)

    monkeypatch.setattr(module, "projected_gradient_ascent", spy)
    rng = np.random.default_rng(3)
    if family == "pairwise":
        energy, reg = PairwiseEnergy(3), Indicator(box01(3))
    else:
        energy, reg = SpenEnergy(3, hidden=2), GiniBinary(0.5, 3)
    V = stack([energy.random_input(rng) for _ in range(4)])
    res = conjugate(energy, reg, V, SolverConfig(max_iters=50))
    assert len(calls) == 1 and res.argmax.shape == (4, 3)


def nsd_couplings(draw, k):
    # a rank-one coupling -a a^T, as the pairwise model emits, or a general -g g^T
    if draw(st.booleans()):
        a = draw(arrays(float, k, elements=ENTRIES))
        return -np.outer(a, a)
    g = draw(matrices(k, k))
    return -(g @ g.T) / k


@st.composite
def coordinate_ascent_batches(draw):
    # tol sits below what a few sweeps reach, so some rows cap
    k, rows = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    u, U = np.empty((rows, k)), np.empty((rows, k, k))
    for i in range(rows):
        u[i] = draw(arrays(float, k, elements=ENTRIES))
        U[i] = nsd_couplings(draw, k)
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


@st.composite
def projected_ascent_batches(draw):
    # the pairs that take projected ascent in training and analysis, with caps
    # that stop some rows early; a row whose gradient is flipped climbs downhill,
    # so no trial step passes and it stalls (no energy here stalls on its own)
    family = draw(st.sampled_from(["pairwise", "spen", "spen_nonconcave", "linear_quadratic"]))
    k, rows, gamma = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(GAMMAS)
    if family.startswith("spen"):
        hidden = draw(st.integers(1, 3))
        energy, reg = SpenEnergy(k, hidden, concave=family == "spen"), GiniBinary(gamma, k)
    else:
        energy = PairwiseEnergy(k) if family == "pairwise" else LinearQuadraticEnergy(k)
        reg = Indicator(box01(k)) if family == "pairwise" else ShannonBinary(gamma, k)
    singles = []
    for _ in range(rows):
        u = draw(arrays(float, k, elements=ENTRIES))
        if family == "pairwise":
            singles.append(PairwiseInput(u=u, U=nsd_couplings(draw, k)))
        elif family == "linear_quadratic":
            singles.append(LinQuadInput(A=nsd_couplings(draw, k), b=u))
        else:
            W1, b1, W2 = (draw(arrays(float, shape, elements=ENTRIES)) for shape in ((hidden, k), hidden, hidden))
            singles.append(SpenInput(u=u, w=PriorWeights(W1=W1, b1=b1, W2=W2, b2=draw(ENTRIES))))
    tol, init_step = draw(st.sampled_from([1e-6, 1e-13])), draw(st.sampled_from([1.0, 0.05]))
    cfg = SolverConfig(tol=tol, max_iters=draw(st.integers(1, 30)), init_step=init_step)
    flipped = draw(arrays(bool, rows))
    return energy, reg, singles, flipped, cfg, draw(st.permutations(range(rows)))


def attempt(solve, *args):
    try:
        return solve(*args)
    except EfyError as exc:  # e.g. a Shannon step that lands on the box's boundary
        return exc


def by_ascent(energy, reg, v, flipped, cfg):
    # the solver on the conjugate's objective, a flipped row's gradient negated
    sign = np.where(flipped, -1.0, 1.0)[..., None]
    return projected_gradient_ascent(
        lambda p: energy.value(v, p) - reg.value(p), lambda p: sign * (energy.grad_p(v, p) - reg.grad(p)), reg.domain, cfg
    )


def by_conjugate(energy, reg, v, flipped, cfg):
    # the oracle, with its own gradient; it names a nonconcave energy's rows local_only
    res = conjugate(energy, reg, v, cfg)
    return res.argmax, res.status, res.iters, res.gap


@PROPERTY_SETTINGS
@given(case=projected_ascent_batches())
def test_projected_ascent_batch_rows_are_their_own_solves(case):
    energy, reg, singles, flipped, cfg, order = case
    for solve in (by_ascent, by_conjugate):
        alone = [attempt(solve, energy, reg, v, flipped[i], cfg) for i, v in enumerate(singles)]
        failed = {type(r) for r in alone if isinstance(r, EfyError)}
        event(f"{solve.__name__}, {energy.kind} {energy.p_structure}: {failed or batch_status([r[1] for r in alone])}")
        for rows in (list(range(len(singles))), list(order)):
            got = attempt(solve, energy, reg, stack([singles[i] for i in rows]), flipped[rows], cfg)
            if failed:  # a row whose own solve fails fails its batch
                assert type(got) in failed
                continue
            P, status, iters, gap = got
            assert P.shape == (len(rows), energy.k)
            for p, i in zip(P, rows):
                assert p.tobytes() == alone[i][0].tobytes()
            assert status == batch_status([r[1] for r in alone])
            assert iters == max(r[2] for r in alone)
            assert gap == max(r[3] for r in alone)
