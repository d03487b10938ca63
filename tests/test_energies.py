import numpy as np
import pytest

from efy import (
    BilinearEnergy,
    ContractViolation,
    LinQuadInput,
    LinearQuadraticEnergy,
    LogSumExpEnergy,
    MaxoutEnergy,
    PairwiseEnergy,
    PairwiseInput,
    RectifierEnergy,
    SpenEnergy,
    conjugate,
    is_negative_semidefinite,
    lse,
    rel_err,
    rng_from_seed,
)
from efy.numerics import finite_diff_grad, row, stack, walk

from support import FAMILIES, pairwise_input, sample_instance


def grad_p_fd(energy, v, p):
    return finite_diff_grad(lambda q: energy.value(v, q), p)


def grad_v_fd(energy, v, p):
    vec = energy.input_to_vec(v)
    return finite_diff_grad(lambda w: energy.value(energy.vec_to_input(w), p), vec)


class TestValues:
    def test_bilinear_identity_dot(self):
        energy = BilinearEnergy(np.eye(2))
        assert energy.value([1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0)

    def test_linear_quadratic_scalar(self):
        energy = LinearQuadraticEnergy(1)
        v = LinQuadInput(A=np.array([[-1.0]]), b=np.array([1.0]))
        assert energy.value(v, [0.5]) == pytest.approx(0.375)

    def test_pairwise_hand_value(self):
        energy = PairwiseEnergy(2)
        v = PairwiseInput(u=np.array([1.0, 1.0]), U=-np.ones((2, 2)))
        assert energy.value(v, [1.0, 0.0]) == pytest.approx(0.5)

    def test_shape_mismatch_rejected(self):
        energy = BilinearEnergy(np.eye(2))
        with pytest.raises(ContractViolation):
            energy.value([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ContractViolation):
            PairwiseEnergy(2).value(pairwise_input(rng_from_seed(0), 2), [0.5])

    @pytest.mark.parametrize("cls", [BilinearEnergy, RectifierEnergy])
    def test_input_width_must_match_the_score_matrix(self, cls):
        energy = cls(np.ones((2, 3)))
        for v in (np.ones(3), np.ones((4, 3))):
            with pytest.raises(ContractViolation, match="input has 3 coordinates, the score matrix expects 2"):
                energy.value(v, np.full(3, 0.5))


class TestGradP:
    def test_bilinear_constant_in_p(self):
        energy = BilinearEnergy(np.arange(6.0).reshape(3, 2))
        v = np.array([1.0, -2.0, 0.5])
        g1 = energy.grad_p(v, np.zeros(2))
        g2 = energy.grad_p(v, np.ones(2))
        np.testing.assert_allclose(g1, g2)
        np.testing.assert_allclose(g1, energy.U.T @ v)

    def test_pairwise_matches_finite_differences(self):
        rng = rng_from_seed(1)
        energy = PairwiseEnergy(3)
        for _ in range(20):
            v = pairwise_input(rng, 3)
            p = rng.uniform(0.1, 0.9, size=3)
            assert rel_err(energy.grad_p(v, p), grad_p_fd(energy, v, p)) <= 1e-6

    def test_lse_net_linear_in_p(self):
        energy = LogSumExpEnergy(4, gamma=0.8)
        v = np.array([0.3, -1.0, 2.0, 0.0])
        np.testing.assert_allclose(energy.grad_p(v, [0.7]), [lse(v, 0.8)])

    def test_maxout_tie_breaks_to_lowest_index(self):
        energy = MaxoutEnergy(3)
        v = np.array([2.0, 2.0, 1.0])
        g = energy.grad_v(v, [0.7])
        np.testing.assert_allclose(g, [0.7, 0.0, 0.0])


class TestGradV:
    def test_linear_quadratic_blocks(self):
        energy = LinearQuadraticEnergy(2)
        p = np.array([0.3, -0.7])
        g = energy.grad_v(LinQuadInput(A=np.zeros((2, 2)), b=np.zeros(2)), p)
        np.testing.assert_allclose(g.b, p)
        np.testing.assert_allclose(g.A, 0.5 * np.outer(p, p))

    def test_bilinear_block(self):
        energy = BilinearEnergy(np.arange(6.0).reshape(3, 2))
        p = np.array([1.0, 2.0])
        np.testing.assert_allclose(energy.grad_v(np.zeros(3), p), energy.U @ p)

    def test_all_families_match_finite_differences(self):
        rng = rng_from_seed(8)
        for family in FAMILIES:
            for _ in range(20):
                energy, _, v, _ = sample_instance(family, rng)
                p = rng.uniform(0.05, 0.95, size=energy.k)
                if family == "spen":
                    # stay clear of relu kinks in the prior net
                    z = v.w.W1 @ p + v.w.b1
                    if np.any(np.abs(z) < 1e-3):
                        continue
                fd = grad_v_fd(energy, v, p)
                got = energy.input_to_vec(energy.grad_v(v, p))
                assert rel_err(got, fd) <= 1e-5, family

    def test_grad_p_matches_finite_differences(self):
        rng = rng_from_seed(9)
        for family in ("bilinear", "linear_quadratic", "pairwise", "rectifier", "lse_net"):
            for _ in range(20):
                energy, _, v, _ = sample_instance(family, rng)
                p = rng.uniform(0.05, 0.95, size=energy.k)
                assert rel_err(energy.grad_p(v, p), grad_p_fd(energy, v, p)) <= 1e-5, family

    def test_spen_grad_p_matches_finite_differences(self):
        rng = rng_from_seed(10)
        energy = SpenEnergy(3, hidden=2, concave=True)
        done = 0
        while done < 20:
            v = energy.random_input(rng)
            p = rng.uniform(0.05, 0.95, size=3)
            if np.any(np.abs(v.w.W1 @ p + v.w.b1) < 1e-3):
                continue
            assert rel_err(energy.grad_p(v, p), grad_p_fd(energy, v, p)) <= 1e-5
            done += 1


class TestStructureTags:
    def test_concave_in_p_chords(self):
        rng = rng_from_seed(30)
        cases = []
        for _ in range(10):
            e = PairwiseEnergy(3)
            cases.append((e, pairwise_input(rng, 3)))
            lq = LinearQuadraticEnergy(3)
            cases.append((lq, lq.random_input(rng)))
            sp = SpenEnergy(3, hidden=2, concave=True)
            cases.append((sp, sp.random_input(rng)))
        for energy, v in cases:
            assert energy.p_structure in ("quadratic_concave", "concave")
            for _ in range(30):
                p1 = rng.uniform(0, 1, size=3)
                p2 = rng.uniform(0, 1, size=3)
                mid = energy.value(v, 0.5 * (p1 + p2))
                avg = 0.5 * (energy.value(v, p1) + energy.value(v, p2))
                assert mid >= avg - 1e-9

    def test_convex_in_v_chords_with_nonnegative_output(self):
        rng = rng_from_seed(31)
        cases = [
            RectifierEnergy(rng.uniform(0.0, 1.0, size=(4, 2))),
            MaxoutEnergy(4),
            LogSumExpEnergy(4, gamma=0.5),
        ]
        for energy in cases:
            assert energy.v_structure == "convex"
            p = rng.uniform(0.0, 1.0, size=energy.k)
            for _ in range(100):
                v1 = rng.standard_normal(4)
                v2 = rng.standard_normal(4)
                mid = energy.value(0.5 * (v1 + v2), p)
                avg = 0.5 * (energy.value(v1, p) + energy.value(v2, p))
                assert mid <= avg + 1e-9

    def test_linear_in_v_energies_are_exact_on_midpoints(self):
        rng = rng_from_seed(32)
        energy = PairwiseEnergy(2)
        p = rng.uniform(0, 1, size=2)
        v1, v2 = pairwise_input(rng, 2), pairwise_input(rng, 2)
        mid = PairwiseInput(u=0.5 * (v1.u + v2.u), U=0.5 * (v1.U + v2.U))
        assert energy.value(mid, p) == pytest.approx(
            0.5 * (energy.value(v1, p) + energy.value(v2, p)), abs=1e-12
        )

    def test_spen_plain_variant_is_tagged_nonconcave(self):
        assert SpenEnergy(2, hidden=2, concave=False).p_structure == "nonconcave"
        assert SpenEnergy(2, hidden=2, concave=True).p_structure == "concave"


class TestConstructionContracts:
    def test_rectifier_rejects_negative_entries(self):
        with pytest.raises(ContractViolation):
            RectifierEnergy(np.array([[1.0, -0.1], [0.2, 0.3]]))

    def test_pairwise_random_inputs_are_nsd(self):
        rng = rng_from_seed(33)
        energy = PairwiseEnergy(4)
        for _ in range(50):
            v = energy.random_input(rng)
            assert is_negative_semidefinite(v.U)

    def test_linear_quadratic_smoothness_is_spectral(self):
        # the joint Hessian in (b, p) is [[0, I], [I, sym(A)]]
        A = np.array([[-1.0, 0.0], [0.0, -3.0]])
        H = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), A]])
        expect = float(np.max(np.abs(np.linalg.eigvalsh(H))))
        assert LinearQuadraticEnergy.joint_smoothness(A) == pytest.approx(expect)

    def test_input_vec_round_trip(self):
        rng = rng_from_seed(34)
        for family in FAMILIES:
            energy, _, v, _ = sample_instance(family, rng)
            vec = energy.input_to_vec(v)
            back = energy.input_to_vec(energy.vec_to_input(vec))
            np.testing.assert_array_equal(vec, back)

    def test_input_arithmetic(self):
        rng = rng_from_seed(35)
        energy = PairwiseEnergy(2)
        a, b = pairwise_input(rng, 2), pairwise_input(rng, 2)
        s = a + (-1.0) * b
        np.testing.assert_allclose(
            energy.input_to_vec(s), energy.input_to_vec(a) - energy.input_to_vec(b)
        )


def assert_same_tree(got, want):
    for (name, a), (other, b) in zip(walk(got), walk(want), strict=True):
        assert name == other and np.array_equal(a, b), name


class TestRows:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_stack_answers_as_each_row_alone(self, family):
        rng = rng_from_seed(31)
        energy, reg, v, _ = sample_instance(family, rng)
        vs = [v, energy.random_input(rng), energy.random_input(rng)]
        ps = [rng.uniform(0.05, 0.95, size=energy.k) for _ in vs]
        V, P = stack(vs), np.stack(ps)
        value, grad_p, grad_v = energy.value(V, P), energy.grad_p(V, P), energy.grad_v(V, P)
        res = conjugate(energy, reg, V)
        for i, (v, p) in enumerate(zip(vs, ps)):
            assert value[i] == energy.value(v, p)
            np.testing.assert_array_equal(grad_p[i], energy.grad_p(v, p))
            assert_same_tree(row(grad_v, i), energy.grad_v(v, p))
            alone = conjugate(energy, reg, v)
            assert res.value[i] == alone.value
            np.testing.assert_array_equal(res.argmax[i], alone.argmax)
            assert_same_tree(row(res.envelope_grad, i), alone.envelope_grad)
