import numpy as np
import pytest

from efy import (
    BilinearEnergy,
    ContractViolation,
    GiniBinary,
    LinQuadInput,
    LinearQuadraticEnergy,
    PairwiseEnergy,
    PairwiseInput,
    ShannonSimplex,
    SolverConfig,
    SquaredL2,
    biconjugate,
    box,
    box01,
    energy_loss,
    fy_loss,
    generalized_bregman,
    gfy_loss,
    input_grad_finite_diff,
    linearized_upper_bound,
    perceptron_loss,
    reals,
    restrict,
    rng_from_seed,
    xent_loss,
)

from efy.numerics import row, stack

from support import (
    FAMILIES,
    box_grid,
    grid_conjugate_pairwise,
    margin_uniform,
    pairwise_input,
    random_nsd,
    sample_instance,
)

TIGHT = SolverConfig(tol=1e-8)


def interior_simplex(rng, k):
    while True:
        p = rng.dirichlet(np.full(k, 2.0))
        if p.min() >= 1e-3:
            return p


class TestGfyLoss:
    def test_identity_bilinear_is_half_squared_distance(self):
        energy = BilinearEnergy(np.eye(2))
        reg = SquaredL2(1.0, reals(2))
        out = gfy_loss(energy, reg, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert out.value == pytest.approx(0.5)
        rng = rng_from_seed(0)
        for _ in range(20):
            v, y = rng.standard_normal(2), rng.standard_normal(2)
            got = gfy_loss(energy, reg, v, y)
            assert got.value == pytest.approx(0.5 * float(np.sum((v - y) ** 2)))
            np.testing.assert_allclose(got.grad_v, v - y, atol=1e-12)

    def test_classical_special_case_agrees(self):
        rng = rng_from_seed(1)
        reg = GiniBinary(0.8, 3)
        energy = BilinearEnergy(np.eye(3))
        for _ in range(20):
            u = rng.standard_normal(3)
            y = rng.uniform(0, 1, size=3)
            assert fy_loss(reg, u, y) == pytest.approx(gfy_loss(energy, reg, u, y).value)

    def test_zero_exactly_at_argmax(self):
        rng = rng_from_seed(2)
        for family in FAMILIES:
            for _ in range(20):
                energy, reg, v, _ = sample_instance(family, rng)
                res_argmax = gfy_loss(energy, reg, v, np.zeros(energy.k), TIGHT).conjugate.argmax
                out = gfy_loss(energy, reg, v, res_argmax, TIGHT)
                assert abs(out.value) <= 1e-8, family

    def test_value_identity_and_nonnegativity(self):
        rng = rng_from_seed(3)
        for family in FAMILIES:
            for _ in range(100):
                energy, reg, v, y = sample_instance(family, rng)
                out = gfy_loss(energy, reg, v, y, TIGHT)
                assert out.value >= -1e-9
                direct = out.conjugate.value + reg.value(y) - energy.value(v, y)
                assert abs(out.value - direct) <= 1e-10 * (1.0 + abs(direct))

    def test_pairwise_value_against_grid_oracle(self):
        rng = rng_from_seed(4)
        grid = box_grid(2, 1e-3)
        energy = PairwiseEnergy(2)
        for _ in range(10):
            v = pairwise_input(rng, 2)
            gamma = float(rng.uniform(0.5, 2.0))
            reg = GiniBinary(gamma, 2)
            y = rng.uniform(0, 1, size=2)
            conj_grid, _ = grid_conjugate_pairwise(v.u, v.U, gamma, grid)
            expected = conj_grid + reg.value(y) - energy.value(v, y)
            assert gfy_loss(energy, reg, v, y, TIGHT).value == pytest.approx(expected, abs=1e-3)

    def test_target_outside_domain_rejected(self):
        energy = PairwiseEnergy(2)
        reg = GiniBinary(1.0, 2)
        v = PairwiseInput(u=np.zeros(2), U=np.zeros((2, 2)))
        with pytest.raises(ContractViolation):
            gfy_loss(energy, reg, v, np.array([1.5, 0.0]))
        with pytest.raises(ContractViolation):
            fy_loss(reg, np.zeros(2), np.array([-0.1, 0.5]))

    def test_quadratic_lower_bound(self):
        # overall strong concavity of the inner problem is at least that of the
        # regularizer: gini contributes 2*gamma, the NSD coupling only adds
        rng = rng_from_seed(5)
        energy_id = BilinearEnergy(np.eye(2))
        reg_id = SquaredL2(1.0, reals(2))
        for _ in range(100):
            v = rng.standard_normal(2)
            y = v + rng.standard_normal(2)
            lhs = 0.5 * reg_id.gamma * float(np.sum((y - v) ** 2))
            assert lhs <= gfy_loss(energy_id, reg_id, v, y).value + 1e-8
        energy = PairwiseEnergy(2)
        for _ in range(100):
            gamma = float(rng.uniform(0.5, 2.0))
            reg = GiniBinary(gamma, 2)
            v = pairwise_input(rng, 2)
            y = rng.uniform(0, 1, size=2)
            out = gfy_loss(energy, reg, v, y, TIGHT)
            lhs = 0.5 * (2.0 * gamma) * float(np.sum((y - out.conjugate.argmax) ** 2))
            assert lhs <= out.value + 1e-8

    def test_lipschitz_upper_bound_along_segment(self):
        # mean value theorem: the loss gap to zero at p* is bounded by the
        # largest gradient norm in p on the segment between y and the argmax
        rng = rng_from_seed(6)
        energy = PairwiseEnergy(2)
        for _ in range(100):
            gamma = float(rng.uniform(0.5, 2.0))
            reg = GiniBinary(gamma, 2)
            v = pairwise_input(rng, 2)
            y = rng.uniform(0, 1, size=2)
            out = gfy_loss(energy, reg, v, y, TIGHT)
            p_star = out.conjugate.argmax
            ts = np.linspace(0.0, 1.0, 50)
            alpha = max(
                float(np.linalg.norm(reg.grad(p) - energy.grad_p(v, p)))
                for p in (y + t * (p_star - y) for t in ts)
            )
            assert out.value <= 1.02 * alpha * float(np.linalg.norm(y - p_star)) + 1e-6

    def test_smaller_output_set_smaller_loss(self):
        rng = rng_from_seed(7)
        energy = PairwiseEnergy(2)
        sub = box(np.full(2, 0.2), np.full(2, 0.8))
        for _ in range(50):
            gamma = float(rng.uniform(0.5, 2.0))
            big = GiniBinary(gamma, 2)
            small = restrict(big, sub)
            v = pairwise_input(rng, 2)
            y = rng.uniform(0.25, 0.75, size=2)
            l_small = gfy_loss(energy, small, v, y, TIGHT).value
            l_big = gfy_loss(energy, big, v, y, TIGHT).value
            assert l_small <= l_big + 1e-8

    def test_convexity_in_v_midpoints(self):
        rng = rng_from_seed(8)
        bil = BilinearEnergy(rng.standard_normal((3, 2)))
        reg_b = GiniBinary(1.0, 2)
        for _ in range(50):
            v1, v2 = rng.standard_normal(3), rng.standard_normal(3)
            y = rng.uniform(0, 1, size=2)
            mid = gfy_loss(bil, reg_b, 0.5 * (v1 + v2), y).value
            avg = 0.5 * (gfy_loss(bil, reg_b, v1, y).value + gfy_loss(bil, reg_b, v2, y).value)
            assert mid <= avg + 1e-8
        pw = PairwiseEnergy(2)
        for _ in range(50):
            v1, v2 = pairwise_input(rng, 2), pairwise_input(rng, 2)
            y = rng.uniform(0, 1, size=2)
            mid_v = PairwiseInput(u=0.5 * (v1.u + v2.u), U=0.5 * (v1.U + v2.U))
            mid = gfy_loss(pw, reg_b, mid_v, y, TIGHT).value
            avg = 0.5 * (gfy_loss(pw, reg_b, v1, y, TIGHT).value + gfy_loss(pw, reg_b, v2, y, TIGHT).value)
            assert mid <= avg + 1e-8

    def test_input_gradient_matches_finite_differences(self):
        rng = rng_from_seed(9)
        closed = ("bilinear", "bilinear_box", "linear_quadratic", "rectifier", "maxout", "lse_net")
        for family in FAMILIES + ("bilinear_box",):
            tol = 1e-5 if family in closed else 1e-4
            for _ in range(5):
                energy, reg, v, y = sample_instance(family, rng)
                out = gfy_loss(energy, reg, v, y, TIGHT)
                fd = input_grad_finite_diff(
                    energy, v, lambda vv: gfy_loss(energy, reg, vv, y, TIGHT).value
                )
                got = energy.input_to_vec(out.grad_v)
                want = energy.input_to_vec(fd)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert float(np.max(np.abs(got - want))) <= tol * scale, family


class TestBaselines:
    def test_perceptron_vertex_example(self):
        energy = BilinearEnergy(np.eye(2))
        out = perceptron_loss(energy, box01(2), np.array([1.0, -1.0]), np.array([1.0, 0.0]))
        assert out.value == pytest.approx(0.0)
        np.testing.assert_array_equal(out.conjugate.argmax, [1.0, 0.0])

    def test_perceptron_zero_at_maximizing_vertex(self):
        u = np.array([1.0, 1.0])
        U = -np.array([[1.0, 1.0], [1.0, 1.0]])
        energy = PairwiseEnergy(2)
        v = PairwiseInput(u=u, U=U)
        out = perceptron_loss(energy, box01(2), v, np.array([1.0, 0.0]), TIGHT)
        assert abs(out.value) <= 1e-8

    def test_perceptron_pairwise_against_grid(self):
        rng = rng_from_seed(10)
        grid = box_grid(2, 1e-3)
        energy = PairwiseEnergy(2)
        for _ in range(10):
            v = pairwise_input(rng, 2)
            y = rng.uniform(0, 1, size=2)
            conj_grid, _ = grid_conjugate_pairwise(v.u, v.U, 0.0, grid)
            expected = conj_grid - energy.value(v, y)
            got = perceptron_loss(energy, box01(2), v, y, TIGHT).value
            assert got == pytest.approx(expected, abs=5e-3)
            assert got >= -1e-9

    def test_energy_loss_hand_values(self):
        assert energy_loss(BilinearEnergy(np.eye(2)), np.array([1.0, 2.0]), np.array([1.0, 0.0])).value == -1.0
        v = PairwiseInput(u=np.array([1.0, 1.0]), U=-np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert energy_loss(PairwiseEnergy(2), v, np.array([1.0, 0.0])).value == pytest.approx(-0.5)

    def test_energy_loss_gradient(self):
        rng = rng_from_seed(11)
        energy = PairwiseEnergy(3)
        v = pairwise_input(rng, 3)
        y = rng.uniform(0, 1, size=3)
        out = energy_loss(energy, v, y)
        fd = input_grad_finite_diff(energy, v, lambda vv: energy_loss(energy, vv, y).value)
        np.testing.assert_allclose(
            energy.input_to_vec(out.grad_v), energy.input_to_vec(fd), atol=1e-7
        )

    def test_xent_hand_instance(self):
        # argmax is the hard sigmoid (v + 1) / 2, so v = [0.6, -0.6] predicts [0.8, 0.2]
        energy = BilinearEnergy(np.eye(2))
        reg = GiniBinary(1.0, 2)
        v = np.array([0.6, -0.6])
        y = np.array([1.0, 0.0])
        out = xent_loss(energy, reg, v, y)
        assert out.value == pytest.approx(-2.0 * np.log(0.8))
        np.testing.assert_allclose(out.grad_v, [-1.25 * 0.5, 1.25 * 0.5], atol=1e-6)

    @pytest.mark.parametrize("energy", [BilinearEnergy(np.eye(3)), LinearQuadraticEnergy(3)], ids=["unary", "linear_quadratic"])
    def test_xent_batch_rows_are_bit_identical_to_single_rows(self, energy):
        # Gini's closed form for unary scores, coordinate ascent for the quadratic
        rng = rng_from_seed(14)
        ins = [energy.random_input(rng) for _ in range(4)]
        Y = rng.uniform(0, 1, size=(4, 3))
        reg, cfg = GiniBinary(1.0, 3), SolverConfig(tol=1e-9)
        batched = xent_loss(energy, reg, stack(ins), Y, cfg)
        assert batched.value.shape == (4,)
        for i, v in enumerate(ins):
            single = xent_loss(energy, reg, v, Y[i], cfg)
            assert batched.value[i] == single.value
            np.testing.assert_array_equal(energy.input_to_vec(row(batched.grad_v, i)), energy.input_to_vec(single.grad_v))


class TestLinearizedBound:
    def test_bilinear_equality(self):
        rng = rng_from_seed(12)
        energy = BilinearEnergy(rng.standard_normal((4, 3)))
        reg = GiniBinary(1.0, 3)
        for _ in range(20):
            v = rng.standard_normal(4)
            p = rng.uniform(0, 1, size=3)
            assert linearized_upper_bound(energy, reg, v, p) == pytest.approx(
                gfy_loss(energy, reg, v, p).value, abs=1e-10
            )

    def test_upper_bounds_concave_families(self):
        # the bound needs concavity in p, so curvature must be NSD here
        rng = rng_from_seed(13)
        lq = LinearQuadraticEnergy(3)
        reg_lq = SquaredL2(1.0, reals(3))
        for _ in range(50):
            v = LinQuadInput(A=random_nsd(rng, 3), b=rng.standard_normal(3))
            y = rng.standard_normal(3)
            bound = linearized_upper_bound(lq, reg_lq, v, y)
            assert bound >= gfy_loss(lq, reg_lq, v, y).value - 1e-9
        pw = PairwiseEnergy(2)
        for _ in range(50):
            energy, reg, v, y = sample_instance("pairwise", rng, k=2)
            bound = linearized_upper_bound(pw, reg, v, y)
            assert bound >= gfy_loss(pw, reg, v, y, TIGHT).value - 1e-9


class TestBiconjugate:
    def test_never_exceeds_regularizer(self):
        rng = rng_from_seed(14)
        energy = BilinearEnergy(np.eye(2))
        reg = GiniBinary(1.0, 2)
        for _ in range(20):
            v_grid = list(rng.standard_normal((10, 2)))
            p = rng.uniform(0, 1, size=2)
            assert biconjugate(energy, reg, p, v_grid) <= reg.value(p) + 1e-9

    def test_identity_coupling_recovers_squared_norm(self):
        energy = BilinearEnergy(np.eye(2))
        reg = SquaredL2(1.0, reals(2))
        p = np.array([1.0, 2.0])
        v_grid = [np.zeros(2), np.array([1.0, 2.0]), np.array([-1.0, 0.5])]
        assert biconjugate(energy, reg, p, v_grid) == pytest.approx(2.5)

    def test_envelope_built_functions_reach_equality(self):
        # omega defined as a max of affine minorants with slopes in the grid;
        # every active slope is touched, so the double transform is exact
        slopes = np.array([-1.0, 0.25, 2.0])
        offsets = np.array([-0.3, 0.1, 0.9])

        def omega(p):
            return float(np.max(slopes * p[0] - offsets))

        breakpoints = [0.0, 1.0]
        for i in range(3):
            for j in range(i + 1, 3):
                b = (offsets[i] - offsets[j]) / (slopes[i] - slopes[j])
                if 0.0 < b < 1.0:
                    breakpoints.append(float(b))
        p_grid = [np.array([b]) for b in sorted(breakpoints)]
        v_grid = [np.array([w]) for w in slopes]
        energy = BilinearEnergy(np.eye(1))
        rng = rng_from_seed(15)
        for p in rng.uniform(0, 1, size=20):
            pv = np.array([p])
            got = biconjugate(energy, omega, pv, v_grid, p_grid=p_grid)
            assert got == pytest.approx(omega(pv), abs=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ContractViolation):
            biconjugate(BilinearEnergy(np.eye(1)), GiniBinary(1.0, 1), np.array([0.5]), [])

    def test_empty_output_grid_rejected(self):
        energy, omega = BilinearEnergy(np.eye(1)), GiniBinary(1.0, 1)
        with pytest.raises(ContractViolation, match="p_grid") as err:
            biconjugate(energy, omega, np.array([0.5]), [np.array([1.0])], p_grid=[])
        assert err.value.exit_code == 2

    def test_inputs_of_different_shapes_rejected(self):
        energy, omega = BilinearEnergy(np.eye(2)), GiniBinary(1.0, 2)
        v_grid = [np.zeros(2), np.zeros(2), np.zeros(3)]
        for p_grid in (None, [np.full(2, 0.5)]):
            with pytest.raises(ContractViolation, match=r"input 2 has shape \(3,\); input 0's has \(2,\)"):
                biconjugate(energy, omega, np.full(2, 0.5), v_grid, p_grid=p_grid)


class TestGeneralizedBregman:
    def test_identity_coupling_is_half_squared_distance(self):
        energy = BilinearEnergy(np.eye(2))
        reg = SquaredL2(1.0, reals(2))
        assert generalized_bregman(energy, reg, np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(0.5)
        rng = rng_from_seed(16)
        for _ in range(50):
            p, q = rng.standard_normal(2), rng.standard_normal(2)
            got = generalized_bregman(energy, reg, p, q)
            assert got == pytest.approx(0.5 * float(np.sum((p - q) ** 2)), abs=1e-12)

    def test_simplex_entropy_recovers_kl(self):
        rng = rng_from_seed(17)
        for gamma in (1.0, 0.7):
            energy = BilinearEnergy(np.eye(3))
            reg = ShannonSimplex(gamma, 3)
            for _ in range(30):
                p = interior_simplex(rng, 3)
                q = interior_simplex(rng, 3)
                kl = float(np.sum(p * np.log(p / q)))
                assert generalized_bregman(energy, reg, p, q) == pytest.approx(gamma * kl, abs=1e-8)

    def test_identical_points_and_nonnegativity(self):
        rng = rng_from_seed(18)
        energy = BilinearEnergy(np.eye(2))
        for _ in range(500):
            gamma = float(rng.uniform(0.5, 2.0))
            reg = GiniBinary(gamma, 2) if rng.random() < 0.5 else SquaredL2(gamma, box01(2))
            q = margin_uniform(rng, 2)
            p = rng.uniform(0, 1, size=2)
            assert generalized_bregman(energy, reg, q, q) == 0.0
            d = generalized_bregman(energy, reg, p, q)
            assert d >= -1e-9
            # Prop-style link: the divergence is the loss at the matched input
            v_ref = np.linalg.solve(energy.U.T, reg.grad(q))
            assert d == pytest.approx(gfy_loss(energy, reg, v_ref, p).value, abs=1e-10)

    def test_grid_path_matches_closed_form_when_grid_contains_optimum(self):
        # with zero coupling the pairwise energy degenerates to the identity
        # bilinear one, so the grid search should land on the matched input
        reg = GiniBinary(1.0, 2)
        q = np.array([0.6, 0.3])
        p = np.array([0.2, 0.9])
        v_star = PairwiseInput(u=reg.grad(q), U=np.zeros((2, 2)))
        rng = rng_from_seed(19)
        grid = [pairwise_input(rng, 2) for _ in range(5)] + [v_star]
        got = generalized_bregman(PairwiseEnergy(2), reg, p, q, v_grid=grid, cfg=TIGHT)
        closed = generalized_bregman(BilinearEnergy(np.eye(2)), reg, p, q)
        assert got == pytest.approx(closed, abs=1e-9)

    def test_missing_grid_for_general_coupling_rejected(self):
        with pytest.raises(ContractViolation):
            generalized_bregman(
                PairwiseEnergy(2), GiniBinary(1.0, 2), np.array([0.5, 0.5]), np.array([0.4, 0.4])
            )
        with pytest.raises(ContractViolation, match="at least one input"):
            generalized_bregman(
                PairwiseEnergy(2), GiniBinary(1.0, 2), np.array([0.5, 0.5]), np.array([0.4, 0.4]), v_grid=[]
            )
