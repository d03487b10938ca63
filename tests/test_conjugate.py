import numpy as np
import pytest

from efy import (
    BilinearEnergy,
    ContractViolation,
    DivergenceError,
    Energy,
    GiniBinary,
    Indicator,
    InfeasibleError,
    LinQuadInput,
    LinearQuadraticEnergy,
    PairwiseEnergy,
    PairwiseInput,
    SolverConfig,
    SpenEnergy,
    SquaredL2,
    box01,
    c_transform,
    conjugate,
    conjugate_with_restarts,
    coordinate_ascent_box_quadratic,
    make_regularizer,
    projected_gradient_ascent,
    reals,
    rng_from_seed,
)

from support import (
    FAMILIES,
    box_grid,
    feasible_linquad,
    grid_conjugate_pairwise,
    pairwise_input,
    random_nsd,
    sample_instance,
)

# line searches compare objective values directly, so tolerances much below
# 1e-8 sit under the floating-point plateau and cannot be certified
TIGHT = SolverConfig(tol=1e-8)


class TestClosedForms:
    def test_scalar_quadratic_reference_instance(self):
        # gamma=1, A=-1, b=1: value (1/2)(gamma - a)^{-1} b^2 = 0.25 at p = 0.5
        energy = LinearQuadraticEnergy(1)
        reg = SquaredL2(1.0, reals(1))
        res = conjugate(energy, reg, LinQuadInput(A=np.array([[-1.0]]), b=np.array([1.0])))
        assert res.value == 0.25
        np.testing.assert_array_equal(res.argmax, [0.5])
        assert res.status == "closed_form"

    def test_zero_linear_term(self):
        energy = LinearQuadraticEnergy(2)
        reg = SquaredL2(1.0, reals(2))
        res = conjugate(energy, reg, LinQuadInput(A=-np.eye(2), b=np.zeros(2)))
        assert res.value == 0.0
        np.testing.assert_array_equal(res.argmax, [0.0, 0.0])

    def test_bilinear_identity_squared_l2(self):
        energy = BilinearEnergy(np.eye(2))
        reg = SquaredL2(1.0, reals(2))
        res = conjugate(energy, reg, np.array([3.0, 4.0]))
        assert res.value == pytest.approx(12.5)
        np.testing.assert_allclose(res.argmax, [3.0, 4.0])
        np.testing.assert_allclose(res.envelope_grad, [3.0, 4.0])

    def test_bilinear_general_matrix_reduces_to_transposed_scores(self):
        rng = rng_from_seed(2)
        U = rng.standard_normal((4, 3))
        energy = BilinearEnergy(U)
        reg = make_regularizer("gini_binary", 3, gamma=0.7)
        for _ in range(20):
            v = rng.standard_normal(4)
            res = conjugate(energy, reg, v)
            np.testing.assert_allclose(res.argmax, reg.argmax_map(U.T @ v), atol=1e-12)
            assert res.value == pytest.approx(reg.conjugate_value(U.T @ v))

    def test_pairwise_squared_l2_over_reals_is_an_spd_solve(self):
        rng = rng_from_seed(4)
        energy = PairwiseEnergy(4)
        for gamma in (0.3, 1.0, 2.5):
            reg = SquaredL2(gamma, reals(4))
            for _ in range(10):
                skew = rng.standard_normal((4, 4))
                v = PairwiseInput(u=rng.standard_normal(4), U=random_nsd(rng, 4) + skew - skew.T)
                res = conjugate(energy, reg, v)
                assert res.status == "closed_form"
                p = res.argmax
                # stationarity of <u, p> + 0.5 <p, U p> - (gamma / 2) ||p||^2
                resid = v.u + 0.5 * (v.U + v.U.T) @ p - gamma * p
                assert float(np.max(np.abs(resid))) <= 1e-12
                assert res.value == pytest.approx(energy.value(v, p) - reg.value(p), rel=1e-12, abs=1e-12)

    def test_infeasible_shift_raises(self):
        energy = LinearQuadraticEnergy(2)
        reg = SquaredL2(0.5, reals(2))
        v = LinQuadInput(A=np.eye(2), b=np.ones(2))  # 0.5*I - I is negative definite
        with pytest.raises(InfeasibleError):
            conjugate(energy, reg, v)


    def test_dispatch_follows_the_declared_structure(self):
        # an energy outside the built-in classes takes the closed form by
        # declaring itself linear in p
        class DoubledScores(Energy):
            p_structure = "linear"

            def value(self, v, p):
                return 2.0 * float(v @ self.check_output(p))

            def grad_v(self, v, p):
                return 2.0 * np.asarray(p, dtype=float)

            def linear_score(self, v):
                return 2.0 * np.asarray(v, dtype=float)

        v = np.array([0.5, -2.0, 4.0])
        reg = GiniBinary(1.0, 3)
        res = conjugate(DoubledScores(3), reg, v)
        ref = conjugate(BilinearEnergy(2.0 * np.eye(3)), reg, v)
        assert res.status == "closed_form"
        np.testing.assert_allclose(res.argmax, ref.argmax, rtol=0, atol=1e-15)
        assert res.value == pytest.approx(ref.value, rel=1e-15)


class TestResultInvariants:
    def test_value_argmax_consistency_all_families(self):
        rng = rng_from_seed(3)
        for family in FAMILIES:
            for _ in range(10):
                energy, reg, v, _ = sample_instance(family, rng)
                res = conjugate(energy, reg, v, TIGHT)
                assert reg.domain.contains(res.argmax, tol=1e-8)
                direct = energy.value(v, res.argmax) - reg.value(res.argmax)
                assert abs(res.value - direct) <= 1e-10 * (1.0 + abs(direct))
                if res.status == "converged":
                    assert res.gap <= TIGHT.tol

    def test_fenchel_young_inequality(self):
        # conj(v) + reg(p) - energy(v, p) >= 0 for every feasible p
        rng = rng_from_seed(4)
        for family in FAMILIES:
            for _ in range(30):
                energy, reg, v, _ = sample_instance(family, rng)
                res = conjugate(energy, reg, v, TIGHT)
                p = (
                    rng.standard_normal(energy.k)
                    if reg.domain.kind == "reals"
                    else rng.uniform(0, 1, size=energy.k)
                )
                gap = res.value + reg.value(p) - energy.value(v, p)
                assert gap >= -1e-9, family

    def test_order_reversing(self):
        # pointwise-smaller regularizers have pointwise-larger conjugates
        rng = rng_from_seed(5)
        small = GiniBinary(2.0, 2)  # gamma * sum(p^2 - p) <= 0, doubling lowers it
        large = GiniBinary(1.0, 2)
        grid = box_grid(2, 0.05)
        assert all(small.value(p) <= large.value(p) + 1e-12 for p in grid)
        energy = PairwiseEnergy(2)
        for _ in range(50):
            v = pairwise_input(rng, 2)
            assert conjugate(energy, small, v, TIGHT).value >= conjugate(energy, large, v, TIGHT).value - 1e-8

    def test_convexity_in_v_midpoints(self):
        rng = rng_from_seed(6)
        energy = PairwiseEnergy(2)
        reg = GiniBinary(1.0, 2)
        for _ in range(50):
            v1, v2 = pairwise_input(rng, 2), pairwise_input(rng, 2)
            mid = PairwiseInput(u=0.5 * (v1.u + v2.u), U=0.5 * (v1.U + v2.U))
            c_mid = conjugate(energy, reg, mid, TIGHT).value
            c_avg = 0.5 * (conjugate(energy, reg, v1, TIGHT).value + conjugate(energy, reg, v2, TIGHT).value)
            assert c_mid <= c_avg + 1e-8

    def test_argmax_lipschitz_in_linear_term(self):
        # fixed NSD curvature, varying linear term: ||dp*|| <= (beta/gamma) ||db||
        rng = rng_from_seed(7)
        energy = LinearQuadraticEnergy(3)
        reg = SquaredL2(1.0, reals(3))
        for _ in range(100):
            A = random_nsd(rng, 3)
            beta = LinearQuadraticEnergy.joint_smoothness(A)
            b1, b2 = rng.standard_normal(3), rng.standard_normal(3)
            p1 = conjugate(energy, reg, LinQuadInput(A=A, b=b1)).argmax
            p2 = conjugate(energy, reg, LinQuadInput(A=A, b=b2)).argmax
            lhs = float(np.linalg.norm(p1 - p2))
            assert lhs <= (beta / reg.gamma) * float(np.linalg.norm(b1 - b2)) + 1e-9

    def test_gradient_smoothness_in_linear_term(self):
        # envelope-gradient difference in the linear block obeys (beta + beta^2/gamma)
        rng = rng_from_seed(8)
        energy = LinearQuadraticEnergy(3)
        reg = SquaredL2(1.0, reals(3))
        for _ in range(100):
            A = random_nsd(rng, 3)
            beta = LinearQuadraticEnergy.joint_smoothness(A)
            bound = beta + beta * beta / reg.gamma
            b1, b2 = rng.standard_normal(3), rng.standard_normal(3)
            g1 = conjugate(energy, reg, LinQuadInput(A=A, b=b1)).envelope_grad
            g2 = conjugate(energy, reg, LinQuadInput(A=A, b=b2)).envelope_grad
            lhs = float(np.linalg.norm(g1.b - g2.b))
            assert lhs <= bound * float(np.linalg.norm(b1 - b2)) + 1e-9


class TestSolverEquivalence:
    def test_quadratic_closed_form_vs_projected_ascent(self):
        rng = rng_from_seed(9)
        energy = LinearQuadraticEnergy(3)
        for _ in range(20):
            gamma = float(rng.uniform(0.5, 2.0))
            reg = SquaredL2(gamma, reals(3))
            v = feasible_linquad(rng, 3, gamma)
            closed = conjugate(energy, reg, v)
            assert closed.status == "closed_form"
            p, _, _, _ = projected_gradient_ascent(
                lambda p: energy.value(v, p) - reg.value(p),
                lambda p: energy.grad_p(v, p) - reg.grad(p),
                reg.domain,
                TIGHT,
            )
            assert float(np.max(np.abs(p - closed.argmax))) <= 1e-6
            direct = energy.value(v, p) - reg.value(p)
            assert abs(direct - closed.value) <= 1e-6

    def test_coordinate_ascent_vs_grid_and_pga(self):
        rng = rng_from_seed(10)
        cfg = SolverConfig(tol=1e-12)
        for k in (1, 2):
            grid = box_grid(k, 1e-3)
            for _ in range(15):
                u = rng.uniform(-1.5, 1.5, size=k)
                U = random_nsd(rng, k, scale=float(rng.uniform(0.2, 2.0)))
                gamma = float(rng.uniform(0.5, 2.0))
                p_ca, status, _, _ = coordinate_ascent_box_quadratic(u, U, gamma, cfg)
                assert status == "converged"
                _, p_grid = grid_conjugate_pairwise(u, U, gamma, grid)
                assert float(np.max(np.abs(p_ca - p_grid))) <= 2e-3
                reg = GiniBinary(gamma, k)
                energy = PairwiseEnergy(k)
                v = PairwiseInput(u=u, U=U)
                p_pga, _, _, _ = projected_gradient_ascent(
                    lambda p: energy.value(v, p) - reg.value(p),
                    lambda p: energy.grad_p(v, p) - reg.grad(p),
                    reg.domain,
                    SolverConfig(tol=1e-9),
                )
                assert float(np.max(np.abs(p_ca - p_pga))) <= 1e-5


class TestCoordinateAscent:
    def test_decoupled_scalar_reduces_to_hard_sigmoid(self):
        p, status, sweeps, _ = coordinate_ascent_box_quadratic(
            np.zeros(1), np.zeros((1, 1)), 1.0
        )
        np.testing.assert_array_equal(p, [0.5])
        assert status == "converged" and sweeps == 1

    def test_reference_instance(self):
        # frozen from a 1e-4 exhaustive scan of this instance
        u = np.array([0.4, -0.2])
        U = -0.5 * np.array([[1.0, 0.5], [0.5, 1.0]])
        p, _, _, _ = coordinate_ascent_box_quadratic(u, U, 1.0, SolverConfig(tol=1e-12))
        np.testing.assert_allclose(p, [0.53333333, 0.26666667], atol=1e-6)

    def test_rejects_positive_curvature(self):
        with pytest.raises(ContractViolation):
            coordinate_ascent_box_quadratic(np.zeros(2), np.eye(2), 1.0)

    @pytest.mark.parametrize("scale", [1e6, 1e8])
    def test_accepts_large_rank_one_couplings(self, scale):
        rng = rng_from_seed(0)
        for _ in range(5):
            a = scale * rng.standard_normal(4)
            p, status, _, _ = coordinate_ascent_box_quadratic(rng.standard_normal(4), -np.outer(a, a), 0.5)
            assert status == "converged"
            assert float(np.min(p)) >= 0.0 and float(np.max(p)) <= 1.0

    def test_tolerates_asymmetric_coupling(self):
        # only the symmetric part matters; asymmetric inputs must not crash
        U = np.array([[-1.0, 0.3], [0.1, -1.0]])
        pa, _, _, _ = coordinate_ascent_box_quadratic(np.array([0.2, 0.1]), U, 1.0, TIGHT)
        pb, _, _, _ = coordinate_ascent_box_quadratic(
            np.array([0.2, 0.1]), 0.5 * (U + U.T), 1.0, TIGHT
        )
        np.testing.assert_allclose(pa, pb, atol=1e-12)

    def test_dispatch_uses_coordinate_ascent_for_pairwise_gini(self):
        rng = rng_from_seed(11)
        energy = PairwiseEnergy(3)
        reg = GiniBinary(1.0, 3)
        trace = []
        res = conjugate(energy, reg, pairwise_input(rng, 3), TIGHT, trace=trace)
        assert res.status == "converged"
        assert len(trace) == res.iters  # one row per sweep


class TestProjectedGradientAscent:
    def test_corner_saturation(self):
        energy = BilinearEnergy(np.eye(2))
        reg = Indicator(box01(2))
        v = np.array([50.0, -50.0])
        p, status, _, _ = projected_gradient_ascent(
            lambda p: energy.value(v, p),
            lambda p: energy.grad_p(v, p),
            box01(2),
            SolverConfig(),
        )
        assert status == "converged"
        np.testing.assert_array_equal(p, [1.0, 0.0])
        res = conjugate(energy, reg, v)
        np.testing.assert_array_equal(res.argmax, [1.0, 0.0])

    def test_max_iters_status(self):
        energy = PairwiseEnergy(3)
        reg = SquaredL2(1.0, box01(3))
        rng = rng_from_seed(12)
        v = pairwise_input(rng, 3)
        res = conjugate(energy, reg, v, SolverConfig(max_iters=2, tol=1e-14))
        assert res.status == "max_iters"
        assert res.iters == 2

    def test_stalled_on_inconsistent_gradient(self):
        # a gradient pointing away from ascent defeats the line search
        p, status, _, _ = projected_gradient_ascent(
            lambda p: -float(np.sum((p - 0.5) ** 2)),
            lambda p: np.full(2, 1000.0),
            box01(2),
            SolverConfig(),
        )
        assert status == "stalled"
        np.testing.assert_allclose(p, [0.5, 0.5])

    def test_monotone_objective_trace(self):
        rng = rng_from_seed(13)
        energy = SpenEnergy(3, hidden=2, concave=True)
        reg = SquaredL2(1.0, box01(3))
        trace = []
        conjugate(energy, reg, energy.random_input(rng), TIGHT, trace=trace)
        objs = [row[1] for row in trace]
        assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))

    def test_unbounded_maximization_diverges(self):
        energy = PairwiseEnergy(2)
        reg = Indicator(reals(2))
        v = PairwiseInput(u=np.full(2, 1e6), U=np.zeros((2, 2)))
        with pytest.raises(DivergenceError):
            conjugate(energy, reg, v, SolverConfig(max_iters=10000))

    def test_indicator_closed_form_vertex_rule(self):
        energy = BilinearEnergy(np.eye(3))
        reg = Indicator(box01(3))
        res = conjugate(energy, reg, np.array([2.0, -3.0, 0.5]))
        assert res.status == "closed_form"
        np.testing.assert_array_equal(res.argmax, [1.0, 0.0, 1.0])
        assert res.value == pytest.approx(2.5)


class TestNonconcave:
    def test_restarts_never_lose_to_deterministic_start(self):
        rng = rng_from_seed(14)
        energy = SpenEnergy(3, hidden=3, concave=False)
        reg = SquaredL2(0.5, box01(3))
        for _ in range(10):
            v = energy.random_input(rng)
            base = conjugate(energy, reg, v)
            assert base.status in ("local_only", "max_iters", "stalled")
            for seed in (0, 1):
                multi = conjugate_with_restarts(energy, reg, v, seed=seed, n_restarts=2)
                assert multi.value >= base.value - 1e-12

    def test_deterministic_start_defines_the_result(self):
        rng = rng_from_seed(15)
        energy = SpenEnergy(2, hidden=3, concave=False)
        reg = SquaredL2(0.5, box01(2))
        v = energy.random_input(rng)
        a = conjugate(energy, reg, v)
        b = conjugate(energy, reg, v)
        np.testing.assert_array_equal(a.argmax, b.argmax)
        assert a.value == b.value


class TestCTransform:
    def test_sign_identity_with_conjugate(self):
        # min-form transform equals the negated max-form conjugate on a shared grid
        rng = rng_from_seed(16)
        grid = box_grid(2, 0.05)
        reg = GiniBinary(1.0, 2)
        energy = BilinearEnergy(np.eye(2))
        for _ in range(10):
            v = rng.standard_normal(2)
            brute = max(energy.value(v, p) - reg.value(p) for p in grid)
            ct = c_transform(
                lambda p: -reg.value(p), lambda v_, p: -energy.value(v_, p), v, grid
            )
            assert abs(ct + brute) <= 1e-8

    def test_metric_coupling_fixes_the_argmax(self):
        # 0.7-Lipschitz lam under the l1 metric: transform value is lam(v) at p = v
        grid = box_grid(2, 0.1)
        anchor = np.array([0.3, 0.7])

        def omega(p):
            return 0.7 * float(np.sum(np.abs(p - anchor)))

        def cost(v, p):
            return float(np.sum(np.abs(v - p)))

        for v in (np.array([0.2, 0.5]), np.array([0.0, 1.0]), np.array([0.8, 0.8])):
            ct = c_transform(lambda p: -omega(p), cost, v, grid)
            assert ct == pytest.approx(omega(v), abs=1e-12)
            vals = [cost(v, p) + omega(p) for p in grid]
            best = grid[int(np.argmin(vals))]
            np.testing.assert_allclose(best, v, atol=1e-12)

    def test_constant_field(self):
        grid = box_grid(1, 0.25)
        ct = c_transform(lambda p: 3.0, lambda v, p: float(np.abs(v - p[0])), 0.6, grid)
        assert ct == pytest.approx(0.1 - 3.0)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ContractViolation):
            c_transform(lambda p: 0.0, lambda v, p: 0.0, 0.0, [])
