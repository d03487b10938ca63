import numpy as np
import pytest

from efy import (
    BilinearEnergy,
    ContractViolation,
    DivergenceError,
    Energy,
    EvaluationError,
    GiniBinary,
    Indicator,
    InfeasibleError,
    LinQuadInput,
    LinearQuadraticEnergy,
    OutputSet,
    PairwiseEnergy,
    PairwiseInput,
    Regularizer,
    SolverConfig,
    SpenEnergy,
    SquaredL2,
    box01,
    c_transform,
    conjugate,
    conjugate_with_restarts,
    coordinate_ascent_box_quadratic,
    make_model,
    make_regularizer,
    planted_pairwise,
    predict_marginals,
    projected_gradient_ascent,
    reals,
    rng_from_seed,
    simplex,
)

from efy.conjugate import batch_status
from efy.numerics import NSD_EIG_TOL, rebuild, row, stack, walk

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
        # at 1e8 some Newton systems meet an exactly zero pivot; those rows
        # skip the step, alone and in a batch alike
        rng = rng_from_seed(0)
        u, U = [], []
        for _ in range(20):
            a = scale * rng.standard_normal(4)
            u.append(rng.standard_normal(4))
            U.append(-np.outer(a, a))
            p, status, _, _ = coordinate_ascent_box_quadratic(u[-1], U[-1], 0.5)
            assert status == "converged"
            assert float(np.min(p)) >= 0.0 and float(np.max(p)) <= 1.0
        P, status, _, _ = coordinate_ascent_box_quadratic(np.array(u), np.array(U), 0.5)
        assert status == "converged"
        for p_i, u_i, U_i in zip(P, u, U):
            assert p_i.tobytes() == coordinate_ascent_box_quadratic(u_i, U_i, 0.5)[0].tobytes()

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e8])
    def test_nsd_verdict_around_the_tolerance(self, scale):
        # as in test_numerics: the coupling's largest eigenvalue is c tau
        G = rng_from_seed(3).standard_normal((4, 3))
        U = -scale * (G @ G.T)
        tau = NSD_EIG_TOL * max(1.0, float(np.abs(U).max()))
        near, far = U + 0.5 * tau * np.eye(4), U + 2.0 * tau * np.eye(4)
        cfg = SolverConfig(max_iters=3)  # only the check matters here
        coordinate_ascent_box_quadratic(np.zeros(4), near, 0.5, cfg)
        coordinate_ascent_box_quadratic(np.zeros((2, 4)), np.stack([near, near]), 0.5, cfg)
        for U_bad in (far, np.stack([near, far])):
            with pytest.raises(ContractViolation, match="negative semidefinite"):
                coordinate_ascent_box_quadratic(np.zeros(U_bad.shape[:-1]), U_bad, 0.5, cfg)

    def test_non_finite_couplings_keep_their_errors(self):
        inf, nan = -np.diag([np.inf, 1.0, 1.0]), np.full((3, 3), np.nan)
        for U, error in ((inf, ContractViolation), (nan, EvaluationError)):
            with pytest.raises(error):
                coordinate_ascent_box_quadratic(np.zeros(3), U, 0.5)
            with pytest.raises(error):
                coordinate_ascent_box_quadratic(np.zeros((2, 3)), np.stack([-np.eye(3), U]), 0.5)

    def test_an_nsd_batch_is_certified_without_eigenvalues(self, monkeypatch):
        ds = planted_pairwise(500, 6, 5, seed=3)
        model = make_model("pairwise", d=6, k=5, hidden=4)
        params, reg = model.init_params(0), GiniBinary(0.5, 5)
        eigvalsh, shapes = np.linalg.eigvalsh, []

        def counted(m):
            shapes.append(np.shape(m))
            return eigvalsh(m)

        def refused(m):
            raise np.linalg.LinAlgError("refused")

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        certified = predict_marginals(model, params, reg, ds.X)
        assert shapes == []
        monkeypatch.setattr(np.linalg, "cholesky", refused)
        fallback = predict_marginals(model, params, reg, ds.X)
        assert shapes == [(500, 5, 5)]
        assert fallback.tobytes() == certified.tobytes()

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


class TestBatchAxis:
    def rows(self, scale=1.0):
        # row 0 is decoupled and converges at once; row 1 is strongly coupled,
        # and at scale 20 the sweeps crawl for a while before a Newton step lands
        u = np.array([[0.3, -0.1, 0.2], [1.45, 1.69, 2.33]])
        a = scale * np.array([1.39, -1.52, 2.84])
        U = np.stack([np.zeros((3, 3)), -np.outer(a, a)])
        return u, U

    def test_a_newton_step_finishes_the_coupled_row(self):
        # cyclic sweeps alone need 52 sweeps to reach tol 1e-12 on this row
        u, U = self.rows()
        p, status, sweeps, _ = coordinate_ascent_box_quadratic(u[1], U[1], 0.5, SolverConfig(tol=1e-12))
        assert status == "converged" and sweeps <= 3
        grad = u[1] + U[1] @ p - p + 0.5  # the objective's gradient at gamma = 0.5
        free = (p > 0.0) & (p < 1.0)
        np.testing.assert_allclose(grad[free], 0.0, atol=1e-12)
        assert (grad[p == 0.0] <= 0.0).all() and (grad[p == 1.0] >= 0.0).all()

    @pytest.mark.parametrize("max_iters", [5, 10000])
    def test_coordinate_ascent_sweeps_each_row_as_alone_and_reports_the_batch(self, max_iters):
        u, U = self.rows(scale=20.0)
        cfg = SolverConfig(tol=1e-12, max_iters=max_iters)
        singles = [coordinate_ascent_box_quadratic(u[i], U[i], 0.5, cfg) for i in range(2)]
        p, status, sweeps, gap = coordinate_ascent_box_quadratic(u, U, 0.5, cfg)
        for i, (p_i, _, _, _) in enumerate(singles):
            np.testing.assert_array_equal(p[i], p_i)
        assert singles[0][1] == "converged" and singles[0][2] < singles[1][2]
        # one capped row caps the batch; the sweep count is the largest row's
        assert status == singles[1][1] == ("max_iters" if max_iters == 5 else "converged")
        assert sweeps == singles[1][2]
        assert gap == max(s[3] for s in singles)

    def test_an_empty_batch_converges_without_a_sweep(self):
        p, status, sweeps, gap = coordinate_ascent_box_quadratic(np.zeros((0, 3)), np.zeros((0, 3, 3)), 0.5)
        assert p.shape == (0, 3)
        assert (status, sweeps, gap) == ("converged", 0, 0.0)

    def test_a_sweep_trace_takes_one_row(self):
        u, U = self.rows()
        with pytest.raises(ContractViolation, match="trace"):
            coordinate_ascent_box_quadratic(u, U, 0.5, trace=[])
        trace = []
        p, _, sweeps, _ = coordinate_ascent_box_quadratic(u[1:], U[1:], 0.5, trace=trace)
        assert p.shape == (1, 3) and len(trace) == sweeps

    def spen_rows(self, n, concave=True):
        rng = rng_from_seed(31)
        energy = SpenEnergy(3, hidden=2, concave=concave)
        return energy, stack([energy.random_input(rng) for _ in range(n)])

    def test_a_start_point_must_match_the_input(self):
        energy, V = self.spen_rows(2)
        reg = GiniBinary(0.5, 3)
        with pytest.raises(ContractViolation, match="start point"):
            conjugate(energy, reg, row(V, 0), p0=np.full((2, 3), 0.5))
        with pytest.raises(ContractViolation, match="start point"):
            conjugate(energy, reg, V, p0=np.full((3, 3), 0.5))
        P0 = np.array([[0.2, 0.4, 0.9], [0.7, 0.1, 0.5]])
        res = conjugate(energy, reg, V, TIGHT, p0=P0)
        for i in range(2):  # each row warm-starts from its own start
            assert res.argmax[i].tobytes() == conjugate(energy, reg, row(V, i), TIGHT, p0=P0[i]).argmax.tobytes()

    def test_multistart_takes_one_input(self):
        energy, V = self.spen_rows(2, concave=False)
        with pytest.raises(ContractViolation, match="one input"):
            conjugate_with_restarts(energy, SquaredL2(0.5, box01(3)), V)

    def test_an_ascent_trace_takes_one_row(self):
        energy, V = self.spen_rows(2)
        reg = GiniBinary(0.5, 3)
        with pytest.raises(ContractViolation, match="trace"):
            conjugate(energy, reg, V, trace=[])
        trace = []
        res = conjugate(energy, reg, stack([row(V, 1)]), trace=trace)
        assert res.argmax.shape == (1, 3)
        assert [it for it, _, _ in trace] == list(range(1, res.iters + 1))

    def test_an_empty_ascent_batch_converges_without_an_iteration(self):
        energy, V = self.spen_rows(2)
        res = conjugate(energy, GiniBinary(0.5, 3), rebuild(V, (leaf[:0] for _, leaf in walk(V))))
        assert res.argmax.shape == (0, 3) and res.value.shape == (0,)
        assert (res.status, res.iters, res.gap) == ("converged", 0, 0.0)

    def test_the_batch_status_is_its_least_exact_row(self):
        assert batch_status(["closed_form"]) == "closed_form"
        assert batch_status(["converged", "closed_form"]) == "converged"
        assert batch_status(["converged", "local_only", "closed_form"]) == "local_only"
        assert batch_status(["local_only", "stalled", "converged"]) == "stalled"
        assert batch_status(["max_iters", "stalled", "local_only"]) == "max_iters"


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

    def test_membership_tests_do_not_grow_with_the_iterations(self, monkeypatch):
        # every point the ascent evaluates comes out of the domain's
        # projection, so only the result's own value tests membership
        calls = {"contains": 0, "value": 0}

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(OutputSet, "contains", counted("contains", OutputSet.contains))
        monkeypatch.setattr(Regularizer, "value", counted("value", Regularizer.value))
        rng = rng_from_seed(2)
        V = stack([pairwise_input(rng, 3) for _ in range(6)])
        seen = []
        for max_iters in (2, 40):
            calls.update(contains=0, value=0)
            res = conjugate(PairwiseEnergy(3), Indicator(box01(3)), V, SolverConfig(max_iters=max_iters, tol=1e-12))
            seen.append((res.iters, dict(calls)))
        assert seen[0][0] == 2 and seen[1][0] >= 20
        assert seen[0][1] == seen[1][1]

    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("kind", ["squared_l2", "indicator"])
    def test_simplex_solves_at_large_offsets(self, kind, k):
        # entries sharing an offset of 1e7 or more project onto the simplex
        # exactly, so no trial point of the ascent leaves it
        rng = rng_from_seed(5)
        reg = make_regularizer(kind, k, domain=simplex(k))
        for offset in (1e7, 1e8, 1e10, 1e12):
            v = PairwiseInput(u=offset + rng.standard_normal((10, k)), U=np.broadcast_to(-np.eye(k), (10, k, k)))
            res = conjugate(PairwiseEnergy(k), reg, v, SolverConfig(tol=1e-9, max_iters=500))
            assert reg.domain.contains(res.argmax).all()
            assert np.isfinite(res.value).all()

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
