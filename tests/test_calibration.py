import numpy as np
import pytest

from efy import calibration, losses
from efy import (
    BilinearEnergy,
    ContractViolation,
    GiniBinary,
    LinearQuadraticEnergy,
    PairwiseEnergy,
    PairwiseInput,
    SolverConfig,
    SquaredL2,
    accuracy,
    biconjugate,
    calibration_check,
    comparison_bound,
    conjugate,
    decode,
    enumerate_labels,
    estimate_smoothness,
    generalized_bregman,
    gfy_loss,
    hamming_decode,
    hamming_decomposition,
    reals,
    rng_from_seed,
    surrogate_pointwise_risk,
    target_pointwise_risk,
)

from support import random_nsd


class TestHammingDecomposition:
    def test_loss_values(self):
        dec = hamming_decomposition(2)
        assert dec.loss([1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5)
        assert dec.loss([1.0, 1.0], [1.0, 1.0]) == pytest.approx(0.0)
        for y_hat in enumerate_labels(2):
            for y in enumerate_labels(2):
                assert dec.loss(y_hat, y) == pytest.approx(float(np.mean(y_hat != y)))

    def test_sigma_is_two_over_sqrt_k(self):
        for k in (1, 2, 3, 4):
            assert hamming_decomposition(k).sigma == pytest.approx(2.0 / np.sqrt(k))

    def test_enumeration_order_and_guard(self):
        labels = enumerate_labels(2)
        np.testing.assert_array_equal(labels[0], [0.0, 0.0])
        assert len(labels) == 4
        with pytest.raises(ContractViolation):
            enumerate_labels(21)


class TestDecode:
    def test_threshold_behaviour(self):
        dec = hamming_decomposition(2)
        np.testing.assert_array_equal(decode([0.7, 0.2], dec), [1.0, 0.0])
        np.testing.assert_array_equal(decode([0.5, 0.5], dec), [0.0, 0.0])
        np.testing.assert_array_equal(hamming_decode([0.5, 0.5]), [0.0, 0.0])

    def test_generic_decode_matches_fast_path(self):
        rng = rng_from_seed(0)
        dec = hamming_decomposition(2)
        P = rng.uniform(0, 1, size=(1000, 2))
        for p in P:
            np.testing.assert_array_equal(decode(p, dec), hamming_decode(p))
        np.testing.assert_array_equal(decode(P, dec), hamming_decode(P))


class TestAccuracy:
    def test_extremes_and_mean(self):
        rng = rng_from_seed(1)
        Y = (rng.uniform(size=(1000, 3)) < 0.5).astype(float)
        assert accuracy(Y, Y) == 1.0
        assert accuracy(1.0 - Y, Y) == 0.0
        guess = (rng.uniform(size=(1000, 3)) < 0.5).astype(float)
        assert abs(accuracy(guess, Y) - 0.5) <= 0.05

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            accuracy(np.zeros((2, 2)), np.zeros((3, 2)))


class TestRisks:
    def test_surrogate_risk_is_the_loss_mixture(self):
        rng = rng_from_seed(2)
        energy = BilinearEnergy(np.eye(2))
        reg = GiniBinary(1.0, 2)
        labels = enumerate_labels(2)
        for _ in range(10):
            q = rng.dirichlet(np.ones(4))
            v = rng.standard_normal(2)
            direct = sum(qi * gfy_loss(energy, reg, v, y).value for qi, y in zip(q, labels))
            assert surrogate_pointwise_risk(energy, reg, v, q) == pytest.approx(direct)
        # a stacked batch: each row is its own loss mixture, bit for bit
        V = rng.standard_normal((6, 2))
        batched = surrogate_pointwise_risk(energy, reg, V, q)
        assert batched.shape == (6,)
        for v, got in zip(V, batched):
            direct = sum(qi * gfy_loss(energy, reg, v, y).value for qi, y in zip(q, labels))
            assert got == direct
            assert surrogate_pointwise_risk(energy, reg, v, q) == direct

    def test_distribution_validated(self):
        energy = BilinearEnergy(np.eye(2))
        reg = GiniBinary(1.0, 2)
        with pytest.raises(ContractViolation):
            surrogate_pointwise_risk(energy, reg, np.zeros(2), np.array([0.5, 0.5]))
        with pytest.raises(ContractViolation):
            surrogate_pointwise_risk(energy, reg, np.zeros(2), np.full(4, 0.3))
        with pytest.raises(ContractViolation):
            target_pointwise_risk(hamming_decomposition(2), np.zeros(2), np.array([1.2, -0.2, 0.0, 0.0]))

    def test_hamming_bayes_thresholds_the_marginals(self):
        # the marginal-mean decode must achieve the minimum target risk
        rng = rng_from_seed(3)
        dec = hamming_decomposition(2)
        labels = enumerate_labels(2)
        for _ in range(200):
            q = rng.dirichlet(np.ones(4))
            mu = q @ labels
            if float(np.min(np.abs(mu - 0.5))) < 1e-3:
                continue
            best = min(target_pointwise_risk(dec, y, q) for y in labels)
            got = target_pointwise_risk(dec, hamming_decode(mu), q)
            assert got == pytest.approx(best, abs=1e-12)


class TestComparisonBound:
    def test_arithmetic(self):
        assert comparison_bound(0.2, 1.0, 0.5) == pytest.approx(0.01)
        assert comparison_bound(0.0, 2.0, 1.0) == 0.0


class TestSmoothnessEstimate:
    def test_identity_coupling_ratio(self):
        # argmax is v itself, so the embedding ratio is at least 1 and the
        # returned constant carries the 2x inflation
        energy = BilinearEnergy(np.eye(2))
        reg = SquaredL2(1.0, reals(2))
        vs = [np.zeros(2), np.array([0.1, 0.0]), np.array([0.0, 0.2])]
        got = estimate_smoothness(energy, reg, vs)
        assert got >= 2.0

    def test_matches_the_pair_loop_bit_for_bit(self):
        rng = rng_from_seed(12)
        energy, reg = PairwiseEnergy(2), GiniBinary(1.0, 2)
        vs = [PairwiseInput(u=rng.uniform(-2, 2, size=2), U=random_nsd(rng, 2)) for _ in range(30)]
        vs.append(vs[3])  # a repeated input is skipped, not divided by zero
        embeds, flats = [], []
        for v in vs:
            p = conjugate(energy, reg, v).argmax
            embeds.append(np.concatenate([p, 0.5 * np.outer(p, p).ravel()]))
            flats.append(energy.input_to_vec(v))
        ratio = 0.0
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                dv = float(np.linalg.norm(flats[i] - flats[j]))
                if dv > 1e-9:
                    ratio = max(ratio, float(np.linalg.norm(embeds[i] - embeds[j])) / dv)
        assert estimate_smoothness(energy, reg, vs) == 2.0 * ratio

    def test_needs_two_samples(self):
        with pytest.raises(ContractViolation):
            estimate_smoothness(BilinearEnergy(np.eye(2)), GiniBinary(1.0, 2), [np.zeros(2)])


class TestCalibrationCheck:
    def test_point_mass_at_matched_input_has_zero_excesses(self):
        energy = BilinearEnergy(np.eye(2))
        gamma = 1.0
        reg = GiniBinary(gamma, 2)
        labels = enumerate_labels(2)
        for target in (1, 2, 3):
            q = np.zeros(4)
            q[target] = 1.0
            y_star = labels[target]
            v_star = gamma * (2.0 * y_star - 1.0)
            report = calibration_check(energy, reg, q, [v_star])
            row = report.rows[0]
            assert row["target_excess"] == pytest.approx(0.0, abs=1e-12)
            assert row["surrogate_excess"] == pytest.approx(0.0, abs=1e-9)
            assert report.passed

    def test_bilinear_grid_k1(self):
        energy = BilinearEnergy(np.eye(1))
        reg = GiniBinary(0.7, 1)
        rng = rng_from_seed(4)
        q = rng.dirichlet(np.ones(2))
        vs = [np.array([t]) for t in np.linspace(-3.0, 3.0, 121)]
        report = calibration_check(energy, reg, q, vs)
        assert report.M == pytest.approx(1.0 / (2.0 * 0.7))
        assert report.sigma == pytest.approx(2.0)
        assert report.passed
        assert report.worst_slack >= 0.0

    def test_bilinear_k2_random_distributions(self):
        energy = BilinearEnergy(np.eye(2))
        reg = GiniBinary(1.0, 2)
        rng = rng_from_seed(5)
        for _ in range(5):
            q = rng.dirichlet(np.ones(4))
            vs = [rng.uniform(-2, 2, size=2) for _ in range(50)]
            assert calibration_check(energy, reg, q, vs).passed

    def test_pairwise_energy_passes(self):
        rng = rng_from_seed(6)
        energy = PairwiseEnergy(2)
        reg = GiniBinary(1.0, 2)
        q = rng.dirichlet(np.ones(4))
        vs = [
            PairwiseInput(u=rng.uniform(-2, 2, size=2), U=random_nsd(rng, 2))
            for _ in range(10)
        ]
        report = calibration_check(energy, reg, q, vs, cfg=SolverConfig(tol=1e-9))
        assert report.passed
        assert report.M > 0.0

    def test_empty_input_set_is_refused(self):
        q = np.full(4, 0.25)
        for energy in (BilinearEnergy(np.eye(2)), PairwiseEnergy(2)):
            with pytest.raises(ContractViolation, match="at least one input"):
                calibration_check(energy, GiniBinary(1.0, 2), q, [])

    def test_inputs_of_different_shapes_are_refused(self):
        q = np.full(4, 0.25)
        rng = rng_from_seed(5)
        vs = [PairwiseInput(u=rng.uniform(-1, 1, size=2), U=random_nsd(rng, 2)) for _ in range(2)]
        vs.append(PairwiseInput(u=np.zeros(2), U=np.zeros((3, 3))))
        with pytest.raises(ContractViolation, match=r"input 2's leaf U has shape \(3, 3\); input 0's has \(2, 2\)") as err:
            calibration_check(PairwiseEnergy(2), GiniBinary(1.0, 2), q, vs)
        assert err.value.exit_code == 2
        with pytest.raises(ContractViolation, match="input 1 has shape"):
            calibration_check(BilinearEnergy(np.eye(2)), GiniBinary(1.0, 2), q, [np.zeros(2), np.zeros(3)])

    def test_inputs_whose_width_misses_the_score_matrix_are_refused(self):
        energy, reg, vs = BilinearEnergy(np.eye(2)), GiniBinary(1.0, 2), [np.zeros(3), np.zeros(3)]
        for check in (
            lambda: calibration_check(energy, reg, np.full(4, 0.25), vs),
            lambda: biconjugate(energy, reg, np.array([0.5, 0.5]), vs),
        ):
            with pytest.raises(ContractViolation, match="input has 3 coordinates, the score matrix expects 2") as err:
                check()
            assert err.value.exit_code == 2

    def test_unsupported_configurations(self):
        with pytest.raises(ContractViolation):
            calibration_check(
                LinearQuadraticEnergy(2), GiniBinary(1.0, 2), np.full(4, 0.25), [np.zeros(2)]
            )
        with pytest.raises(ContractViolation):
            calibration_check(
                BilinearEnergy(np.array([[2.0, 0.0], [0.0, 1.0]])),
                GiniBinary(1.0, 2),
                np.full(4, 0.25),
                [np.zeros(2)],
            )


class TestOneSolvePerInputSet:
    """Every input set is one batch: one conjugate call solves all its inputs."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def spy(energy, reg, v, cfg=None, **kwargs):
            seen.append(v)
            return conjugate(energy, reg, v, cfg, **kwargs)

        monkeypatch.setattr(calibration, "conjugate", spy)
        monkeypatch.setattr(losses, "conjugate", spy)
        return seen

    def test_calibration_and_risks(self, calls):
        rng = rng_from_seed(8)
        reg = GiniBinary(1.0, 2)
        q = rng.dirichlet(np.ones(4))
        vs = [rng.uniform(-2, 2, size=2) for _ in range(50)]
        report = calibration_check(BilinearEnergy(np.eye(2)), reg, q, vs)
        assert len(report.rows) == 50 and [np.shape(v) for v in calls] == [(50, 2)]
        calls.clear()
        surrogate_pointwise_risk(BilinearEnergy(np.eye(2)), reg, np.stack(vs), q)
        assert len(calls) == 1
        calls.clear()
        pairs = [PairwiseInput(u=rng.uniform(-2, 2, size=2), U=random_nsd(rng, 2)) for _ in range(12)]
        estimate_smoothness(PairwiseEnergy(2), reg, pairs)
        assert [v.u.shape for v in calls] == [(12, 2)]
        calls.clear()
        # the Bayes-risk minimization solves one input per objective evaluation
        calibration_check(PairwiseEnergy(2), reg, q, pairs)
        assert [v.u.shape for v in calls if v.u.ndim == 2] == [(12, 2)]

    def test_biconjugate_and_divergence_grids(self, calls):
        rng = rng_from_seed(9)
        reg = GiniBinary(1.0, 2)
        v_grid = list(rng.standard_normal((30, 2)))
        biconjugate(BilinearEnergy(np.eye(2)), reg, np.array([0.3, 0.6]), v_grid)
        assert [np.shape(v) for v in calls] == [(30, 2)]
        calls.clear()
        grid = [PairwiseInput(u=rng.uniform(-2, 2, size=2), U=random_nsd(rng, 2)) for _ in range(7)]
        generalized_bregman(PairwiseEnergy(2), reg, np.array([0.2, 0.9]), np.array([0.6, 0.3]), v_grid=grid)
        assert [v.u.shape for v in calls] == [(7, 2)]
