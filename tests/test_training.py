import numpy as np
import pytest

from efy import (
    ContractViolation,
    GiniBinary,
    MultilabelDataset,
    ShannonBinary,
    SolverConfig,
    TrainConfig,
    TrainingDivergence,
    batch_gradient,
    evaluate_accuracy,
    finite_diff_grad,
    hyperparam_search,
    make_model,
    objective_value,
    planted_pairwise,
    predict_marginals,
    rng_from_seed,
    split,
    train,
)
from dataclasses import replace

from efy import losses

from support import margin_uniform


def linear_teacher_data(n, d, k, seed, margin=0.3):
    """Labels from the sign of a fixed linear score, margin enforced."""
    rng = rng_from_seed(seed)
    W = rng.standard_normal((k, d))
    rows = []
    while len(rows) < n:
        x = rng.standard_normal(d)
        z = W @ x
        if float(np.min(np.abs(z))) >= margin:
            rows.append((x, (z > 0).astype(float)))
    X = np.array([r[0] for r in rows])
    Y = np.array([r[1] for r in rows])
    return MultilabelDataset(X, Y)


def small_dataset(seed=0, n=16, d=4, k=2):
    rng = rng_from_seed(seed)
    return MultilabelDataset(
        rng.standard_normal((n, d)), (rng.uniform(size=(n, k)) < 0.5).astype(float)
    )


class TestDeterminism:
    def test_bit_identical_reports(self):
        ds = small_dataset()
        dev = small_dataset(seed=1, n=8)
        model = make_model("unary", d=4, k=2, hidden=2)
        reg = GiniBinary(1.0, 2)
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-2, seed=5)
        a = train(model, reg, ds, cfg, dev_ds=dev)
        b = train(model, reg, ds, cfg, dev_ds=dev)
        np.testing.assert_array_equal(model.params_to_vec(a.params), model.params_to_vec(b.params))
        assert a.train_loss == b.train_loss
        assert a.dev_accuracy == b.dev_accuracy
        c = train(model, reg, ds, replace(cfg, seed=6), dev_ds=dev)
        assert a.train_loss != c.train_loss


class TestGradients:
    def gradient_case(self, loss_kind, l2):
        rng = rng_from_seed(2)
        model = make_model("unary", d=3, k=2, hidden=2)
        reg = GiniBinary(1.0, 2)
        cfg = TrainConfig(loss=loss_kind, l2_weight=l2)
        while True:
            params = model.init_params(int(rng.integers(1 << 30)))
            X = rng.standard_normal((3, 3))
            Y = (rng.uniform(size=(3, 2)) < 0.5).astype(float)
            z_ok = all(
                float(np.min(np.abs(params.W1 @ x + params.b1))) > 1e-3 for x in X
            )
            P = predict_marginals(model, params, reg, X, cfg.solver)
            p_ok = float(np.min(np.minimum(P, 1.0 - P))) > 1e-2
            if z_ok and (p_ok or loss_kind == "energy"):
                break

        grad, val = batch_gradient(model, params, reg, loss_kind, X, Y, l2, cfg.solver)
        assert val == pytest.approx(
            objective_value(model, params, reg, loss_kind, X, Y, l2, cfg.solver)
        )
        fd = finite_diff_grad(
            lambda vec: objective_value(
                model, model.vec_to_params(vec), reg, loss_kind, X, Y, l2, cfg.solver
            ),
            model.params_to_vec(params),
        )
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert float(np.max(np.abs(grad - fd))) <= 1e-4 * scale

    def test_gfy_gradient_matches_objective(self):
        self.gradient_case("gfy", l2=0.0)

    def test_gfy_gradient_with_ridge(self):
        self.gradient_case("gfy", l2=0.3)

    def test_energy_gradient(self):
        self.gradient_case("energy", l2=0.1)


class TestTrainingRuns:
    def test_loss_decreases_on_teacher_data(self):
        ds = linear_teacher_data(n=48, d=4, k=2, seed=3)
        model = make_model("unary", d=4, k=2, hidden=3)
        reg = ShannonBinary(1.0, 2)
        cfg = TrainConfig(epochs=30, batch_size=8, learning_rate=3e-2, seed=0)
        rep = train(model, reg, ds, cfg)
        first = float(np.mean(rep.train_loss[:5]))
        last = float(np.mean(rep.train_loss[-5:]))
        assert last < first
        assert evaluate_accuracy(model, rep.params, reg, ds, cfg.solver) >= 0.8

    def test_huge_ridge_shrinks_parameters(self):
        ds = small_dataset(n=8)
        model = make_model("unary", d=4, k=2, hidden=2)
        reg = GiniBinary(1.0, 2)
        cfg = TrainConfig(epochs=10, batch_size=4, learning_rate=5e-2, l2_weight=1e6, seed=0)
        rep = train(model, reg, ds, cfg)
        init_norm = float(np.linalg.norm(model.params_to_vec(model.init_params(0))))
        final_norm = float(np.linalg.norm(model.params_to_vec(rep.params)))
        assert final_norm < 0.5 * init_norm

    def test_divergence_names_a_sample(self):
        ds = small_dataset(n=8)
        model = make_model("unary", d=4, k=2, hidden=2)
        reg = GiniBinary(1.0, 2)
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=1e155, seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergence, match="sample"):
                train(model, reg, ds, cfg)

    def test_divergence_names_the_dataset_row(self):
        # batches are shuffled slices, so the row is not the batch's first index plus i
        ds = planted_pairwise(40, 4, 2, seed=0)
        ds.X[17, 0] = np.nan
        model = make_model("unary", d=4, k=2)
        cfg = TrainConfig(batch_size=8, seed=0)
        with pytest.raises(TrainingDivergence, match=r"diverged at sample 17:"):
            train(model, GiniBinary(1.0, 2), ds, cfg)

    def test_dimension_mismatch(self):
        ds = small_dataset()
        model = make_model("unary", d=5, k=2)
        with pytest.raises(ContractViolation):
            train(model, GiniBinary(1.0, 2), ds, TrainConfig(epochs=1))

    def test_empty_split(self):
        empty, _ = split(planted_pairwise(3, 4, 3, seed=0), (0.1, 0.9), seed=0)
        assert empty.n == 0
        model = make_model("unary", d=4, k=3, hidden=2)
        with pytest.raises(ContractViolation, match="empty"):
            train(model, GiniBinary(1.0, 3), empty, TrainConfig(epochs=1))
        with pytest.raises(ContractViolation, match="empty"):
            evaluate_accuracy(model, model.init_params(0), GiniBinary(1.0, 3), empty)

    def test_predicted_marginals_live_in_the_box(self):
        ds = small_dataset()
        model = make_model("pairwise", d=4, k=2, hidden=2)
        reg = GiniBinary(1.0, 2)
        P = predict_marginals(model, model.init_params(0), reg, ds.X)
        assert P.shape == (ds.n, 2)
        assert float(P.min()) >= 0.0 and float(P.max()) <= 1.0


class TestBatchAxis:
    def test_an_empty_matrix_predicts_an_empty_matrix(self):
        for arch in ("unary", "pairwise", "spen"):
            model = make_model(arch, d=4, k=3, hidden=2, prior_hidden=2)
            out = predict_marginals(model, model.init_params(0), GiniBinary(1.0, 3), np.zeros((0, 4)))
            assert out.shape == (0, 3), arch

    @pytest.mark.parametrize("arch", ["unary", "pairwise", "spen"])
    def test_one_forward_and_one_vjp_per_batch_and_one_solve_per_row(self, arch, monkeypatch):
        ds = planted_pairwise(6, 4, 3, seed=1)
        model = make_model(arch, d=4, k=3, hidden=2, prior_hidden=2)
        calls = {"forward": 0, "vjp": 0, "conjugate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(model, "forward", counted("forward", model.forward))
        monkeypatch.setattr(model, "vjp", counted("vjp", model.vjp))
        monkeypatch.setattr(losses, "conjugate", counted("conjugate", losses.conjugate))
        batch_gradient(model, model.init_params(0), GiniBinary(1.0, 3), "gfy", ds.X, ds.Y, 0.0, SolverConfig(max_iters=50))
        assert calls == {"forward": 1, "vjp": 1, "conjugate": 6}


class TestHyperparamSearch:
    def test_single_cell_equals_plain_refit(self):
        ds = small_dataset(n=12)
        model = make_model("unary", d=4, k=2, hidden=2)
        reg = GiniBinary(1.0, 2)
        base = TrainConfig(epochs=2, batch_size=4, seed=0)
        out = hyperparam_search(
            model, reg, ds, base, l2_grid=(0.01,), lr_grid=(0.02,), seeds=(0,)
        )
        assert (out.best_l2, out.best_lr) == (0.01, 0.02)
        direct = train(model, reg, ds, replace(base, l2_weight=0.01, learning_rate=0.02))
        np.testing.assert_array_equal(
            model.params_to_vec(out.report.params), model.params_to_vec(direct.params)
        )

    def test_ties_prefer_smaller_ridge_then_smaller_rate(self):
        # learning rates this small leave the accuracies identical in every cell
        ds = small_dataset(n=12)
        model = make_model("unary", d=4, k=2, hidden=2)
        reg = GiniBinary(1.0, 2)
        base = TrainConfig(epochs=1, batch_size=4, seed=0)
        out = hyperparam_search(
            model, reg, ds, base,
            l2_grid=(0.1, 0.001), lr_grid=(1e-9, 1e-8), seeds=(0,),
        )
        assert (out.best_l2, out.best_lr) == (0.001, 1e-9)
        accs = {row["dev_accuracy"] for row in out.table}
        assert len(accs) == 1
        assert len(out.table) == 4


class TestConfigValidation:
    def test_rejections(self):
        with pytest.raises(ContractViolation):
            TrainConfig(loss="nope")
        with pytest.raises(ContractViolation):
            TrainConfig(epochs=0)
        with pytest.raises(ContractViolation):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ContractViolation):
            TrainConfig(l2_weight=-1.0)
