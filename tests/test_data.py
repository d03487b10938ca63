import numpy as np
import pytest

from efy import (
    ContractViolation,
    MultilabelDataset,
    ParseError,
    format_libsvm_multilabel,
    parse_libsvm_multilabel,
    planted_pairwise,
    split,
    standardize,
)


class TestParse:
    def test_reference_line(self):
        ds = parse_libsvm_multilabel("1,3 2:0.5 4:1.0", n_features=4, n_labels=4)
        np.testing.assert_array_equal(ds.Y, [[1.0, 0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(ds.X, [[0.0, 0.5, 0.0, 1.0]])

    def test_label_free_line(self):
        ds = parse_libsvm_multilabel("1:2.0", n_features=1, n_labels=2)
        np.testing.assert_array_equal(ds.Y, [[0.0, 0.0]])
        np.testing.assert_array_equal(ds.X, [[2.0]])

    def test_dimension_inference_and_blank_lines(self):
        text = "2 1:1.0\n\n1 3:0.25\n"
        ds = parse_libsvm_multilabel(text)
        assert (ds.n, ds.d, ds.k) == (2, 3, 2)
        np.testing.assert_array_equal(ds.Y, [[0.0, 1.0], [1.0, 0.0]])

    def test_round_trip(self):
        rng = np.random.default_rng(42)
        X = np.where(rng.uniform(size=(20, 6)) < 0.4, rng.standard_normal((20, 6)), 0.0)
        Y = (rng.uniform(size=(20, 3)) < 0.5).astype(float)
        ds = MultilabelDataset(X, Y)
        back = parse_libsvm_multilabel(format_libsvm_multilabel(ds), n_features=6, n_labels=3)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.Y, ds.Y)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm_multilabel("1 1:1.0\n1 0:2.0")
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm_multilabel("1 5:1.0", n_features=3)
        with pytest.raises(ParseError, match="line 3"):
            parse_libsvm_multilabel("1 1:1.0\n2 1:1.0\n1 1:abc")
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm_multilabel("1 1:1.0\nx,2 1:1.0")
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm_multilabel("3 1:1.0", n_labels=2)

    def test_non_finite_feature_values_are_refused(self):
        for value in ("nan", "inf", "-inf", "1e999"):
            with pytest.raises(ParseError, match="line 2.*not finite"):
                parse_libsvm_multilabel(f"1 1:1.0\n1 1:{value} 2:1")

    def test_empty_input_needs_declared_dims(self):
        with pytest.raises(ParseError):
            parse_libsvm_multilabel("")


class TestSplit:
    def make(self, n, d=3, k=2, seed=0):
        rng = np.random.default_rng(seed)
        return MultilabelDataset(
            rng.standard_normal((n, d)), (rng.uniform(size=(n, k)) < 0.5).astype(float)
        )

    def test_sizes_and_partition(self):
        ds = self.make(10)
        tr, te = split(ds, [0.8, 0.2], seed=1)
        assert tr.n == 8 and te.n == 2
        rows = {tuple(x) for x in np.vstack([tr.X, te.X])}
        assert rows == {tuple(x) for x in ds.X}

    def test_deterministic(self):
        ds = self.make(50)
        a1, b1 = split(ds, [0.6, 0.4], seed=5)
        a2, b2 = split(ds, [0.6, 0.4], seed=5)
        np.testing.assert_array_equal(a1.X, a2.X)
        np.testing.assert_array_equal(b1.Y, b2.Y)
        a3, _ = split(ds, [0.6, 0.4], seed=6)
        assert not np.array_equal(a1.X, a3.X)

    def test_three_way(self):
        ds = self.make(100)
        tr, dev, te = split(ds, [0.7, 0.1, 0.2], seed=2)
        assert (tr.n, dev.n, te.n) == (70, 10, 20)

    def test_roughly_stratified(self):
        # a permutation split keeps label rates near the population rate
        ds = self.make(600, k=1, seed=3)
        rate = ds.Y.mean()
        tr, te = split(ds, [0.5, 0.5], seed=7)
        assert abs(tr.Y.mean() - rate) <= 0.3 * max(rate, 1e-9)
        assert abs(te.Y.mean() - rate) <= 0.3 * max(rate, 1e-9)

    def test_bad_fractions(self):
        ds = self.make(10)
        with pytest.raises(ContractViolation):
            split(ds, [0.8, 0.3], seed=0)
        with pytest.raises(ContractViolation):
            split(ds, [0.5, -0.1], seed=0)
        with pytest.raises(ContractViolation):
            split(ds, [], seed=0)


class TestStandardize:
    def test_train_moments(self):
        rng = np.random.default_rng(8)
        tr = MultilabelDataset(
            3.0 + 2.0 * rng.standard_normal((200, 4)), np.zeros((200, 2))
        )
        out, st = standardize(tr)
        np.testing.assert_allclose(out.X.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.X.std(axis=0), 1.0, atol=1e-6)
        np.testing.assert_allclose(st.mean, tr.X.mean(axis=0))

    def test_constant_column_gets_unit_scale(self):
        X = np.column_stack([np.full(10, 7.0), np.arange(10, dtype=float)])
        tr = MultilabelDataset(X, np.zeros((10, 1)))
        out, st = standardize(tr)
        assert st.std[0] == 1.0
        np.testing.assert_allclose(out.X[:, 0], 0.0, atol=1e-12)

    def test_no_leakage_into_other_splits(self):
        rng = np.random.default_rng(9)
        tr = MultilabelDataset(rng.standard_normal((50, 3)), np.zeros((50, 1)))
        te = MultilabelDataset(5.0 + rng.standard_normal((20, 3)), np.zeros((20, 1)))
        tr2, te2, st = standardize(tr, te)
        np.testing.assert_allclose(te2.X, (te.X - st.mean) / st.std)
        assert abs(te2.X.mean()) > 1.0  # the shifted split stays shifted

    def test_labels_untouched(self):
        rng = np.random.default_rng(10)
        Y = (rng.uniform(size=(30, 2)) < 0.5).astype(float)
        tr = MultilabelDataset(rng.standard_normal((30, 2)), Y)
        out, _ = standardize(tr)
        np.testing.assert_array_equal(out.Y, Y)


class TestPlanted:
    def test_shapes_types_determinism(self):
        a = planted_pairwise(40, 6, 3, seed=0)
        b = planted_pairwise(40, 6, 3, seed=0)
        assert (a.n, a.d, a.k) == (40, 6, 3)
        assert set(np.unique(a.Y)) <= {0.0, 1.0}
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)
        c = planted_pairwise(40, 6, 3, seed=1)
        assert not np.array_equal(a.Y, c.Y)

    def test_truth_marginals_are_feasible(self):
        ds, truth = planted_pairwise(30, 5, 4, seed=2, return_truth=True)
        P = truth["p_star"]
        assert P.shape == (30, 4)
        assert float(P.min()) >= 0.0 and float(P.max()) <= 1.0
        assert truth["A"].shape == (4, 5)
        # every realized coupling is rank-one NSD by construction
        a = truth["A"] @ ds.X[0]
        eig = np.linalg.eigvalsh(-np.outer(a, a))
        assert float(eig.max()) <= 1e-10

    def test_coupling_changes_the_law(self):
        flat = planted_pairwise(200, 5, 3, seed=3, coupling=0.0)
        bent = planted_pairwise(200, 5, 3, seed=3, coupling=6.0)
        assert not np.array_equal(flat.Y, bent.Y)

    def test_bad_dimensions(self):
        with pytest.raises(ContractViolation):
            planted_pairwise(0, 3, 2, seed=0)


class TestDatasetContracts:
    def test_label_values_checked(self):
        with pytest.raises(ContractViolation):
            MultilabelDataset(np.zeros((2, 2)), np.array([[0.0, 0.5], [1.0, 0.0]]))

    def test_row_count_mismatch(self):
        with pytest.raises(ContractViolation):
            MultilabelDataset(np.zeros((3, 2)), np.zeros((2, 2)))
