import numpy as np
import pytest

from efy import (
    ContractViolation,
    EvaluationError,
    PriorWeights,
    SingularMatrixError,
    SpenInput,
    conjugate,
    LinQuadInput,
    LinearQuadraticEnergy,
    PairwiseInput,
    make_regularizer,
    reals,
)
from efy.numerics import (
    finite_diff_grad,
    flatten,
    is_negative_semidefinite,
    rel_err,
    rng_from_seed,
    row,
    solve_spd,
    stack,
    unflatten,
    walk,
)

from support import feasible_linquad, random_spd


class TestFiniteDiffGrad:
    def test_quadratic_is_exact(self):
        g = finite_diff_grad(lambda v: 0.5 * float(v @ v), np.array([3.0, 4.0]))
        np.testing.assert_allclose(g, [3.0, 4.0], atol=1e-8)

    def test_linear_is_exact(self):
        c = np.array([1.0, -2.0])
        for v in (np.zeros(2), np.array([5.0, -7.0])):
            g = finite_diff_grad(lambda w: float(c @ w), v)
            np.testing.assert_allclose(g, c, atol=1e-9)

    def test_degree_two_polynomials_exact(self):
        # central differences are exact on quadratics up to round-off
        rng = rng_from_seed(11)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            A = rng.standard_normal((n, n))
            b = rng.standard_normal(n)
            c = float(rng.standard_normal())
            f = lambda v: float(v @ A @ v + b @ v + c)
            v = rng.standard_normal(n)
            expect = (A + A.T) @ v + b
            assert rel_err(finite_diff_grad(f, v), expect) <= 1e-8

    def test_matches_envelope_gradient_on_quadratic_conjugate(self):
        rng = rng_from_seed(3)
        energy = LinearQuadraticEnergy(3)
        reg = make_regularizer("squared_l2", 3, gamma=1.0, domain=reals(3))
        for _ in range(10):
            v = feasible_linquad(rng, 3, 1.0)
            res = conjugate(energy, reg, v)
            fd = finite_diff_grad(
                lambda w: conjugate(energy, reg, energy.vec_to_input(w), None).value,
                energy.input_to_vec(v),
            )
            assert rel_err(fd, energy.input_to_vec(res.envelope_grad)) <= 1e-5

    def test_non_finite_objective_raises(self):
        with pytest.raises(EvaluationError):
            finite_diff_grad(lambda v: float("nan"), np.zeros(2))


class TestIsNegativeSemidefinite:
    def test_negative_identity(self):
        assert is_negative_semidefinite(-np.eye(2))

    def test_zero_matrix_boundary(self):
        assert is_negative_semidefinite(np.zeros((2, 2)))

    def test_rank_one_gram(self):
        rng = rng_from_seed(0)
        for _ in range(50):
            a = rng.standard_normal(4)
            assert is_negative_semidefinite(-np.outer(a, a))

    @pytest.mark.parametrize("scale", [1e6, 1e8])
    def test_rank_one_gram_at_large_scale(self, scale):
        # eigenvalue rounding grows with the entries, so the tolerance must too
        rng = rng_from_seed(0)
        for _ in range(20):
            a = scale * rng.standard_normal(4)
            assert is_negative_semidefinite(-np.outer(a, a))
            assert not is_negative_semidefinite(-np.outer(a, a) + 1e-6 * scale**2 * np.eye(4))

    def test_positive_definite_rejected(self):
        assert not is_negative_semidefinite(np.eye(3))

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ContractViolation):
            is_negative_semidefinite(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSolveSpd:
    def test_scaled_identity(self):
        np.testing.assert_allclose(solve_spd(2.0 * np.eye(2), [2.0, 4.0]), [1.0, 2.0])

    def test_two_by_two(self):
        x = solve_spd(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    def test_shifted_quadratic_scalar(self):
        # gamma*I - A with gamma=1, A=-I reduces to scalar division by 2
        M = 1.0 * np.eye(1) - (-np.eye(1))
        np.testing.assert_allclose(solve_spd(M, [1.0]), [0.5])

    def test_residual_bound_random_systems(self):
        rng = rng_from_seed(7)
        for _ in range(1000):
            n = int(rng.integers(1, 33))
            M = random_spd(rng, n)
            b = rng.standard_normal(n)
            x = solve_spd(M, b)
            resid = float(np.max(np.abs(M @ x - b)))
            assert resid <= 1e-10 * (1.0 + float(np.max(np.abs(b))))

    def test_non_pd_names_failing_pivot(self):
        M = np.diag([1.0, -2.0, 3.0])
        with pytest.raises(SingularMatrixError) as err:
            solve_spd(M, np.ones(3))
        assert err.value.pivot == 1
        assert "pivot 1" in str(err.value)

    def test_solve_rejects_indefinite(self):
        with pytest.raises(SingularMatrixError):
            solve_spd(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 1.0]))


class TestRng:
    def test_same_seed_same_stream(self):
        a = rng_from_seed(123).standard_normal(100)
        b = rng_from_seed(123).standard_normal(100)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = rng_from_seed(1).standard_normal(10)
        b = rng_from_seed(2).standard_normal(10)
        assert not np.array_equal(a, b)


def spen_input_like() -> SpenInput:
    w = PriorWeights(W1=np.zeros((3, 2)), b1=np.zeros(3), W2=np.zeros(3), b2=0.0)
    return SpenInput(u=np.zeros(2), w=w)


class TestFlatten:
    def test_walk_names_leaves_in_field_order(self):
        assert [name for name, _ in walk(spen_input_like())] == ["u", "w.W1", "w.b1", "w.W2", "w.b2"]
        assert [name for name, _ in walk(np.zeros(3))] == [""]

    def test_unflatten_inverts_flatten_with_copies(self):
        vec = np.arange(15.0)
        tree = unflatten(spen_input_like(), vec)
        np.testing.assert_array_equal(flatten(tree), vec)
        assert tree.w.W1.shape == (3, 2)
        assert type(tree.w.b2) is float and tree.w.b2 == 14.0
        tree.u[0] = -1.0
        assert vec[0] == 0.0

    def test_size_mismatch_raises(self):
        for size in (14, 16):
            with pytest.raises(ContractViolation):
                unflatten(spen_input_like(), np.zeros(size))


class TestBatchAxis:
    def test_row_of_stack_round_trips(self):
        rng = rng_from_seed(4)
        draws = {
            "array": lambda: rng.standard_normal(3),
            "pairwise": lambda: PairwiseInput(u=rng.standard_normal(2), U=rng.standard_normal((2, 2))),
            "linquad": lambda: LinQuadInput(A=rng.standard_normal((2, 2)), b=rng.standard_normal(2)),
            "spen": lambda: unflatten(spen_input_like(), rng.standard_normal(15)),
        }
        for kind, draw in draws.items():
            trees = [draw() for _ in range(3)]
            batch = stack(trees)
            assert all(np.shape(leaf)[0] == 3 for _, leaf in walk(batch)), kind
            for i, tree in enumerate(trees):
                back = row(batch, i)
                assert type(back) is type(tree), kind
                assert [name for name, _ in walk(back)] == [name for name, _ in walk(tree)], kind
                np.testing.assert_array_equal(flatten(back), flatten(tree), err_msg=kind)
        assert type(trees[0].w.b2) is float and row(batch, 0).w.b2 == trees[0].w.b2
