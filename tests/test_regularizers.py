import numpy as np
import pytest

from efy import (
    ContractViolation,
    DomainBoundaryError,
    GiniBinary,
    Indicator,
    ShannonBinary,
    ShannonSimplex,
    SquaredL2,
    UnsupportedOperation,
    box,
    box01,
    lse,
    make_regularizer,
    reals,
    rng_from_seed,
    simplex,
    softmax,
)

from efy.regularizers import REGULARIZER_KINDS

from support import box_grid, grid_conjugate_linear, simplex_grid


def all_kinds(k=2):
    return [
        SquaredL2(1.0, box01(k)),
        SquaredL2(0.5, reals(k)),
        ShannonBinary(1.0, k),
        ShannonBinary(2.0, k),
        GiniBinary(1.0, k),
        GiniBinary(0.5, k),
        ShannonSimplex(1.0, k),
    ]


def domain_sample(reg, rng):
    kind = reg.domain.kind
    if kind == "box":
        return rng.uniform(reg.domain.lo + 1e-3, reg.domain.hi - 1e-3)
    if kind == "simplex":
        return rng.dirichlet(np.ones(reg.domain.dim))
    return rng.standard_normal(reg.domain.dim)


class TestOutputSet:
    def test_box01_contains_binary_corners(self):
        dom = box01(3)
        assert dom.contains(np.zeros(3)) and dom.contains(np.ones(3))
        assert not dom.contains(np.array([0.5, 1.5, 0.0]))

    def test_simplex_membership_and_projection(self):
        dom = simplex(3)
        assert dom.contains(np.array([0.2, 0.3, 0.5]))
        assert not dom.contains(np.array([0.5, 0.6, 0.2]))
        p = dom.project(np.array([1.0, 2.0, -5.0]))
        assert abs(p.sum() - 1.0) <= 1e-12 and np.all(p >= 0)

    def test_box_projection_clips(self):
        dom = box01(2)
        np.testing.assert_allclose(dom.project([2.0, -1.0]), [1.0, 0.0])

    def test_center(self):
        np.testing.assert_allclose(box01(2).center(), [0.5, 0.5])
        np.testing.assert_allclose(simplex(2).center(), [0.5, 0.5])


class TestValues:
    def test_squared_l2_value(self):
        assert SquaredL2(1.0, reals(2)).value([3.0, 4.0]) == pytest.approx(12.5)

    def test_gini_vanishes_at_binary_corners(self):
        reg = GiniBinary(1.0, 2)
        assert reg.value([0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_indicator_outside_box_is_infinite(self):
        reg = Indicator(box01(2))
        assert np.isinf(reg.value([0.5, 1.5]))
        assert reg.value([0.5, 0.5]) == 0.0
        assert reg.gamma == 0.0 and reg.strong_convexity == 0.0

    def test_outside_domain_is_infinite(self):
        for reg in all_kinds(2):
            if reg.domain.kind == "box":
                assert np.isinf(reg.value([-0.5, 0.5]))

    def test_entropy_boundary_convention(self):
        # 0*log(0) treated as 0: finite value, no warning blowup
        assert np.isfinite(ShannonBinary(1.0, 2).value([0.0, 1.0]))
        assert ShannonSimplex(1.0, 2).value([1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_entropy_boundary_gradient_errors(self):
        with pytest.raises(DomainBoundaryError):
            ShannonBinary(1.0, 2).grad([0.0, 0.5])
        with pytest.raises(DomainBoundaryError):
            ShannonSimplex(1.0, 2).grad([1.0, 0.0])


class TestClosedFormMaps:
    def test_squared_l2_over_reals_is_identity(self):
        np.testing.assert_allclose(SquaredL2(1.0, reals(2)).argmax_map([3.0, 4.0]), [3.0, 4.0])

    def test_shannon_binary_symmetry_point(self):
        np.testing.assert_allclose(ShannonBinary(1.0, 1).argmax_map([0.0]), [0.5])

    def test_gini_stationary_and_clipped(self):
        reg = GiniBinary(1.0, 1)
        np.testing.assert_allclose(reg.argmax_map([-0.5]), [0.25])
        np.testing.assert_allclose(reg.argmax_map([2.0]), [1.0])

    def test_shannon_simplex_uniform(self):
        np.testing.assert_allclose(ShannonSimplex(1.0, 3).argmax_map([0.0, 0.0, 0.0]), np.full(3, 1 / 3))

    def test_indicator_has_no_closed_form_on_simplex(self):
        with pytest.raises(UnsupportedOperation):
            Indicator(simplex(2)).argmax_map(np.array([1.0, 0.0]))

    def test_maps_match_grid_brute_force(self):
        # independent oracle: exhaustive search over a 1e-3 grid, k=2
        rng = rng_from_seed(5)
        grid = box_grid(2, 1e-3)
        sgrid = simplex_grid(1e-3)
        cases = [
            (SquaredL2(1.0, box01(2)), "squared_l2", grid),
            (GiniBinary(1.0, 2), "gini_binary", grid),
            (GiniBinary(0.5, 2), "gini_binary", grid),
            (ShannonBinary(1.0, 2), "shannon_binary", grid),
            (ShannonSimplex(1.0, 2), "shannon_simplex", sgrid),
        ]
        for reg, kind, g in cases:
            for _ in range(5):
                u = rng.uniform(-2.0, 2.0, size=2)
                _, p_grid = grid_conjugate_linear(u, kind, reg.gamma, g)
                p_map = reg.argmax_map(u)
                assert float(np.max(np.abs(p_map - p_grid))) <= 2e-3

    def test_map_lies_in_domain(self):
        rng = rng_from_seed(9)
        for reg in all_kinds(3):
            for _ in range(20):
                u = rng.uniform(-5.0, 5.0, size=3)
                assert reg.domain.contains(reg.argmax_map(u), tol=1e-9)

    def test_conjugate_value_consistency(self):
        # conjugate value must equal the bilinear objective at the map output
        rng = rng_from_seed(13)
        for reg in all_kinds(3):
            for _ in range(10):
                u = rng.uniform(-3.0, 3.0, size=3)
                p = reg.argmax_map(u)
                direct = float(u @ p) - reg.value(p)
                assert abs(reg.conjugate_value(u) - direct) <= 1e-10 * (1 + abs(direct))


class TestLse:
    def test_two_zeros(self):
        assert lse([0.0, 0.0], 1.0) == pytest.approx(np.log(2.0))

    def test_overflow_safety(self):
        val = lse([1000.0, 0.0], 1.0)
        assert np.isfinite(val)
        assert val == pytest.approx(1000.0, abs=1e-9)

    def test_small_gamma_approaches_max(self):
        rng = rng_from_seed(2)
        for _ in range(50):
            u = rng.uniform(-3.0, 3.0, size=5)
            assert abs(lse(u, 1e-4) - float(u.max())) <= 1e-3

    def test_softmax_matches_lse_gradient(self):
        rng = rng_from_seed(4)
        u = rng.standard_normal(4)
        s = softmax(u, 0.7)
        assert s.sum() == pytest.approx(1.0)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (lse(u + e, 0.7) - lse(u - e, 0.7)) / (2 * h)
            assert fd == pytest.approx(s[i], abs=1e-8)


class TestConvexityProperties:
    def test_strong_convexity_chords(self):
        rng = rng_from_seed(21)
        for reg in all_kinds(3):
            mu = reg.strong_convexity
            for _ in range(200):
                p = domain_sample(reg, rng)
                q = domain_sample(reg, rng)
                t = float(rng.uniform(0.05, 0.95))
                mid = t * p + (1 - t) * q
                lhs = reg.value(mid)
                rhs = (
                    t * reg.value(p)
                    + (1 - t) * reg.value(q)
                    - 0.5 * mu * t * (1 - t) * float(np.sum((p - q) ** 2))
                )
                assert lhs <= rhs + 1e-9

    def test_map_is_inverse_strong_convexity_lipschitz(self):
        rng = rng_from_seed(22)
        for reg in all_kinds(3):
            if reg.strong_convexity <= 0:
                continue
            lip = 1.0 / reg.strong_convexity
            for _ in range(200):
                u1 = rng.uniform(-4.0, 4.0, size=3)
                u2 = rng.uniform(-4.0, 4.0, size=3)
                d_p = float(np.linalg.norm(reg.argmax_map(u1) - reg.argmax_map(u2)))
                d_u = float(np.linalg.norm(u1 - u2))
                assert d_p <= lip * d_u + 1e-9

    def test_strong_convexity_constants(self):
        assert SquaredL2(0.7, reals(2)).strong_convexity == pytest.approx(0.7)
        assert GiniBinary(0.7, 2).strong_convexity == pytest.approx(1.4)
        assert ShannonBinary(0.7, 2).strong_convexity == pytest.approx(2.8)
        assert ShannonSimplex(0.7, 2).strong_convexity == pytest.approx(0.7)


class TestFactoryAndRestriction:
    def test_factory_kinds(self):
        assert isinstance(make_regularizer("squared_l2", 2), SquaredL2)
        assert isinstance(make_regularizer("shannon_binary", 2), ShannonBinary)
        assert isinstance(make_regularizer("gini_binary", 2), GiniBinary)
        assert isinstance(make_regularizer("shannon_simplex", 2), ShannonSimplex)
        assert isinstance(make_regularizer("indicator", 2), Indicator)
        with pytest.raises(ContractViolation):
            make_regularizer("nope", 2)

    def test_restriction_narrows_domain(self):
        from efy import restrict

        base = GiniBinary(1.0, 2)
        sub = restrict(base, box(np.array([0.2, 0.2]), np.array([0.8, 0.8])))
        assert np.isinf(sub.value([0.1, 0.5]))
        assert np.isfinite(sub.value([0.5, 0.5]))
        assert sub.value([0.5, 0.5]) == pytest.approx(base.value([0.5, 0.5]))


class TestBatchAxis:
    @pytest.mark.parametrize(
        "reg",
        [make_regularizer(kind, 3, gamma=0.7) for kind in REGULARIZER_KINDS]
        + [SquaredL2(0.7, box01(3)), SquaredL2(0.7, simplex(3)), Indicator(box(-np.ones(3), np.ones(3)))],
        ids=lambda reg: f"{reg.kind}-{reg.domain.kind}",
    )
    def test_each_row_of_a_batch_is_the_single_row_call(self, reg):
        rng = rng_from_seed(21)
        U = 2.0 * rng.standard_normal((4, 3))
        P = np.array([domain_sample(reg, rng) for _ in range(3)] + [np.full(3, 5.0)])  # the last row lies outside
        batched = {
            "argmax_map": reg.argmax_map(U),
            "conjugate_value": reg.conjugate_value(U),
            "value": reg.value(P),
            "contains": reg.domain.contains(P),
            "grad": reg.grad(P[:3]),  # a gradient needs every row inside the domain
        }
        assert batched["argmax_map"].shape == (4, 3) and batched["grad"].shape == (3, 3)
        assert all(np.shape(batched[name]) == (4,) for name in ("conjugate_value", "value", "contains"))
        for i in range(4):
            np.testing.assert_array_equal(batched["argmax_map"][i], reg.argmax_map(U[i]))
            assert batched["conjugate_value"][i] == reg.conjugate_value(U[i])
            assert batched["value"][i] == reg.value(P[i])
            assert batched["contains"][i] == reg.domain.contains(P[i])
        for i in range(3):
            np.testing.assert_array_equal(batched["grad"][i], reg.grad(P[i]))
        assert batched["contains"].tolist() == [True, True, True, reg.domain.kind == "reals"]
        if reg.domain.kind != "reals":
            with pytest.raises(ContractViolation, match="outside"):
                reg.grad(P)
