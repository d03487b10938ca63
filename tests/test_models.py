import json
import tracemalloc

import numpy as np
import pytest

from efy import (
    ContractViolation,
    GiniBinary,
    MLPParams,
    PairwiseInput,
    ParseError,
    PriorWeights,
    SolverConfig,
    SpenInput,
    SquaredL2,
    box01,
    default_hidden,
    finite_diff_grad,
    gfy_loss,
    is_negative_semidefinite,
    load_params,
    make_model,
    rng_from_seed,
    save_params,
)

from efy.models import ARCHITECTURES
from efy.numerics import rel_err, row, stack, walk

from support import margin_uniform, rewrite_params_header

TIGHT = SolverConfig(tol=1e-10)


def unary_forward_oracle(p, x):
    # deliberately scalar-looped re-implementation of the one-hidden-layer map
    m, d = p.W1.shape
    k = p.W2.shape[0]
    h = [max(0.0, sum(p.W1[j, i] * x[i] for i in range(d)) + p.b1[j]) for j in range(m)]
    return np.array([sum(p.W2[c, j] * h[j] for j in range(m)) + p.b2[c] for c in range(k)])


def sampled_model_point(model, rng, margin=1e-3):
    """Draw (params, x) with every relu preactivation away from its kink."""
    while True:
        params = model.init_params(int(rng.integers(1 << 30)))
        x = rng.standard_normal(model.d)
        unary = params if isinstance(params, MLPParams) else params.unary
        z = unary.W1 @ x + unary.b1
        if float(np.min(np.abs(z))) > margin:
            return params, x


class TestForward:
    def test_zero_weights_yield_bias(self):
        model = make_model("unary", d=4, k=3, hidden=2)
        params = MLPParams(
            W1=np.zeros((2, 4)), b1=np.zeros(2), W2=np.zeros((3, 2)), b2=np.array([0.5, -1.0, 2.0])
        )
        np.testing.assert_array_equal(model.forward(params, np.ones(4)), [0.5, -1.0, 2.0])

    def test_pairwise_with_zero_head_reduces_to_unary(self):
        rng = rng_from_seed(0)
        pw = make_model("pairwise", d=5, k=3, hidden=3)
        un = make_model("unary", d=5, k=3, hidden=3)
        params = pw.init_params(1)
        params.WA[:] = 0.0
        params.bA[:] = 0.0
        reg = GiniBinary(1.0, 3)
        for _ in range(10):
            x = rng.standard_normal(5)
            out = pw.forward(params, x)
            np.testing.assert_array_equal(out.U, np.zeros((3, 3)))
            np.testing.assert_array_equal(out.u, un.forward(params.unary, x))
            p_pw = gfy_loss(pw.energy(), reg, out, np.zeros(3), TIGHT).conjugate.argmax
            p_un = gfy_loss(un.energy(), reg, out.u, np.zeros(3)).conjugate.argmax
            np.testing.assert_allclose(p_pw, p_un, atol=1e-9)

    def test_forward_matches_independent_evaluator(self):
        rng = rng_from_seed(1)
        model = make_model("unary", d=6, k=4, hidden=3)
        for seed in range(10):
            params = model.init_params(seed)
            x = rng.standard_normal(6)
            np.testing.assert_allclose(
                model.forward(params, x), unary_forward_oracle(params, x), atol=1e-12
            )

    def test_pairwise_coupling_always_nsd(self):
        rng = rng_from_seed(2)
        model = make_model("pairwise", d=4, k=3)
        for seed in range(50):
            params = model.init_params(seed)
            U = model.forward(params, rng.standard_normal(4)).U
            assert is_negative_semidefinite(U)

    def test_feature_dimension_checked(self):
        model = make_model("unary", d=4, k=2)
        with pytest.raises(ContractViolation):
            model.forward(model.init_params(0), np.ones(5))


class TestInit:
    def test_deterministic_and_bounded(self):
        model = make_model("pairwise", d=9, k=3)
        a = model.init_params(7)
        b = model.init_params(7)
        np.testing.assert_array_equal(model.params_to_vec(a), model.params_to_vec(b))
        c = model.init_params(8)
        assert float(np.max(np.abs(model.params_to_vec(a) - model.params_to_vec(c)))) > 0
        assert float(np.max(np.abs(a.unary.W1))) <= 1.0 / np.sqrt(9)
        assert float(np.max(np.abs(a.unary.W2))) <= 1.0 / np.sqrt(model.hidden)

    def test_default_hidden_heuristic(self):
        assert default_hidden(1) == 1
        assert default_hidden(12) == 4
        assert default_hidden(600) == 100

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ContractViolation):
            make_model("unary", d=0, k=2)
        with pytest.raises(ContractViolation):
            make_model("mystery", d=3, k=2)
        with pytest.raises(ContractViolation):
            make_model("spen", d=3, k=2, prior_hidden=0)
        with pytest.raises(ContractViolation, match="hidden"):
            make_model("unary", d=3, k=2, hidden=0)


class TestVjp:
    def grad_check(self, model, params, x, grad_v, tol=1e-5):
        got = model.params_to_vec(model.vjp(params, x, grad_v))
        theta = model.params_to_vec(params)

        def f(vec):
            out = model.forward(model.vec_to_params(vec), x)
            if isinstance(out, PairwiseInput):
                return float(grad_v.u @ out.u + np.sum(grad_v.U * out.U))
            if isinstance(out, SpenInput):
                prior = out.w
                gw = grad_v.w
                return float(
                    grad_v.u @ out.u
                    + np.sum(gw.W1 * prior.W1)
                    + gw.b1 @ prior.b1
                    + gw.W2 @ prior.W2
                    + gw.b2 * prior.b2
                )
            return float(grad_v @ out)

        want = finite_diff_grad(f, theta)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(got - want))) <= tol * scale

    def test_unary_against_finite_differences(self):
        rng = rng_from_seed(3)
        model = make_model("unary", d=5, k=3, hidden=4)
        for _ in range(10):
            params, x = sampled_model_point(model, rng)
            self.grad_check(model, params, x, rng.standard_normal(3))

    def test_pairwise_against_finite_differences(self):
        rng = rng_from_seed(4)
        model = make_model("pairwise", d=5, k=3, hidden=3)
        for _ in range(10):
            params, x = sampled_model_point(model, rng)
            grad_v = PairwiseInput(u=rng.standard_normal(3), U=rng.standard_normal((3, 3)))
            self.grad_check(model, params, x, grad_v)

    def test_spen_prior_gradient_passes_through(self):
        rng = rng_from_seed(5)
        model = make_model("spen", d=6, k=3, hidden=3, prior_hidden=2)
        for _ in range(5):
            params, x = sampled_model_point(model, rng)
            prior_grad = type(params.prior)(
                W1=rng.standard_normal((2, 3)),
                b1=rng.standard_normal(2),
                W2=rng.standard_normal(2),
                b2=float(rng.standard_normal()),
            )
            grad_v = SpenInput(u=rng.standard_normal(3), w=prior_grad)
            self.grad_check(model, params, x, grad_v)
            got = model.vjp(params, x, grad_v)
            np.testing.assert_array_equal(got.prior.W1, prior_grad.W1)

    def test_zero_upstream_gradient(self):
        model = make_model("pairwise", d=4, k=2)
        params = model.init_params(0)
        zeros = PairwiseInput(u=np.zeros(2), U=np.zeros((2, 2)))
        got = model.params_to_vec(model.vjp(params, np.ones(4), zeros))
        np.testing.assert_array_equal(got, np.zeros_like(got))

    def test_end_to_end_loss_gradient(self):
        # envelope gradient composed with the hand-written vjp must match
        # finite differences through forward, inner solve, and loss together
        rng = rng_from_seed(6)
        cases = [
            ("unary", GiniBinary(1.0, 3)),
            ("pairwise", GiniBinary(1.0, 3)),
            ("spen", SquaredL2(1.0, box01(3))),
        ]
        for arch, reg in cases:
            model = make_model(arch, d=5, k=3, hidden=3, prior_hidden=2)
            energy = model.energy()
            checked = 0
            while checked < 3:
                params, x = sampled_model_point(model, rng, margin=5e-3)
                y = margin_uniform(rng, 3)
                out = gfy_loss(energy, reg, model.forward(params, x), y, TIGHT)
                p_star = out.conjugate.argmax
                if arch != "spen" and float(np.min(np.minimum(p_star, 1 - p_star))) < 1e-2:
                    continue  # keep clear of the clipped-map kinks
                if arch == "spen":
                    # the prior net has its own relu kinks, at p* and at y
                    zs = [params.prior.W1 @ p + params.prior.b1 for p in (p_star, y)]
                    if min(float(np.min(np.abs(z))) for z in zs) < 1e-2:
                        continue
                got = model.params_to_vec(model.vjp(params, x, out.grad_v))

                def f(vec):
                    v = model.forward(model.vec_to_params(vec), x)
                    return gfy_loss(energy, reg, v, y, TIGHT).value

                want = finite_diff_grad(f, model.params_to_vec(params))
                scale = max(1.0, float(np.max(np.abs(want))))
                assert float(np.max(np.abs(got - want))) <= 1e-4 * scale, arch
                checked += 1


def random_grad_v(model, rng):
    """An upstream gradient shaped like one energy input of ``model``."""
    k = model.k
    if model.architecture == "unary":
        return rng.standard_normal(k)
    if model.architecture == "pairwise":
        return PairwiseInput(u=rng.standard_normal(k), U=rng.standard_normal((k, k)))
    h = model.prior_hidden
    prior = PriorWeights(
        W1=rng.standard_normal((h, k)), b1=rng.standard_normal(h), W2=rng.standard_normal(h), b2=float(rng.standard_normal())
    )
    return SpenInput(u=rng.standard_normal(k), w=prior)


def assert_trees_close(got, want, rtol=1e-12):
    assert [name for name, _ in walk(got)] == [name for name, _ in walk(want)]
    for (name, a), (_, b) in zip(walk(got), walk(want)):
        assert rel_err(a, b) <= rtol, name


class TestBatchAxis:
    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_each_row_of_a_batch_is_the_single_row_map(self, arch, B):
        rng = rng_from_seed(12)
        model = make_model(arch, d=5, k=3, hidden=4, prior_hidden=2)
        params = model.init_params(3)
        X = rng.standard_normal((B, 5))
        V = model.forward(params, X)
        assert all(np.shape(leaf)[0] == B for _, leaf in walk(V))
        for i in range(B):
            assert_trees_close(row(V, i), model.forward(params, X[i]))
        G = [random_grad_v(model, rng) for _ in range(B)]
        per_row = sum(model.params_to_vec(model.vjp(params, X[i], G[i])) for i in range(B))
        assert rel_err(model.params_to_vec(model.vjp(params, X, stack(G))), per_row) <= 1e-12

    def test_spen_rows_share_the_prior_weights_without_copies(self):
        model = make_model("spen", d=4, k=3, hidden=2, prior_hidden=2)
        params = model.init_params(0)
        w = model.forward(params, np.ones((5, 4))).w
        assert w.W1.shape == (5, 2, 3) and w.b2.shape == (5,)
        assert np.shares_memory(w.W1, params.prior.W1) and not w.W1.flags.writeable

    def test_feature_shape_checked(self):
        model = make_model("unary", d=4, k=2)
        for bad in (np.ones((2, 5)), np.ones((2, 2, 4)), np.ones(())):
            with pytest.raises(ContractViolation, match="features"):
                model.forward(model.init_params(0), bad)


class TestSerialization:
    def test_round_trip_all_architectures(self, tmp_path):
        for arch in ("unary", "pairwise", "spen"):
            model = make_model(arch, d=5, k=3, hidden=2, prior_hidden=2)
            params = model.init_params(11)
            path = tmp_path / f"{arch}.bin"
            save_params(path, model, params, seed=11)
            loaded_model, loaded, header = load_params(path)
            assert header["architecture"] == arch
            assert header["seed"] == 11
            assert (loaded_model.d, loaded_model.k) == (5, 3)
            np.testing.assert_array_equal(
                model.params_to_vec(params), loaded_model.params_to_vec(loaded)
            )

    def test_bad_format_tag(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(ParseError):
            load_params(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(b"\x00\x01\x02")
        with pytest.raises(ParseError):
            load_params(path)

    def test_truncated_payload(self, tmp_path):
        model = make_model("unary", d=3, k=2, hidden=2)
        path = tmp_path / "p.bin"
        save_params(path, model, model.init_params(0))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ParseError):
            load_params(path)

    def test_non_json_header(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(b"not json at all\npayload")
        with pytest.raises(ParseError):
            load_params(path)

    def test_header_pins_tensor_names_and_shapes(self, tmp_path):
        # tensors are written in the params dataclasses' field order; reordering
        # a field must fail here rather than silently change params.bin
        unary = [("W1", [2, 5]), ("b1", [2]), ("W2", [3, 2]), ("b2", [3])]
        expected = {
            "unary": unary,
            "pairwise": [("unary." + n, s) for n, s in unary] + [("WA", [3, 5]), ("bA", [3])],
            "spen": [("unary." + n, s) for n, s in unary]
            + [("prior.W1", [2, 3]), ("prior.b1", [2]), ("prior.W2", [2]), ("prior.b2", [])],
        }
        for arch, tensors in expected.items():
            model = make_model(arch, d=5, k=3, hidden=2, prior_hidden=2)
            path = tmp_path / f"{arch}.bin"
            save_params(path, model, model.init_params(0))
            header = json.loads(path.read_bytes().split(b"\n", 1)[0])
            assert header["tensors"] == [{"name": n, "shape": s} for n, s in tensors], arch

    def test_missing_or_mistyped_model_fields(self, tmp_path):
        model = make_model("unary", d=3, k=2, hidden=2)
        path = tmp_path / "p.bin"
        edits = (
            lambda h: h.pop("architecture"),
            lambda h: h.update(architecture=1),
            lambda h: h.pop("d"),
            lambda h: h.update(d="3"),
            lambda h: h.update(k=2.0),
            lambda h: h.update(k=True),
        )
        for edit in edits:
            save_params(path, model, model.init_params(0))
            rewrite_params_header(path, edit)
            with pytest.raises(ParseError):
                load_params(path)

    def test_null_optional_fields(self, tmp_path):
        # a present optional field must be typed: null is not "use the default"
        model = make_model("spen", d=3, k=2, hidden=2)
        path = tmp_path / "p.bin"
        for edit in (lambda h: h.update(prior_hidden=None), lambda h: h.update(concave=None)):
            save_params(path, model, model.init_params(0))
            rewrite_params_header(path, edit)
            with pytest.raises(ParseError, match="must be a"):
                load_params(path)

    def test_reshaped_tensors_of_the_same_total_size(self, tmp_path):
        model = make_model("unary", d=3, k=2, hidden=2)
        path = tmp_path / "p.bin"
        save_params(path, model, model.init_params(0))
        # W1 is (2, 3); (3, 2) keeps the float count but not the layout
        rewrite_params_header(path, lambda h: h["tensors"][0].update(shape=[3, 2]))
        with pytest.raises(ParseError, match="tensors"):
            load_params(path)

    def test_header_dimensions_allocate_nothing_before_they_are_checked(self, tmp_path):
        # 122 bytes declaring a 100 x 20000 first layer; the template of that
        # model alone is 16 MB, and the check must not build it
        header = {"architecture": "unary", "d": 20000, "format": "efy-params-v1", "hidden": 100,
                  "k": 5, "seed": 0, "tensors": []}
        path = tmp_path / "p.bin"
        path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + bytes(8))
        assert path.stat().st_size == 122
        tracemalloc.start()
        try:
            with pytest.raises(ParseError):
                load_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_payload_of_a_partial_float(self, tmp_path):
        model = make_model("unary", d=3, k=2, hidden=2)
        path = tmp_path / "p.bin"
        save_params(path, model, model.init_params(0))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ParseError, match="payload"):
            load_params(path)

    def test_dimensions_no_array_can_have(self, tmp_path):
        model = make_model("unary", d=3, k=2, hidden=2)
        path = tmp_path / "p.bin"
        save_params(path, model, model.init_params(0))
        rewrite_params_header(path, lambda h: h.update(d=2**70))
        with pytest.raises(ParseError, match="out of range"):
            load_params(path)
        rewrite_params_header(path, lambda h: h.update(d=10**400))
        with pytest.raises(ParseError, match="out of range"):
            load_params(path)
