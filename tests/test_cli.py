import json

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from efy import (
    EvaluationError,
    SolverConfig,
    SpenEnergy,
    box01,
    load_params,
    make_model,
    make_regularizer,
    rng_from_seed,
    save_params,
)
from efy import cli
from efy.cli import main
from efy.models import ARCHITECTURES
from efy.regularizers import REGULARIZER_KINDS
from efy.training import LOSS_KINDS

from support import rewrite_params_header


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def synthetic_train_config(tmp_path, out_name="run", seed=3, **train_overrides):
    train_block = {"epochs": 2, "batch_size": 8, "learning_rate": 1e-2}
    train_block.update(train_overrides)
    return {
        "seed": seed,
        "output_dir": str(tmp_path / out_name),
        "dataset": {"synthetic": {"n": 24, "d": 5, "k": 2, "seed": 3}},
        "split": {"test_fraction": 0.25, "dev_fraction": 0.25, "standardize": True},
        "model": {"architecture": "unary", "hidden": 2},
        "regularizer": {"kind": "gini_binary", "gamma": 1.0},
        "train": train_block,
    }


class TestConfigErrors:
    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"family": "bilinear", "bogus": 1})
        assert main(["gradcheck", "--config", cfg]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_negative_gamma(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"family": "bilinear", "regularizer": {"kind": "gini_binary", "gamma": -1.0}},
        )
        assert main(["gradcheck", "--config", cfg]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_missing_required_field(self, tmp_path, capsys):
        spec = synthetic_train_config(tmp_path)
        del spec["output_dir"]
        cfg = write_config(tmp_path, "c.json", spec)
        assert main(["train", "--config", cfg]) == 2
        assert "output_dir" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "absent.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["gradcheck", "--config", str(path)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_dataset_must_pick_one_source(self, tmp_path, capsys):
        spec = synthetic_train_config(tmp_path)
        spec["dataset"]["path"] = str(tmp_path / "x.txt")
        cfg = write_config(tmp_path, "c.json", spec)
        assert main(["train", "--config", cfg]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_negative_seed(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, "train.json", synthetic_train_config(tmp_path, seed=-1))
        assert main(["train", "--config", cfg]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        monkeypatch.setenv("EFY_SEED", "-4")
        cfg = write_config(tmp_path, "grad.json", {"family": "bilinear", "instances": 1})
        assert main(["gradcheck", "--config", cfg]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_usage_errors(self, capsys):
        assert main([]) == 2
        assert main(["train"]) == 2
        capsys.readouterr()


class TestGradcheck:
    def test_closed_form_family_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json", {"family": "linear_quadratic", "instances": 5, "k": 3}
        )
        assert main(["gradcheck", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_bilinear_at_tight_tolerance(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json", {"family": "bilinear", "instances": 5, "tolerance": 1e-7}
        )
        assert main(["gradcheck", "--config", cfg]) == 0
        capsys.readouterr()

    def test_every_family_is_fd_safe(self, tmp_path, capsys):
        # the sampler must hand finite differences a well-posed instance:
        # couplings NSD with margin so the perturbation cannot leave the cone,
        # scalar-output families paired with a matching one-dim regularizer,
        # spen draws screened clear of the prior-net kinks
        families = [
            "bilinear",
            "linear_quadratic",
            "pairwise",
            "rectifier",
            "maxout",
            "lse_net",
            "spen",
        ]
        for family in families:
            cfg = write_config(
                tmp_path, f"{family}.json", {"family": family, "instances": 8, "seed": 1}
            )
            assert main(["gradcheck", "--config", cfg]) == 0, family
            assert "max relative error" in capsys.readouterr().out

    def test_sloppy_solver_fails_the_check(self, tmp_path, capsys):
        # negative control: a coarse inner solve cannot certify 1e-9 gradients
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "family": "pairwise",
                "instances": 3,
                "tolerance": 1e-9,
                "solver": {"tol": 1e-2},
            },
        )
        assert main(["gradcheck", "--config", cfg]) == 4
        capsys.readouterr()


    def test_spen_screen_gives_up_with_exit_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SPEN_SCREEN_MAX_DRAWS", 3)
        rng = rng_from_seed(0)
        energy = SpenEnergy(2, hidden=2)
        reg = make_regularizer("gini_binary", 2, gamma=1.0, domain=box01(2))
        v, y = energy.random_input(rng), np.full(2, 0.5)
        # no instance clears an infinite margin, so only the cap ends the loop
        with pytest.raises(EvaluationError, match="3 draws"):
            cli._screen_spen(energy, reg, v, y, rng, SolverConfig(), margin=np.inf)
        monkeypatch.setattr(cli, "SPEN_SCREEN_MAX_DRAWS", 0)
        cfg = write_config(tmp_path, "c.json", {"family": "spen", "instances": 1})
        assert main(["gradcheck", "--config", cfg]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestConjbench:
    def test_reference_instance_and_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "energy": {"kind": "linear_quadratic", "A": [[-1.0]], "b": [1.0]},
                "regularizer": {"kind": "squared_l2", "gamma": 1.0},
                "output": str(trace_path),
            },
        )
        assert main(["conjbench", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "value 0.25" in out
        assert "argmax 0.5" in out
        assert "status closed_form" in out
        lines = trace_path.read_text().splitlines()
        assert lines[0].startswith("# config=") and "seed=0" in lines[0]
        assert lines[1] == "iteration,objective,optimality_gap"
        assert lines[2].startswith("0,0.25,")

    def test_iterative_trace_rows(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "energy": {
                    "kind": "pairwise",
                    "u": [0.4, -0.2],
                    "U": [[-0.5, -0.25], [-0.25, -0.5]],
                },
                "output": str(trace_path),
            },
        )
        assert main(["conjbench", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "status converged" in out
        rows = trace_path.read_text().splitlines()[2:]
        assert len(rows) >= 2  # one row per sweep

    def test_seed_override_changes_header(self, tmp_path, capsys, monkeypatch):
        trace_path = tmp_path / "trace.csv"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "energy": {"kind": "bilinear", "U": [[1.0]], "v": [2.0]},
                "output": str(trace_path),
            },
        )
        monkeypatch.setenv("EFY_SEED", "77")
        assert main(["conjbench", "--config", cfg]) == 0
        capsys.readouterr()
        assert "seed=77" in trace_path.read_text().splitlines()[0]
        monkeypatch.setenv("EFY_SEED", "not-an-int")
        assert main(["conjbench", "--config", cfg]) == 2
        capsys.readouterr()


class TestTrainEval:
    def test_train_writes_artifacts_and_is_repeatable(self, tmp_path, capsys):
        spec = synthetic_train_config(tmp_path)
        cfg = write_config(tmp_path, "train.json", spec)
        assert main(["train", "--config", cfg]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "run"
        metrics_first = (out_dir / "metrics.csv").read_bytes()
        lines = metrics_first.decode().splitlines()
        assert lines[0].startswith("# config=") and lines[0].endswith("seed=3")
        assert lines[1] == "epoch,train_loss,dev_accuracy"
        assert len(lines) == 4  # two epochs
        summary = json.loads((out_dir / "summary.json").read_text())
        assert {"config_hash", "seed", "final_train_loss", "wall_time_s",
                "final_dev_accuracy", "test_accuracy"} <= set(summary)
        model, params, header = load_params(out_dir / "params.bin")
        assert header["architecture"] == "unary"
        assert (model.d, model.k) == (5, 2)

        assert main(["train", "--config", cfg]) == 0
        capsys.readouterr()
        assert (out_dir / "metrics.csv").read_bytes() == metrics_first

    def test_eval_round_trip_with_predictions(self, tmp_path, capsys):
        train_cfg = write_config(tmp_path, "train.json", synthetic_train_config(tmp_path))
        assert main(["train", "--config", train_cfg]) == 0
        capsys.readouterr()
        pred_path = tmp_path / "pred.csv"
        eval_spec = {
            "params": str(tmp_path / "run" / "params.bin"),
            "dataset": {"synthetic": {"n": 16, "d": 5, "k": 2, "seed": 9}},
            "regularizer": {"kind": "gini_binary", "gamma": 1.0},
            "output": str(pred_path),
        }
        eval_cfg = write_config(tmp_path, "eval.json", eval_spec)
        assert main(["eval", "--config", eval_cfg]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "16 instances" in out
        lines = pred_path.read_text().splitlines()
        assert lines[1] == "label_0,label_1"
        assert len(lines) == 2 + 16
        assert all(set(r.split(",")) <= {"0", "1"} for r in lines[2:])

    def test_eval_missing_params(self, tmp_path, capsys):
        eval_cfg = write_config(
            tmp_path,
            "eval.json",
            {
                "params": str(tmp_path / "absent.bin"),
                "dataset": {"synthetic": {"n": 4, "d": 3, "k": 2}},
            },
        )
        assert main(["eval", "--config", eval_cfg]) == 2
        capsys.readouterr()

    def test_eval_params_header_without_architecture(self, tmp_path, capsys):
        model = make_model("unary", d=3, k=2, hidden=2)
        params = tmp_path / "params.bin"
        save_params(params, model, model.init_params(0))
        rewrite_params_header(params, lambda h: h.pop("architecture"))
        eval_cfg = write_config(
            tmp_path,
            "eval.json",
            {"params": str(params), "dataset": {"synthetic": {"n": 4, "d": 3, "k": 2}}},
        )
        assert main(["eval", "--config", eval_cfg]) == 2
        assert "architecture" in capsys.readouterr().err

    def test_eval_on_an_empty_test_split(self, tmp_path, capsys):
        model = make_model("unary", d=3, k=2, hidden=2)
        params = tmp_path / "params.bin"
        save_params(params, model, model.init_params(0))
        eval_cfg = write_config(
            tmp_path,
            "eval.json",
            {
                "params": str(params),
                "dataset": {"synthetic": {"n": 24, "d": 3, "k": 2}},
                "split": {"test_fraction": 0.01},
            },
        )
        assert main(["eval", "--config", eval_cfg]) == 2
        assert "empty" in capsys.readouterr().err

    def test_eval_dimension_mismatch(self, tmp_path, capsys):
        train_cfg = write_config(tmp_path, "train.json", synthetic_train_config(tmp_path))
        assert main(["train", "--config", train_cfg]) == 0
        eval_cfg = write_config(
            tmp_path,
            "eval.json",
            {
                "params": str(tmp_path / "run" / "params.bin"),
                "dataset": {"synthetic": {"n": 4, "d": 7, "k": 2}},
            },
        )
        assert main(["eval", "--config", eval_cfg]) == 2
        assert "model expects" in capsys.readouterr().err

    def test_divergent_run_exits_three(self, tmp_path, capsys):
        spec = synthetic_train_config(tmp_path, out_name="boom", learning_rate=1e155)
        cfg = write_config(tmp_path, "train.json", spec)
        with np.errstate(all="ignore"):
            assert main(["train", "--config", cfg]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestCalibcheck:
    def test_bilinear_passes_and_writes_rows(self, tmp_path, capsys):
        out_path = tmp_path / "calib.csv"
        cfg = write_config(
            tmp_path,
            "c.json",
            {"k": 1, "coupling": "bilinear", "n_v": 20, "output": str(out_path)},
        )
        assert main(["calibcheck", "--config", cfg]) == 0
        assert "pass" in capsys.readouterr().out
        lines = out_path.read_text().splitlines()
        assert lines[1] == "target_excess,surrogate_excess,xi,ok"
        rows = [r.split(",") for r in lines[2:]]
        assert len(rows) == 20
        assert all(r[3] == "1" for r in rows)


# Schema-valid train configs. Sizes are capped for run time only (an omitted
# epochs or max_iters would mean 200 epochs or 10000 iterations); every other
# value ranges over what the schema admits.
POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
NONNEGATIVE = st.floats(min_value=0.0, max_value=1e300)
FRACTION = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
OPEN_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
DIM = st.integers(1, 4)
LIBSVM_TEXT = "1,2 1:0.5 3:-1.0\n2 2:1.5\n1:0.25 4:2.0\n3,4 1:-0.5 2:0.75\n"

SYNTHETIC = st.fixed_dictionaries(
    {"n": st.integers(1, 30), "d": DIM, "k": DIM},
    optional={"seed": st.integers(), "coupling": NONNEGATIVE, "unary_scale": NONNEGATIVE, "gamma": POSITIVE},
)
LIBSVM_FILE = {"n_features": DIM, "n_labels": DIM, "labels_one_based": st.booleans()}
TRAIN_CONFIGS = st.fixed_dictionaries(
    {
        "output_dir": st.just("out"),
        "dataset": st.one_of(
            st.fixed_dictionaries({"synthetic": SYNTHETIC}),
            st.fixed_dictionaries({"path": st.just("data.txt")}, optional=LIBSVM_FILE),
            st.fixed_dictionaries({}, optional={"synthetic": SYNTHETIC, "path": st.just("data.txt"), **LIBSVM_FILE}),
        ),
        "model": st.fixed_dictionaries(
            {"architecture": st.sampled_from(ARCHITECTURES)},
            optional={"hidden": st.integers(1, 3), "prior_hidden": st.integers(1, 3), "concave": st.booleans()},
        ),
        "regularizer": st.fixed_dictionaries(
            {"kind": st.sampled_from(REGULARIZER_KINDS)}, optional={"gamma": POSITIVE}
        ),
        "train": st.fixed_dictionaries(
            {"epochs": st.integers(1, 2)},
            optional={
                "loss": st.sampled_from(LOSS_KINDS),
                "batch_size": st.integers(min_value=1),
                "learning_rate": POSITIVE,
                "l2_weight": NONNEGATIVE,
            },
        ),
        "solver": st.fixed_dictionaries(
            {"max_iters": st.integers(1, 50)},
            optional={"tol": POSITIVE, "init_step": POSITIVE, "shrink": OPEN_UNIT, "sufficient_increase": OPEN_UNIT},
        ),
    },
    optional={
        "seed": st.integers(),
        "split": st.fixed_dictionaries(
            {},
            optional={
                "test_fraction": FRACTION,
                "dev_fraction": FRACTION,
                "seed": st.integers(),
                "standardize": st.booleans(),
            },
        ),
    },
)


TRAIN_SCHEMA = jsonschema.Draft202012Validator(cli.SCHEMAS["train"])


def _train_spec(**blocks):
    return {
        "output_dir": "out",
        "dataset": {"synthetic": {"n": 12, "d": 2, "k": 2}},
        "model": {"architecture": "pairwise"},
        "regularizer": {"kind": "gini_binary"},
        "train": {"epochs": 1},
        "solver": {"max_iters": 50},
        **blocks,
    }


@settings(
    max_examples=700,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(spec=TRAIN_CONFIGS)
# an infinite planted coupling: eigvalsh raised LinAlgError
@example(
    spec=_train_spec(
        dataset={
            "synthetic": {"n": 28, "d": 2, "k": 3, "seed": 0, "coupling": 2e299, "unary_scale": 1e-300, "gamma": 5}
        }
    )
)
# a non-finite point: the simplex projection raised IndexError
@example(
    spec=_train_spec(
        model={"architecture": "spen", "hidden": 1, "concave": False},
        regularizer={"kind": "shannon_simplex", "gamma": 5e299},
    )
)
# a line-search step shrunk to zero: the Armijo test raised ZeroDivisionError
@example(spec=_train_spec(regularizer={"kind": "squared_l2"}, solver={"max_iters": 1, "init_step": 5e-324}))
# the same step through projected ascent, which pairwise + squared_l2 over R^k no longer takes
@example(spec=_train_spec(train={"epochs": 1, "loss": "perceptron"}, solver={"max_iters": 1, "init_step": 5e-324}))
# negative seeds: default_rng raised ValueError
@example(spec=_train_spec(seed=-1))
@example(spec=_train_spec(split={"test_fraction": 0.5, "seed": -3}))
def test_schema_valid_train_configs_exit_with_a_documented_code(tmp_path, monkeypatch, capsys, spec):
    TRAIN_SCHEMA.validate(spec)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EFY_SEED", raising=False)
    (tmp_path / "data.txt").write_text(LIBSVM_TEXT)
    cfg = write_config(tmp_path, "train.json", spec)
    with np.errstate(all="ignore"):
        assert main(["train", "--config", cfg]) in (0, 2, 3, 4)
    capsys.readouterr()
