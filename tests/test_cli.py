import json
import re

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
from efy import cli, exceptions
from efy.cli import main
from efy.energies import ENERGY_KINDS
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


def test_each_error_type_carries_its_exit_code():
    types = {v for v in vars(exceptions).values() if isinstance(v, type) and v.__module__ == exceptions.__name__}
    config_errors = {exceptions.ContractViolation, exceptions.ParseError, exceptions.UnsupportedOperation}
    assert len(types) == 10 and all(issubclass(t, exceptions.EfyError) for t in types)
    for t in types - {exceptions.EfyError}:
        assert t.exit_code == (2 if t in config_errors else 3), t
    # each keeps its builtin base
    assert issubclass(exceptions.ContractViolation, ValueError)
    assert issubclass(exceptions.UnsupportedOperation, NotImplementedError)
    assert issubclass(exceptions.TrainingDivergence, ArithmeticError)


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


UNWRITABLE = {
    "train": lambda tmp_path: synthetic_train_config(tmp_path, out_name="taken"),  # a file, not a directory
    "eval": lambda tmp_path: {
        "params": str(tmp_path / "p.bin"),
        "dataset": {"synthetic": {"n": 4, "d": 3, "k": 2}},
        "output": str(tmp_path / "nodir" / "pred.csv"),
    },
    "conjbench": lambda tmp_path: {
        "energy": {"kind": "bilinear", "U": [[1.0]], "v": [0.5]},
        "output": str(tmp_path / "nodir" / "trace.csv"),
    },
    "calibcheck": lambda tmp_path: {
        "k": 1, "coupling": "bilinear", "n_v": 2, "output": str(tmp_path / "nodir" / "calib.csv")
    },
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE))
def test_unwritable_outputs_exit_two(tmp_path, monkeypatch, capsys, command):
    (tmp_path / "taken").write_text("")
    model = make_model("unary", d=3, k=2, hidden=2)
    save_params(tmp_path / "p.bin", model, model.init_params(0))
    spec = UNWRITABLE[command](tmp_path)
    # the output directory is checked before any training is done
    monkeypatch.setattr(cli.training, "train", lambda *args, **kwargs: pytest.fail("trained first"))
    cfg = write_config(tmp_path, "c.json", spec)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and spec.get("output", spec.get("output_dir")) in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_empty_training_part_is_rejected_before_it_is_standardized(tmp_path, capsys):
    spec = synthetic_train_config(tmp_path)
    spec["dataset"]["synthetic"]["n"] = 3
    spec["split"] = {"test_fraction": 0.5, "dev_fraction": 0.4, "standardize": True}
    cfg = write_config(tmp_path, "c.json", spec)
    assert main(["train", "--config", cfg]) == 2
    assert "empty training set" in capsys.readouterr().err


# One out-of-range value for each range or enum rule that the config schema
# held on a block before the block schemas were derived from the signatures;
# the function a block feeds must reject it and name the setting.
BLOCK_VIOLATIONS = [
    ("solver", {"max_iters": 0}, "max_iters"),
    ("solver", {"tol": 0}, "tol"),
    ("solver", {"init_step": 0.0}, "init_step"),
    ("solver", {"shrink": 1.5}, "shrink"),  # a constant now: an unknown key
    ("solver", {"sufficient_increase": 0}, "sufficient_increase"),
    ("regularizer", {"kind": "bogus"}, "kind"),
    *[("regularizer", {"kind": kind, "gamma": 0}, "gamma") for kind in REGULARIZER_KINDS],
    ("synthetic", {"n": 0}, "n"),
    ("synthetic", {"d": 0}, "d"),
    ("synthetic", {"k": 0}, "k"),
    ("synthetic", {"coupling": -1.0}, "coupling"),
    ("synthetic", {"unary_scale": -1.0}, "unary_scale"),
    ("synthetic", {"gamma": 0}, "gamma"),
    ("libsvm", {"n_features": 0}, "n_features"),
    ("libsvm", {"n_labels": 0}, "n_labels"),
    ("model", {"architecture": "bogus"}, "architecture"),
    ("model", {"hidden": 0}, "hidden"),
    ("model", {"prior_hidden": 0}, "prior_hidden"),  # ignored by a unary model, rejected all the same
    ("model", {"architecture": "spen", "prior_hidden": 0}, "prior_hidden"),
    ("train", {"loss": "bogus"}, "loss"),
    ("train", {"epochs": 0}, "epochs"),
    ("train", {"batch_size": 0}, "batch_size"),
    ("train", {"learning_rate": 0}, "learning_rate"),
    ("train", {"l2_weight": -1.0}, "l2_weight"),
]


@pytest.mark.parametrize("block, values, name", BLOCK_VIOLATIONS)
def test_out_of_range_block_values_exit_two(tmp_path, capsys, block, values, name):
    spec = synthetic_train_config(tmp_path, epochs=1)
    spec["dataset"]["synthetic"]["n"] = 8
    spec["solver"] = {}
    if block == "synthetic":
        spec["dataset"]["synthetic"].update(values)
    elif block == "libsvm":
        (tmp_path / "data.txt").write_text(LIBSVM_TEXT)
        spec["dataset"] = {"path": str(tmp_path / "data.txt"), **values}
    else:
        spec[block].update(values)
    cfg = write_config(tmp_path, "train.json", spec)
    assert main(["train", "--config", cfg]) == 2
    assert re.search(rf"\b{name}\b", capsys.readouterr().err)


# an integral float in an integer key, one per subcommand; jsonschema's own
# integer type admits 1.0, which then failed inside the library
INTEGRAL_FLOATS = [
    ("train", {"train": {"epochs": 1.0}}, "epochs"),
    ("eval", {"params": "p.bin", "dataset": {"synthetic": {"n": 12.0, "d": 3, "k": 2}}}, "n"),
    ("gradcheck", {"family": "bilinear", "instances": 2.0}, "instances"),
    ("conjbench", {"energy": {"kind": "pairwise", "u": [0.4, -0.2], "U": [[-0.5, 0.0], [0.0, -0.5]]},
                   "solver": {"max_iters": 5.0}}, "max_iters"),
    ("calibcheck", {"k": 2.0, "coupling": "bilinear"}, "k"),
]


@pytest.mark.parametrize("command, spec, name", INTEGRAL_FLOATS)
def test_integral_floats_in_integer_keys_exit_two(tmp_path, monkeypatch, capsys, command, spec, name):
    monkeypatch.chdir(tmp_path)
    model = make_model("unary", d=3, k=2, hidden=2)
    save_params(tmp_path / "p.bin", model, model.init_params(0))
    if command == "train":
        spec = {**synthetic_train_config(tmp_path), **spec}
    cfg = write_config(tmp_path, "c.json", spec)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "is not of type 'integer'" in err and re.search(rf"\b{name}\b", err)


# One out-of-range value for each range or enum rule that the config schema
# held on a key of the CLI's own before the subcommand schemas were derived
# from the signatures; the subcommand must reject it and name the key.
CLI_KEY_VIOLATIONS = [
    *[("gradcheck", {key: 0}, key) for key in ("instances", "k", "d", "tolerance")],
    ("gradcheck", {"family": "bogus"}, "family"),
    ("calibcheck", {"k": 0}, "k"),
    ("calibcheck", {"k": 5}, "k"),
    ("calibcheck", {"coupling": "bogus"}, "coupling"),
    ("calibcheck", {"n_v": 0}, "n_v"),
    ("calibcheck", {"v_scale": 0}, "v_scale"),
    ("calibcheck", {"slack": -1}, "slack"),
    ("split", {"test_fraction": -0.1}, "test_fraction"),
    ("split", {"test_fraction": 1.0}, "test_fraction"),
    ("split", {"dev_fraction": 1.5}, "dev_fraction"),
    ("energy", {"kind": "bogus"}, "kind"),
]


@pytest.mark.parametrize("block, values, name", CLI_KEY_VIOLATIONS)
def test_out_of_range_cli_keys_exit_two(tmp_path, capsys, block, values, name):
    if block == "split":
        command, spec = "train", synthetic_train_config(tmp_path, epochs=1)
        spec["split"].update(values)
    elif block == "energy":
        command, spec = "conjbench", {"energy": {"kind": "bilinear", "U": [[1.0]], "v": [1.0], **values}}
    else:
        base = {"gradcheck": {"family": "bilinear", "instances": 1}, "calibcheck": {"k": 1, "coupling": "bilinear", "n_v": 2}}
        command, spec = block, {**base[block], **values}
    cfg = write_config(tmp_path, "c.json", spec)
    assert main([command, "--config", cfg]) == 2
    assert re.search(rf"\b{name}\b", capsys.readouterr().err)


def mostly(valid, out_of_range):
    """``valid`` nineteen draws in twenty, else ``out_of_range``: a config holds
    up to 18 such keys, and the solves run only when all of them are valid.
    (The rare branch is the last index, as Hypothesis favours index 0.)"""
    return st.integers(0, 19).flatmap(lambda i: valid if i < 19 else out_of_range)


# Schema-valid train configs. Sizes are capped for run time only (an omitted
# epochs or max_iters would mean 200 epochs or 10000 iterations); every other
# value ranges over what the schema admits, and sizes, counts and scales also
# take the zero and negative values the library must reject.
POSITIVE = mostly(st.floats(min_value=0.0, max_value=1e300, exclude_min=True), st.floats(min_value=-1e300, max_value=0.0))
NONNEGATIVE = mostly(st.floats(min_value=0.0, max_value=1e300), st.floats(min_value=-1e300, max_value=-1e-300))
FRACTION = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


def count(lo, hi=None):
    return mostly(st.integers(lo, hi), st.integers(max_value=0))


DIM = count(1, 4)
LIBSVM_TEXT = "1,2 1:0.5 3:-1.0\n2 2:1.5\n1:0.25 4:2.0\n3,4 1:-0.5 2:0.75\n"

SYNTHETIC = st.fixed_dictionaries(
    {"n": count(1, 30), "d": DIM, "k": DIM},
    optional={"seed": st.integers(), "coupling": NONNEGATIVE, "unary_scale": NONNEGATIVE, "gamma": POSITIVE},
)
LIBSVM_FILE = {"n_features": DIM, "n_labels": DIM, "labels_one_based": st.booleans()}
REGULARIZER = st.fixed_dictionaries({"kind": st.sampled_from(REGULARIZER_KINDS)}, optional={"gamma": POSITIVE})
SPLIT = st.fixed_dictionaries(
    {},
    optional={"test_fraction": FRACTION, "dev_fraction": FRACTION, "seed": st.integers(), "standardize": st.booleans()},
)
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
            optional={"hidden": count(1, 3), "prior_hidden": count(1, 3), "concave": st.booleans()},
        ),
        "regularizer": REGULARIZER,
        "train": st.fixed_dictionaries(
            {"epochs": count(1, 2)},
            optional={
                "loss": st.sampled_from(LOSS_KINDS),
                "batch_size": count(1),
                "learning_rate": POSITIVE,
                "l2_weight": NONNEGATIVE,
            },
        ),
        "solver": st.fixed_dictionaries(
            {"max_iters": count(1, 50)},
            optional={"tol": POSITIVE, "init_step": POSITIVE},
        ),
    },
    optional={
        "seed": st.integers(),
        "split": SPLIT,
    },
)


def documented_exit(tmp_path, monkeypatch, capsys, command, spec):
    """Run a schema-valid ``spec`` in ``tmp_path``: it must end in a documented exit code."""
    cli._Validator(cli.SCHEMAS[command]).validate(spec)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EFY_SEED", raising=False)
    cfg = write_config(tmp_path, f"{command}.json", spec)
    with np.errstate(all="ignore"):
        assert main([command, "--config", cfg]) in (0, 2, 3, 4)
    capsys.readouterr()


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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
    (tmp_path / "data.txt").write_text(LIBSVM_TEXT)
    documented_exit(tmp_path, monkeypatch, capsys, "train", spec)


# Params files with random header fields and payload lengths. Field values
# range over every JSON type, including dimensions far too large to allocate.
HEADER_KEYS = ("format", "architecture", "d", "k", "hidden", "prior_hidden", "concave", "seed", "tensors")
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(("efy-params-v1", *ARCHITECTURES)),
    st.lists(
        st.fixed_dictionaries(
            {"name": st.sampled_from(("W1", "b1", "W2", "b2", "unary.W1")), "shape": st.lists(st.integers(-1, 4), max_size=2)}
        ),
        max_size=4,
    ),
)
HEADER_EDITS = st.one_of(
    st.fixed_dictionaries(
        {"set": st.dictionaries(st.sampled_from(HEADER_KEYS), JSON_VALUES, max_size=3), "drop": st.sets(st.sampled_from(HEADER_KEYS), max_size=2)}
    ),
    JSON_VALUES,  # the whole header replaced
)


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(architecture=st.sampled_from(ARCHITECTURES), edit=HEADER_EDITS, payload_bytes=st.none() | st.integers(0, 400))
# a payload that is not a whole number of floats: np.frombuffer raised ValueError
@example(architecture="unary", edit={"set": {}, "drop": set()}, payload_bytes=13)
# a header dimension too large for a float: the weight scale raised TypeError
@example(architecture="unary", edit={"set": {"d": 2**70}, "drop": set()}, payload_bytes=None)
def test_params_files_exit_with_a_documented_code(tmp_path, monkeypatch, capsys, architecture, edit, payload_bytes):
    model = make_model(architecture, d=3, k=2, hidden=2, prior_hidden=2)
    path = tmp_path / "p.bin"
    save_params(path, model, model.init_params(0))
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    if isinstance(edit, dict) and set(edit) == {"set", "drop"}:
        header.update(edit["set"])
        for key in edit["drop"]:
            header.pop(key, None)
    else:
        header = edit
    if payload_bytes is not None:
        payload = (payload * 2)[:payload_bytes]
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
    spec = {"params": "p.bin", "dataset": {"synthetic": {"n": 4, "d": 3, "k": 2}}}
    documented_exit(tmp_path, monkeypatch, capsys, "eval", spec)


# Schema-valid configs of the other four subcommands. As for train, sizes are
# capped for run time only and an omitted max_iters would mean 10000
# iterations; the conjbench arrays sometimes hold a string, a null, a boolean
# or a nested list, or are ragged.
SOLVER = st.fixed_dictionaries({"max_iters": count(1, 50)}, optional={"tol": POSITIVE, "init_step": POSITIVE})
RUN = {"seed": st.integers(), "regularizer": REGULARIZER}
ENTRY = mostly(
    st.floats(-10.0, 10.0),
    st.one_of(st.floats(), st.text(max_size=2), st.none(), st.booleans(), st.lists(st.floats(-1.0, 1.0), max_size=2)),
)


# Configs the fuzzes below found, with the exit code and the stderr text they
# must give; each failed at the parent as the comment says.
REPRODUCERS = [
    # a string entry, a ragged array, a v that does not match U's rows and an
    # empty A for a b of four entries: numpy raised ValueError
    ("conjbench", {"energy": {"kind": "bilinear", "U": [["a"]], "v": [1.0]}}, 2, "energy.U"),
    ("conjbench", {"energy": {"kind": "pairwise", "u": [1.0, 2.0], "U": [[1.0], [1.0, 2.0]]}}, 2, "energy.U"),
    ("conjbench", {"energy": {"kind": "bilinear", "U": [[1.0, 2.0]], "v": [1.0, 2.0]}}, 2, "energy.v"),
    ("conjbench", {"energy": {"kind": "linear_quadratic", "A": [], "b": [0.0] * 4}}, 2, "energy.A"),
    # an overflowing value: printed "value inf" and exited 0
    (
        "conjbench",
        {"energy": {"kind": "bilinear", "U": [[1e308]], "v": [1e308]}, "regularizer": {"kind": "indicator"}},
        3,
        "conjugate value is inf",
    ),
    # a sampled smoothness of 0: comparison_bound raised ZeroDivisionError
    (
        "calibcheck",
        {"k": 1, "coupling": "pairwise", "n_v": 2, "regularizer": {"kind": "gini_binary", "gamma": 1e300}},
        3,
        "smoothness M = 0.0",
    ),
    # an overflowing SPD solve: scipy raised "array must not contain infs or NaNs"
    (
        "calibcheck",
        {"k": 2, "coupling": "pairwise", "n_v": 4, "seed": 1496227,
         "regularizer": {"kind": "squared_l2", "gamma": 5e-324}},
        3,
        "solve_spd result",
    ),
]


def pinned(command):
    """Pin each reproducer of ``command`` as an explicit example of its fuzz."""

    def decorate(test):
        for cmd, spec, _, _ in REPRODUCERS:
            test = example(spec=spec)(test) if cmd == command else test
        return test

    return decorate


@pytest.mark.parametrize("command, spec, code, message", REPRODUCERS)
def test_fuzz_reproducers(tmp_path, monkeypatch, capsys, command, spec, code, message):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "c.json", spec)
    with np.errstate(all="ignore"):
        assert main([command, "--config", cfg]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:" if code == 2 else "numerical failure:") and message in err


FUZZ = settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ
@given(
    architecture=st.sampled_from(ARCHITECTURES),
    spec=st.fixed_dictionaries(
        {
            "params": st.just("p.bin"),
            "dataset": st.one_of(
                st.fixed_dictionaries(
                    {
                        "synthetic": st.fixed_dictionaries(
                            {"n": count(1, 12), "d": mostly(st.just(3), DIM), "k": mostly(st.just(2), DIM)},
                            optional={"seed": st.integers(), "coupling": NONNEGATIVE, "gamma": POSITIVE},
                        )
                    }
                ),
                st.fixed_dictionaries({"path": st.just("data.txt")}, optional=LIBSVM_FILE),
            ),
            "solver": SOLVER,
        },
        optional={**RUN, "split": SPLIT, "output": st.just("pred.csv")},
    ),
)
def test_schema_valid_eval_configs_exit_with_a_documented_code(tmp_path, monkeypatch, capsys, architecture, spec):
    model = make_model(architecture, d=3, k=2, hidden=2, prior_hidden=2)
    save_params(tmp_path / "p.bin", model, model.init_params(0))
    (tmp_path / "data.txt").write_text(LIBSVM_TEXT)
    documented_exit(tmp_path, monkeypatch, capsys, "eval", spec)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ
@given(
    spec=st.fixed_dictionaries(
        {
            "family": mostly(st.sampled_from(ENERGY_KINDS), st.text(max_size=8)),
            "instances": count(1, 3),
            "solver": SOLVER,
        },
        optional={**RUN, "k": count(1, 4), "d": count(1, 5), "tolerance": POSITIVE},
    )
)
def test_schema_valid_gradcheck_configs_exit_with_a_documented_code(tmp_path, monkeypatch, capsys, spec):
    monkeypatch.setattr(cli, "SPEN_SCREEN_MAX_DRAWS", 5)  # a config that clears no kink is already exit 3
    documented_exit(tmp_path, monkeypatch, capsys, "gradcheck", spec)


def conjbench_energy(n):
    vector = st.lists(ENTRY, min_size=n, max_size=n)
    ragged = st.lists(st.one_of(ENTRY, st.lists(ENTRY, max_size=4)), max_size=4)
    matrix = st.lists(vector, min_size=n, max_size=n)
    arrays = {"U": matrix, "A": matrix, "b": vector, "u": vector, "v": vector}
    return st.fixed_dictionaries(
        {"kind": mostly(st.sampled_from(("bilinear", "linear_quadratic", "pairwise")), st.text(max_size=8))},
        optional={key: mostly(shape, ragged) for key, shape in arrays.items()},
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ
@given(
    spec=st.fixed_dictionaries(
        {"energy": st.integers(1, 4).flatmap(conjbench_energy), "solver": SOLVER},
        optional={**RUN, "output": st.just("trace.csv")},
    )
)
@pinned("conjbench")
def test_schema_valid_conjbench_configs_exit_with_a_documented_code(tmp_path, monkeypatch, capsys, spec):
    documented_exit(tmp_path, monkeypatch, capsys, "conjbench", spec)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ
@given(
    spec=st.fixed_dictionaries(
        {
            "k": count(1, 2),
            "coupling": mostly(st.sampled_from(("bilinear", "pairwise")), st.text(max_size=8)),
            "n_v": count(1, 4),
            "solver": SOLVER,
        },
        optional={**RUN, "v_scale": POSITIVE, "slack": NONNEGATIVE, "output": st.just("calib.csv")},
    )
)
@pinned("calibcheck")
def test_schema_valid_calibcheck_configs_exit_with_a_documented_code(tmp_path, monkeypatch, capsys, spec):
    documented_exit(tmp_path, monkeypatch, capsys, "calibcheck", spec)
