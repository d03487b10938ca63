"""Command-line interface.

Subcommands: ``train``, ``eval``, ``gradcheck``, ``conjbench``, ``calibcheck``.
Each reads a JSON config validated against a strict schema (unknown keys are
rejected). A block's keys are the keyword arguments of the library function
it feeds (``dataset.synthetic`` -> ``planted_pairwise``, ``dataset`` with a
``path`` -> ``parse_libsvm_multilabel``, ``model`` -> ``make_model``,
``regularizer`` -> ``make_regularizer``, ``train`` -> ``TrainConfig``,
``solver`` -> ``SolverConfig``), so an omitted key takes that function's
default; for ``train`` the ``solver`` block overrides fields of
``TrainConfig``'s own default solver. The ``EFY_SEED`` environment variable
overrides the config seed. Output files start with a provenance header line
carrying the config hash and the effective seed.

Exit codes: 0 success, 2 config/usage error, 3 numerical divergence,
4 check failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import jsonschema

from .calibration import calibration_check, hamming_decode
from .conjugate import SolverConfig, conjugate
from .data import MultilabelDataset, parse_libsvm_multilabel, planted_pairwise, split, standardize
from .energies import (
    ENERGY_KINDS,
    BilinearEnergy,
    LinQuadInput,
    LinearQuadraticEnergy,
    LogSumExpEnergy,
    MaxoutEnergy,
    PairwiseEnergy,
    PairwiseInput,
    RectifierEnergy,
    SpenEnergy,
)
from .exceptions import (
    ContractViolation,
    DivergenceError,
    DomainBoundaryError,
    EvaluationError,
    InfeasibleError,
    ParseError,
    SingularMatrixError,
    TrainingDivergence,
    UnsupportedOperation,
)
from .losses import gfy_loss, input_grad_finite_diff
from .models import ARCHITECTURES, load_params, make_model, save_params
from .numerics import rel_err, rng_from_seed
from .regularizers import REGULARIZER_KINDS, box01, make_regularizer, reals
from .training import LOSS_KINDS, TrainConfig, evaluate_accuracy, predict_marginals, train

CONFIG_ERROR, DIVERGENCE_ERROR, CHECK_FAILURE = 2, 3, 4

# Raw spen gradcheck draws clear the kink screen about four times in five, so
# this many failures in a row means the config admits no checkable instance.
SPEN_SCREEN_MAX_DRAWS = 1000

_SOLVER = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "max_iters": {"type": "integer", "minimum": 1},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "init_step": {"type": "number", "exclusiveMinimum": 0},
        "shrink": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "sufficient_increase": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    },
}

_REGULARIZER = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(REGULARIZER_KINDS)},
        "gamma": {"type": "number", "exclusiveMinimum": 0},
    },
}

_SYNTHETIC = {
    "type": "object",
    "additionalProperties": False,
    "required": ["n", "d", "k"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "d": {"type": "integer", "minimum": 1},
        "k": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "coupling": {"type": "number", "minimum": 0},
        "unary_scale": {"type": "number", "minimum": 0},
        "gamma": {"type": "number", "exclusiveMinimum": 0},
    },
}

_DATASET = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "path": {"type": "string"},
        "n_features": {"type": "integer", "minimum": 1},
        "n_labels": {"type": "integer", "minimum": 1},
        "labels_one_based": {"type": "boolean"},
        "synthetic": _SYNTHETIC,
    },
}

_SPLIT = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "test_fraction": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "dev_fraction": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "seed": {"type": "integer"},
        "standardize": {"type": "boolean"},
    },
}

_MODEL = {
    "type": "object",
    "additionalProperties": False,
    "required": ["architecture"],
    "properties": {
        "architecture": {"enum": list(ARCHITECTURES)},
        "hidden": {"type": "integer", "minimum": 1},
        "prior_hidden": {"type": "integer", "minimum": 1},
        "concave": {"type": "boolean"},
    },
}

_TRAIN_BLOCK = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "loss": {"enum": list(LOSS_KINDS)},
        "epochs": {"type": "integer", "minimum": 1},
        "batch_size": {"type": "integer", "minimum": 1},
        "learning_rate": {"type": "number", "exclusiveMinimum": 0},
        "l2_weight": {"type": "number", "minimum": 0},
    },
}

SCHEMAS = {
    "train": {
        "type": "object",
        "additionalProperties": False,
        "required": ["dataset", "model", "regularizer", "output_dir"],
        "properties": {
            "seed": {"type": "integer"},
            "output_dir": {"type": "string"},
            "dataset": _DATASET,
            "split": _SPLIT,
            "model": _MODEL,
            "regularizer": _REGULARIZER,
            "train": _TRAIN_BLOCK,
            "solver": _SOLVER,
        },
    },
    "eval": {
        "type": "object",
        "additionalProperties": False,
        "required": ["params", "dataset"],
        "properties": {
            "seed": {"type": "integer"},
            "params": {"type": "string"},
            "dataset": _DATASET,
            "split": _SPLIT,
            "regularizer": _REGULARIZER,
            "solver": _SOLVER,
            "output": {"type": "string"},
        },
    },
    "gradcheck": {
        "type": "object",
        "additionalProperties": False,
        "required": ["family"],
        "properties": {
            "seed": {"type": "integer"},
            "family": {"enum": list(ENERGY_KINDS)},
            "instances": {"type": "integer", "minimum": 1},
            "k": {"type": "integer", "minimum": 1},
            "d": {"type": "integer", "minimum": 1},
            "tolerance": {"type": "number", "exclusiveMinimum": 0},
            "regularizer": _REGULARIZER,
            "solver": _SOLVER,
        },
    },
    "conjbench": {
        "type": "object",
        "additionalProperties": False,
        "required": ["energy"],
        "properties": {
            "seed": {"type": "integer"},
            "energy": {
                "type": "object",
                "additionalProperties": False,
                "required": ["kind"],
                "properties": {
                    "kind": {"enum": ["bilinear", "linear_quadratic", "pairwise"]},
                    "U": {"type": "array"},
                    "A": {"type": "array"},
                    "b": {"type": "array"},
                    "u": {"type": "array"},
                    "v": {"type": "array"},
                },
            },
            "regularizer": _REGULARIZER,
            "solver": _SOLVER,
            "output": {"type": "string"},
        },
    },
    "calibcheck": {
        "type": "object",
        "additionalProperties": False,
        "required": ["k", "coupling"],
        "properties": {
            "seed": {"type": "integer"},
            "k": {"type": "integer", "minimum": 1, "maximum": 4},
            "coupling": {"enum": ["bilinear", "pairwise"]},
            "regularizer": _REGULARIZER,
            "n_v": {"type": "integer", "minimum": 1},
            "v_scale": {"type": "number", "exclusiveMinimum": 0},
            "slack": {"type": "number", "minimum": 0},
            "solver": _SOLVER,
            "output": {"type": "string"},
        },
    },
}


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ContractViolation(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ContractViolation(f"config is not valid JSON: {exc}") from None
    validator = jsonschema.Draft202012Validator(SCHEMAS[command])
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        lines = [f"config does not match the {command} schema:"]
        for err in errors:
            where = "/".join(str(x) for x in err.absolute_path) or "<root>"
            lines.append(f"  at {where}: {err.message}")
        raise ContractViolation("\n".join(lines))
    env_seed = os.environ.get("EFY_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ContractViolation(f"EFY_SEED must be an integer, got {env_seed!r}") from None
    cfg.setdefault("seed", 0)
    return cfg


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def _header(cfg: dict) -> str:
    return f"# config={_config_hash(cfg)} seed={cfg['seed']}\n"


def _solver_from(cfg: dict, **defaults) -> SolverConfig:
    """``SolverConfig`` from the config's solver block over per-command ``defaults``."""
    return SolverConfig(**{**defaults, **cfg.get("solver", {})})


def _regularizer_from(cfg: dict, k: int, default_kind: str = "gini_binary"):
    return make_regularizer(k=k, **cfg.get("regularizer", {"kind": default_kind}))


def _load_dataset(block: dict, seed: int) -> MultilabelDataset:
    if ("path" in block) == ("synthetic" in block):
        raise ContractViolation("dataset must specify exactly one of 'path' or 'synthetic'")
    if "synthetic" in block:
        return planted_pairwise(**{"seed": seed, **block["synthetic"]})
    rest = dict(block)
    path = Path(rest.pop("path"))
    if not path.exists():
        raise ContractViolation(f"dataset file not found: {path}")
    return parse_libsvm_multilabel(path.read_text(), **rest)


def _prepare_splits(cfg: dict) -> tuple[MultilabelDataset, MultilabelDataset | None, MultilabelDataset | None]:
    ds = _load_dataset(cfg["dataset"], cfg["seed"])
    block = cfg.get("split")
    if not block:
        return ds, None, None
    test_f = block.get("test_fraction", 0.0)
    dev_f = block.get("dev_fraction", 0.0)
    fractions = {"train": 1.0 - test_f - dev_f, "dev": dev_f, "test": test_f}
    if fractions["train"] <= 0:
        raise ContractViolation("split fractions leave no training data")
    names = [name for name, f in fractions.items() if f > 0]
    parts = split(ds, [fractions[name] for name in names], seed=block.get("seed", cfg["seed"]))
    if block.get("standardize", False):
        parts = standardize(*parts)[:-1]
    named = dict(zip(names, parts))
    return named["train"], named.get("dev"), named.get("test")


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def cmd_train(args) -> int:
    cfg = _load_config(args.config, "train")
    train_ds, dev_ds, test_ds = _prepare_splits(cfg)
    model = make_model(d=train_ds.d, k=train_ds.k, **cfg["model"])
    reg = _regularizer_from(cfg, train_ds.k)
    tcfg = TrainConfig(**cfg.get("train", {}), seed=cfg["seed"])
    tcfg = replace(tcfg, solver=replace(tcfg.solver, **cfg.get("solver", {})))
    report = train(model, reg, train_ds, tcfg, dev_ds=dev_ds)
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "metrics.csv", "w") as fh:
        fh.write(_header(cfg))
        fh.write("epoch,train_loss,dev_accuracy\n")
        for i, loss in enumerate(report.train_loss, start=1):
            acc = _fmt(report.dev_accuracy[i - 1]) if report.dev_accuracy else ""
            fh.write(f"{i},{_fmt(loss)},{acc}\n")
    save_params(out / "params.bin", model, report.params, seed=cfg["seed"])
    summary = {
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "final_train_loss": report.train_loss[-1],
        "wall_time_s": round(report.wall_time, 3),
    }
    if dev_ds is not None:
        summary["final_dev_accuracy"] = report.dev_accuracy[-1]
    if test_ds is not None:
        summary["test_accuracy"] = evaluate_accuracy(model, report.params, reg, test_ds, tcfg.solver)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"trained {model.architecture} model: final loss {_fmt(report.train_loss[-1])}")
    if "test_accuracy" in summary:
        print(f"test accuracy {_fmt(summary['test_accuracy'])}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args.config, "eval")
    params_path = Path(cfg["params"])
    if not params_path.exists():
        raise ContractViolation(f"params file not found: {params_path}")
    model, params, header = load_params(params_path)
    ds, dev_ds, test_ds = _prepare_splits(cfg)
    target = test_ds if test_ds is not None else ds
    if target.n == 0:
        raise ContractViolation("evaluation set is empty")
    if target.d != model.d or target.k != model.k:
        raise ContractViolation(
            f"dataset is ({target.d} features, {target.k} labels), "
            f"model expects ({model.d}, {model.k})"
        )
    reg = _regularizer_from(cfg, model.k)
    solver = _solver_from(cfg)
    P = predict_marginals(model, params, reg, target.X, solver)
    acc = float(np.mean((P > 0.5).astype(float) == target.Y))
    if cfg.get("output"):
        with open(cfg["output"], "w") as fh:
            fh.write(_header(cfg))
            fh.write(",".join(f"label_{j}" for j in range(model.k)) + "\n")
            for row in P:
                fh.write(",".join(str(int(x)) for x in hamming_decode(row)) + "\n")
    print(f"accuracy {_fmt(acc)} on {target.n} instances")
    return 0


def _screen_spen(energy, reg, v, y, rng: np.random.Generator, solver: SolverConfig, margin: float = 1e-2):
    """Resample until the argmax and the target both clear the prior-net kinks.

    On a kink the envelope gradient is one-sided and finite differences are
    ill-posed, so those draws say nothing about gradient correctness. Roughly
    a fifth of raw draws land there; the probe solve is capped short because
    kink-pinned instances are exactly the ones that fail to certify. After
    ``SPEN_SCREEN_MAX_DRAWS`` rejected draws it raises
    :class:`EvaluationError` (exit 3).
    """
    probe = SolverConfig(tol=solver.tol, max_iters=300)
    for _ in range(SPEN_SCREEN_MAX_DRAWS):
        res = conjugate(energy, reg, v, probe)
        if (
            res.status == "converged"
            and np.min(np.abs(v.w.W1 @ res.argmax + v.w.b1)) > margin
            and np.min(np.abs(v.w.W1 @ y + v.w.b1)) > margin
        ):
            return v, y
        v = energy.random_input(rng)
        y = rng.uniform(0.05, 0.95, size=energy.k)
    raise EvaluationError(f"no spen draw cleared the prior-net kinks in {SPEN_SCREEN_MAX_DRAWS} draws")


def _gradcheck_instance(family: str, k: int, d: int, rng: np.random.Generator, reg_block: dict, solver: SolverConfig):
    """One random (energy, v, y) triple with kink-avoiding margins."""
    if family == "bilinear":
        energy = BilinearEnergy(rng.standard_normal((d, k)))
    elif family == "linear_quadratic":
        energy = LinearQuadraticEnergy(k)
    elif family == "pairwise":
        energy = PairwiseEnergy(k)
    elif family == "rectifier":
        energy = RectifierEnergy(rng.uniform(0.1, 1.0, size=(d, k)))
    elif family == "maxout":
        energy = MaxoutEnergy(d)
    elif family == "lse_net":
        energy = LogSumExpEnergy(d, gamma=1.0)
    elif family == "spen":
        energy = SpenEnergy(k, hidden=3, concave=True)
    else:
        raise ContractViolation(f"unknown gradcheck family {family!r}")
    v = energy.random_input(rng)
    if family == "pairwise":
        v = PairwiseInput(u=v.u, U=v.U - 0.05 * np.eye(k))  # stay NSD under the FD perturbation
    elif family == "rectifier":
        v[np.abs(v) < 1e-2] = 1e-2  # keep clear of the relu kink
    elif family == "maxout":
        v[np.argsort(v)[-1]] += 0.5  # keep the max unique

    if family == "linear_quadratic":
        reg = make_regularizer(**{**reg_block, "kind": "squared_l2"}, k=k, domain=reals(k))
        y = rng.standard_normal(k)
    else:
        # maxout and lse_net have scalar outputs regardless of the config k
        reg = make_regularizer(**reg_block, k=energy.k, domain=box01(energy.k))
        y = rng.uniform(0.05, 0.95, size=energy.k)
    if family == "spen":
        v, y = _screen_spen(energy, reg, v, y, rng, solver)
    return energy, reg, v, y


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args.config, "gradcheck")
    family = cfg["family"]
    k = cfg.get("k", 3)
    d = cfg.get("d", 4)
    n = cfg.get("instances", 50)
    tol = cfg.get("tolerance", 1e-5)
    reg_block = cfg.get("regularizer", {"kind": "gini_binary"})
    solver = _solver_from(cfg)
    rng = rng_from_seed(cfg["seed"])
    worst = 0.0
    for _ in range(n):
        energy, reg, v, y = _gradcheck_instance(family, k, d, rng, reg_block, solver)
        envelope = gfy_loss(energy, reg, v, y, solver).grad_v
        fd = input_grad_finite_diff(energy, v, lambda vv: gfy_loss(energy, reg, vv, y, solver).value)
        worst = max(worst, rel_err(energy.input_to_vec(envelope), energy.input_to_vec(fd)))
    print(f"gradcheck {family}: max relative error {worst:.3e} over {n} instances (tol {tol:g})")
    return 0 if worst <= tol else CHECK_FAILURE


def _energy_instance_from(block: dict):
    kind = block["kind"]
    if kind == "bilinear":
        if "U" not in block or "v" not in block:
            raise ContractViolation("bilinear instances need 'U' and 'v'")
        return BilinearEnergy(np.asarray(block["U"], dtype=float)), np.asarray(block["v"], dtype=float)
    if kind == "linear_quadratic":
        if "A" not in block or "b" not in block:
            raise ContractViolation("linear_quadratic instances need 'A' and 'b'")
        A = np.asarray(block["A"], dtype=float)
        b = np.asarray(block["b"], dtype=float)
        return LinearQuadraticEnergy(b.size), LinQuadInput(A=A, b=b)
    if kind == "pairwise":
        if "u" not in block or "U" not in block:
            raise ContractViolation("pairwise instances need 'u' and 'U'")
        u = np.asarray(block["u"], dtype=float)
        U = np.asarray(block["U"], dtype=float)
        return PairwiseEnergy(u.size), PairwiseInput(u=u, U=U)
    raise ContractViolation(f"unsupported conjbench energy {kind!r}")


def cmd_conjbench(args) -> int:
    cfg = _load_config(args.config, "conjbench")
    energy, v = _energy_instance_from(cfg["energy"])
    reg = _regularizer_from(
        cfg, energy.k, default_kind="squared_l2" if energy.kind == "linear_quadratic" else "gini_binary"
    )
    solver = _solver_from(cfg)
    trace: list = []
    res = conjugate(energy, reg, v, solver, trace=trace)
    print(f"value {_fmt(res.value)}")
    print("argmax " + " ".join(_fmt(x) for x in res.argmax))
    print(f"status {res.status} iters {res.iters} gap {res.gap:.3e}")
    grad_vec = energy.input_to_vec(res.envelope_grad)
    print("envelope_grad " + " ".join(_fmt(x) for x in grad_vec))
    if cfg.get("output"):
        with open(cfg["output"], "w") as fh:
            fh.write(_header(cfg))
            fh.write("iteration,objective,optimality_gap\n")
            for it, obj, gap in trace:
                fh.write(f"{it},{_fmt(obj)},{gap:.6e}\n")
    return 0


def cmd_calibcheck(args) -> int:
    cfg = _load_config(args.config, "calibcheck")
    k = cfg["k"]
    rng = rng_from_seed(cfg["seed"])
    reg = _regularizer_from(cfg, k)
    solver = _solver_from(cfg, tol=1e-10)
    n_v = cfg.get("n_v", 100)
    scale = cfg.get("v_scale", 3.0)
    q = rng.dirichlet(np.ones(2**k))
    if cfg["coupling"] == "bilinear":
        energy = BilinearEnergy(np.eye(k))
        v_samples = [scale * rng.uniform(-1.0, 1.0, size=k) for _ in range(n_v)]
    else:
        energy = PairwiseEnergy(k)
        v_samples = []
        for _ in range(n_v):
            g = rng.standard_normal((k, k))
            v_samples.append(
                PairwiseInput(u=scale * rng.uniform(-1, 1, size=k), U=-(g @ g.T) / k)
            )
    report = calibration_check(
        energy, reg, q, v_samples, cfg=solver, slack=cfg.get("slack", 1e-6), seed=cfg["seed"]
    )
    if cfg.get("output"):
        with open(cfg["output"], "w") as fh:
            fh.write(_header(cfg))
            fh.write("target_excess,surrogate_excess,xi,ok\n")
            for row in report.rows:
                fh.write(
                    f"{_fmt(row['target_excess'])},{_fmt(row['surrogate_excess'])},"
                    f"{_fmt(row['xi'])},{int(row['ok'])}\n"
                )
    status = "pass" if report.passed else "FAIL"
    print(
        f"calibcheck {cfg['coupling']} k={k}: {status} over {n_v} inputs "
        f"(sigma {report.sigma:.4g}, M {report.M:.4g}, min slack {report.worst_slack:.3e})"
    )
    return 0 if report.passed else CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efy", description="Energy networks with generalized Fenchel-Young losses"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("train", cmd_train),
        ("eval", cmd_eval),
        ("gradcheck", cmd_gradcheck),
        ("conjbench", cmd_conjbench),
        ("calibcheck", cmd_calibcheck),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches the contract
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ContractViolation, ParseError, UnsupportedOperation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (
        TrainingDivergence,
        DivergenceError,
        InfeasibleError,
        SingularMatrixError,
        EvaluationError,
        DomainBoundaryError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return DIVERGENCE_ERROR


if __name__ == "__main__":
    sys.exit(main())
