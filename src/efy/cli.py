"""Command-line interface.

Subcommands: ``train``, ``eval``, ``gradcheck``, ``conjbench``, ``calibcheck``.
Each is one function in ``COMMANDS`` whose keyword parameters are the keys of
its JSON config; the CLI supplies one more itself, the config hash. Every key,
at the top level or in a block, is a keyword parameter of one function: its
JSON type is the annotation (an integer key takes only a JSON integer, not
``1.0``), it is required when the parameter has no default, an omitted key
takes the parameter's default, unknown keys are rejected, and the function
checks the value. A ``dict`` key is a block whose keys feed the function of
its name: ``dataset.synthetic`` -> ``planted_pairwise``, ``dataset`` with a
``path`` -> ``parse_libsvm_multilabel``, ``split`` -> ``_split``, ``model``
-> ``make_model``, ``regularizer`` -> ``make_regularizer``, ``train`` ->
``TrainConfig``, ``solver`` -> ``SolverConfig``, ``energy`` ->
``_energy_instance``. For ``train`` the ``solver`` block overrides fields of
``TrainConfig``'s own default solver. The ``EFY_SEED`` environment variable
overrides the config seed. Output files start with a provenance header line
carrying the config hash and the effective seed.

Exit codes: 0 success, 4 check failure, and the ``exit_code`` of a library
error: 2 config/usage error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import jsonschema

from . import data, training
from .calibration import accuracy, calibration_check, hamming_decode
from .conjugate import SolverConfig, conjugate
from .data import MultilabelDataset, parse_libsvm_multilabel, planted_pairwise
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
from .exceptions import ContractViolation, EfyError, EvaluationError
from .losses import gfy_loss, input_grad_finite_diff
from .models import load_params, make_model, save_params
from .numerics import rel_err, rng_from_seed
from .regularizers import box01, make_regularizer, reals
from .training import TrainConfig, evaluate_accuracy, predict_marginals

CONFIG_ERROR, CHECK_FAILURE = 2, 4

# Raw spen gradcheck draws clear the kink screen about four times in five, so
# this many failures in a row means the config admits no checkable instance.
SPEN_SCREEN_MAX_DRAWS = 1000

# calibcheck enumerates all 2^k labels for every sampled input.
CALIBCHECK_MAX_K = 4

# JSON type of each parameter annotation a config key can have (``int | None``
# is an integer key that may be left out); a ``dict`` key is a block.
_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string", list: "array"}


def _block_schema(fn, cli_supplied: tuple = (), optional: tuple = ()) -> dict:
    """Schema of a config object whose keys the CLI passes to ``fn`` as keyword arguments.

    The keys, their JSON types and the required keys (parameters without a
    default) are read from ``fn``'s signature; ``fn`` itself checks the values.
    A ``dict`` parameter takes the schema of the block of its name.
    Parameters in ``cli_supplied`` are passed by the CLI and are not keys;
    keys in ``optional`` have no default in ``fn`` but one in the CLI.
    """
    hints = typing.get_type_hints(fn)
    properties, required = {}, []
    for name, param in inspect.signature(fn).parameters.items():
        if name in cli_supplied:
            continue
        (typ,) = [t for t in typing.get_args(hints[name]) or (hints[name],) if t is not type(None)]
        properties[name] = _BLOCKS[name] if typ is dict else {"type": _JSON_TYPES[typ]}
        if param.default is param.empty and name not in optional:
            required.append(name)
    return {"type": "object", "additionalProperties": False, "required": required, "properties": properties}


def _split(
    ds: MultilabelDataset, seed: int, test_fraction: float = 0.0, dev_fraction: float = 0.0, standardize: bool = False
) -> tuple[MultilabelDataset, MultilabelDataset | None, MultilabelDataset | None]:
    """Train, dev and test parts of ``ds``; a part with fraction 0 is ``None``."""
    for name, fraction in (("test_fraction", test_fraction), ("dev_fraction", dev_fraction)):
        if not 0.0 <= fraction < 1.0:
            raise ContractViolation(f"{name} must be in [0, 1), got {fraction}")
    fractions = {"train": 1.0 - test_fraction - dev_fraction, "dev": dev_fraction, "test": test_fraction}
    if fractions["train"] <= 0:
        raise ContractViolation("split fractions leave no training data")
    names = [name for name, f in fractions.items() if f > 0]
    parts = data.split(ds, [fractions[name] for name in names], seed=seed)
    if standardize:
        parts = data.standardize(*parts)[:-1]
    named = dict(zip(names, parts))
    return named["train"], named.get("dev"), named.get("test")


def _array(name: str, value: list) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:  # a non-numeric entry or a ragged array
        raise ContractViolation(f"energy.{name} is not a numeric array: {exc}") from None


# The (matrix, vector) keys of each conjbench energy kind: the matrix has one
# row per vector entry and, but for bilinear, as many columns.
_CONJBENCH_KEYS = {"bilinear": ("U", "v"), "linear_quadratic": ("A", "b"), "pairwise": ("U", "u")}


def _energy_instance(
    kind: str,
    U: list | None = None,
    A: list | None = None,
    b: list | None = None,
    u: list | None = None,
    v: list | None = None,
):
    """The energy and the input of one conjbench instance."""
    if kind not in _CONJBENCH_KEYS:
        raise ContractViolation(f"unknown conjbench energy kind {kind!r}; choose from {tuple(_CONJBENCH_KEYS)}")
    names, given = _CONJBENCH_KEYS[kind], {"U": U, "A": A, "b": b, "u": u, "v": v}
    if any(given[name] is None for name in names):
        raise ContractViolation(f"{kind} instances need {names[0]!r} and {names[1]!r}")
    m, x = (_array(name, given[name]) for name in names)
    if x.ndim != 1 or m.ndim != 2 or m.shape[0] != x.size or (kind != "bilinear" and m.shape[1] != x.size):
        raise ContractViolation(
            f"energy.{names[0]} of shape {m.shape} does not fit energy.{names[1]} of shape {x.shape}"
        )
    if kind == "bilinear":
        return BilinearEnergy(m), x
    if kind == "linear_quadratic":
        return LinearQuadraticEnergy(x.size), LinQuadInput(A=m, b=x)
    return PairwiseEnergy(x.size), PairwiseInput(u=x, U=m)


_DATASET = _block_schema(parse_libsvm_multilabel, cli_supplied=("source",))
_DATASET["properties"].update(
    path={"type": "string"},
    synthetic=_block_schema(planted_pairwise, cli_supplied=("return_truth",), optional=("seed",)),
)
_BLOCKS = {
    "dataset": _DATASET,
    "split": _block_schema(_split, cli_supplied=("ds",), optional=("seed",)),
    "model": _block_schema(make_model, cli_supplied=("d", "k")),
    "regularizer": _block_schema(make_regularizer, cli_supplied=("k", "domain")),
    "train": _block_schema(TrainConfig, cli_supplied=("seed", "solver")),
    "solver": _block_schema(SolverConfig),
    "energy": _block_schema(_energy_instance),
}


# jsonschema counts 1.0 as an integer; an integer key takes only a JSON integer
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, instance: isinstance(instance, int) and not isinstance(instance, bool)
    ),
)


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ContractViolation(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ContractViolation(f"config is not valid JSON: {exc}") from None
    validator = _Validator(SCHEMAS[command])
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
    # the config hash covers the effective seed
    cfg.setdefault("seed", inspect.signature(COMMANDS[command]).parameters["seed"].default)
    return cfg


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def _write(path, write) -> None:
    """``write(path)``; an unwritable path exits 2, naming it."""
    try:
        write(path)
    except OSError as exc:
        raise ContractViolation(f"cannot write {path}: {exc.strerror}") from None


def _write_csv(path, config_hash: str, seed: int, columns, lines) -> None:
    """The provenance header line, then ``columns`` and each of ``lines`` comma-joined; an unwritable path exits 2."""
    text = f"# config={config_hash} seed={seed}\n" + "".join(",".join(map(str, line)) + "\n" for line in [columns, *lines])
    _write(path, lambda p: Path(p).write_text(text))


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


def _prepare_splits(dataset: dict, split: dict, seed: int):
    ds = _load_dataset(dataset, seed)
    if not split:
        return ds, None, None
    return _split(ds, **{"seed": seed, **split})


def _fmt(x: float) -> str:
    return f"{x:.10g}"


# Block defaults are dicts that the commands only read.
def cmd_train(
    *,
    config_hash: str,
    output_dir: str,
    dataset: dict,
    model: dict,
    regularizer: dict,
    seed: int = 0,
    split: dict = {},
    train: dict = {},
    solver: dict = {},
) -> int:
    tcfg = TrainConfig(**train, seed=seed)
    tcfg = replace(tcfg, solver=replace(tcfg.solver, **solver))
    train_ds, dev_ds, test_ds = _prepare_splits(dataset, split, seed)
    net = make_model(d=train_ds.d, k=train_ds.k, **model)
    reg = make_regularizer(k=train_ds.k, **regularizer)
    out = Path(output_dir)
    try:  # before the training run, so an unusable directory costs no work
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ContractViolation(f"cannot create output_dir {out}: {exc.strerror}") from None
    report = training.train(net, reg, train_ds, tcfg, dev_ds=dev_ds)
    accs = [_fmt(acc) for acc in report.dev_accuracy] or [""] * len(report.train_loss)
    lines = [(i, _fmt(loss), acc) for i, (loss, acc) in enumerate(zip(report.train_loss, accs), start=1)]
    _write_csv(out / "metrics.csv", config_hash, seed, ("epoch", "train_loss", "dev_accuracy"), lines)
    _write(out / "params.bin", lambda path: save_params(path, net, report.params, seed=seed))
    summary = {
        "config_hash": config_hash,
        "seed": seed,
        "final_train_loss": report.train_loss[-1],
        "wall_time_s": round(report.wall_time, 3),
    }
    if dev_ds is not None:
        summary["final_dev_accuracy"] = report.dev_accuracy[-1]
    if test_ds is not None:
        summary["test_accuracy"] = evaluate_accuracy(net, report.params, reg, test_ds, tcfg.solver)
    _write(out / "summary.json", lambda path: path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n"))
    print(f"trained {net.architecture} model: final loss {_fmt(report.train_loss[-1])}")
    if "test_accuracy" in summary:
        print(f"test accuracy {_fmt(summary['test_accuracy'])}")
    return 0


def cmd_eval(
    *,
    config_hash: str,
    params: str,
    dataset: dict,
    seed: int = 0,
    split: dict = {},
    regularizer: dict = {"kind": "gini_binary"},
    solver: dict = {},
    output: str = "",
) -> int:
    params_path = Path(params)
    if not params_path.exists():
        raise ContractViolation(f"params file not found: {params_path}")
    model, weights, header = load_params(params_path)
    reg = make_regularizer(k=model.k, **regularizer)
    solver = SolverConfig(**solver)
    ds, dev_ds, test_ds = _prepare_splits(dataset, split, seed)
    target = test_ds if test_ds is not None else ds
    if target.n == 0:
        raise ContractViolation("evaluation set is empty")
    if target.d != model.d or target.k != model.k:
        raise ContractViolation(
            f"dataset is ({target.d} features, {target.k} labels), "
            f"model expects ({model.d}, {model.k})"
        )
    Y_hat = hamming_decode(predict_marginals(model, weights, reg, target.X, solver))
    acc = accuracy(Y_hat, target.Y)
    if output:
        _write_csv(output, config_hash, seed, [f"label_{j}" for j in range(model.k)], Y_hat.astype(int).tolist())
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
    else:  # spen, the last of ENERGY_KINDS
        energy = SpenEnergy(k, hidden=3, concave=True)
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


def cmd_gradcheck(
    *,
    config_hash: str,
    family: str,
    seed: int = 0,
    instances: int = 50,
    k: int = 3,
    d: int = 4,
    tolerance: float = 1e-5,
    regularizer: dict = {"kind": "gini_binary"},
    solver: dict = {},
) -> int:
    if family not in ENERGY_KINDS:
        raise ContractViolation(f"unknown gradcheck family {family!r}; choose from {ENERGY_KINDS}")
    for name, size in (("instances", instances), ("k", k), ("d", d)):
        if size < 1:
            raise ContractViolation(f"{name} must be >= 1, got {size}")
    if not tolerance > 0:
        raise ContractViolation(f"tolerance must be positive, got {tolerance}")
    make_regularizer(**regularizer, k=k)  # checks the block, although linear_quadratic overrides its kind
    solver = SolverConfig(**solver)
    rng = rng_from_seed(seed)
    worst = 0.0
    for _ in range(instances):
        energy, reg, v, y = _gradcheck_instance(family, k, d, rng, regularizer, solver)
        envelope = gfy_loss(energy, reg, v, y, solver).grad_v
        fd = input_grad_finite_diff(energy, v, lambda vv: gfy_loss(energy, reg, vv, y, solver).value)
        worst = max(worst, rel_err(energy.input_to_vec(envelope), energy.input_to_vec(fd)))
    print(f"gradcheck {family}: max relative error {worst:.3e} over {instances} instances (tol {tolerance:g})")
    return 0 if worst <= tolerance else CHECK_FAILURE


def cmd_conjbench(
    *,
    config_hash: str,
    energy: dict,
    seed: int = 0,
    regularizer: dict | None = None,
    solver: dict = {},
    output: str = "",
) -> int:
    """Solve one instance; with no ``regularizer`` a linear_quadratic instance
    takes squared L2 and any other binary Gini."""
    phi, v = _energy_instance(**energy)
    if regularizer is None:
        regularizer = {"kind": "squared_l2" if phi.kind == "linear_quadratic" else "gini_binary"}
    reg = make_regularizer(k=phi.k, **regularizer)
    solver = SolverConfig(**solver)
    trace: list = []
    res = conjugate(phi, reg, v, solver, trace=trace)
    print(f"value {_fmt(res.value)}")
    print("argmax " + " ".join(_fmt(x) for x in res.argmax))
    print(f"status {res.status} iters {res.iters} gap {res.gap:.3e}")
    grad_vec = phi.input_to_vec(res.envelope_grad)
    print("envelope_grad " + " ".join(_fmt(x) for x in grad_vec))
    if output:
        lines = [(it, _fmt(obj), f"{gap:.6e}") for it, obj, gap in trace]
        _write_csv(output, config_hash, seed, ("iteration", "objective", "optimality_gap"), lines)
    return 0


def cmd_calibcheck(
    *,
    config_hash: str,
    k: int,
    coupling: str,
    seed: int = 0,
    regularizer: dict = {"kind": "gini_binary"},
    n_v: int = 100,
    v_scale: float = 3.0,
    slack: float | None = None,
    solver: dict = {},
    output: str = "",
) -> int:
    """``slack`` is passed on only when the config sets it; ``calibration_check``
    holds its default. The solver tolerance defaults to 1e-10."""
    if not 1 <= k <= CALIBCHECK_MAX_K:
        raise ContractViolation(f"k must be in 1..{CALIBCHECK_MAX_K}, got {k}")
    if coupling not in ("bilinear", "pairwise"):
        raise ContractViolation(f"unknown coupling {coupling!r}; choose from ('bilinear', 'pairwise')")
    if n_v < 1:
        raise ContractViolation(f"n_v must be >= 1, got {n_v}")
    if not v_scale > 0:
        raise ContractViolation(f"v_scale must be positive, got {v_scale}")
    rng = rng_from_seed(seed)
    reg = make_regularizer(k=k, **regularizer)
    solver = SolverConfig(**{"tol": 1e-10, **solver})
    q = rng.dirichlet(np.ones(2**k))
    if coupling == "bilinear":
        energy = BilinearEnergy(np.eye(k))
        v_samples = [v_scale * rng.uniform(-1.0, 1.0, size=k) for _ in range(n_v)]
    else:
        energy = PairwiseEnergy(k)
        v_samples = []
        for _ in range(n_v):
            g = rng.standard_normal((k, k))
            v_samples.append(PairwiseInput(u=v_scale * rng.uniform(-1, 1, size=k), U=-(g @ g.T) / k))
    report = calibration_check(
        energy, reg, q, v_samples, cfg=solver, seed=seed, **({} if slack is None else {"slack": slack})
    )
    if output:
        columns = ("target_excess", "surrogate_excess", "xi", "ok")
        lines = [[_fmt(row[c]) for c in columns[:3]] + [int(row["ok"])] for row in report.rows]
        _write_csv(output, config_hash, seed, columns, lines)
    status = "pass" if report.passed else "FAIL"
    print(
        f"calibcheck {coupling} k={k}: {status} over {n_v} inputs "
        f"(sigma {report.sigma:.4g}, M {report.M:.4g}, min slack {report.worst_slack:.3e})"
    )
    return 0 if report.passed else CHECK_FAILURE


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "conjbench": cmd_conjbench,
    "calibcheck": cmd_calibcheck,
}
SCHEMAS = {name: _block_schema(fn, cli_supplied=("config_hash",)) for name, fn in COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efy", description="Energy networks with generalized Fenchel-Young losses"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name).add_argument("--config", required=True, help="path to a JSON config")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches the contract
        return int(exc.code) if exc.code else 0
    try:
        cfg = _load_config(args.config, args.command)
        return COMMANDS[args.command](**cfg, config_hash=_config_hash(cfg))
    except EfyError as exc:
        print(f"{'error' if exc.exit_code == CONFIG_ERROR else 'numerical failure'}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
